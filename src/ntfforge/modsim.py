"""Nonlinear time-domain simulation of the quantized noise-shaping loop.

The loop runs in error-feedback form, which is exact for FIR noise transfer
functions with a unit leading coefficient: past quantization errors are fed
back through the tail coefficients, so the injected error sees exactly the
designed FIR shape and the signal passes through unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, NtfForgeError
from .filters import RationalFilter, impulse_response, settling_length

SNR_DB_CAP = 300.0
OVERLOAD_EPS = 1e-12
# A block of L samples looks its last sample's feedback up in a table with
# one entry per pattern of the L - 1 earlier decisions: at most this many.
BLOCK_TABLE_ENTRIES = 2**11
# The block stops before the first tap of 1/A(z) above this.  The taps bound
# the block's terms, so their rounding stays within ~1e3 eps of max |e|.
BLOCK_MAX_TAP = 1e3


@dataclass(frozen=True)
class NtfFir:
    """FIR noise transfer function coefficients a_0..a_P with a_0 = 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidSpecError("coefficients must be a nonempty vector")
        if arr[0] != 1.0:
            raise InvalidSpecError("leading coefficient must be exactly 1")
        if not np.all(np.isfinite(arr)):
            raise InvalidSpecError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1


@dataclass(frozen=True)
class Quantizer:
    """Static quantizer with fixed output levels; binary +-1 by default.

    The average gain of the quantizer is taken as one throughout (the usual
    linearized-model assumption when the loop is not overloaded).
    """

    levels: tuple = (-1.0, 1.0)

    def __post_init__(self):
        levels = tuple(float(v) for v in self.levels)
        if len(levels) < 2:
            raise InvalidSpecError("need at least two quantizer levels")
        if not np.all(np.isfinite(levels)):
            raise InvalidSpecError("quantizer levels must be finite")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise InvalidSpecError("levels must be strictly increasing")
        object.__setattr__(self, "levels", levels)

    @property
    def delta(self) -> float:
        """Step between levels, the full span over the number of steps."""
        return (self.levels[-1] - self.levels[0]) / (len(self.levels) - 1)

    @property
    def midpoints(self) -> list:
        """Decision thresholds, one between each pair of adjacent levels."""
        return [0.5 * (lo + hi) for lo, hi in zip(self.levels, self.levels[1:])]


@dataclass(frozen=True)
class ModTrace:
    """One simulation run: input, quantized output and injected error."""

    input_w: np.ndarray
    output_x: np.ndarray
    quant_error_e: np.ndarray
    overloaded: bool
    transient_discard: int


def _inverse_taps(coeffs: np.ndarray, nlev: int) -> np.ndarray:
    """The first L taps of 1/A(z); their count is the block length L.

    L is the largest length whose last lookup table, one entry per pattern
    of nlev levels over L - 1 samples, has at most BLOCK_TABLE_ENTRIES
    entries (12 for a binary quantizer), cut before the first tap above
    BLOCK_MAX_TAP.  L = 1 leaves one sample per block.
    """
    length = 1
    while nlev**length <= BLOCK_TABLE_ENTRIES:
        length += 1
    tail = coeffs[1:].tolist()
    taps = [1.0]
    while len(taps) < length:
        tap = -sum(a * t for a, t in zip(tail, reversed(taps)))
        if abs(tap) > BLOCK_MAX_TAP:
            break
        taps.append(tap)
    return np.array(taps)


def _level_indices(patterns: np.ndarray, nlev: int, length: int) -> np.ndarray:
    """Rows d_0..d_{length-1} of each pattern sum_i d_i nlev^(length-1-i)."""
    return patterns[:, None] // nlev ** np.arange(length - 1, -1, -1) % nlev


@np.errstate(over="ignore", invalid="ignore")
def simulate(ntf: NtfFir, input_w, quantizer: Quantizer | None = None) -> ModTrace:
    """Run the error-feedback loop over the input sequence.

    Recursion: y(n) = w(n) + sum_k a_k e(n-k), x(n) = quantize(y(n)),
    e(n) = x(n) - y(n).  The stored error satisfies x - w = conv(a, e)
    to rounding, so the injected error is shaped by the designed NTF with a
    unity signal path.  The first 4P samples are the loop's transient; the
    overload check starts after them.

    The loop runs by blocks of L samples (``_inverse_taps``).  With N the
    strictly lower-triangular Toeplitz matrix of a_1..a_{L-1} and
    M = (I + N)^-1, whose first column is the taps of 1/A(z), a block's
    sums are y = M (w + F e_past) + (I - M) x: F feeds back the P errors
    before the block, and I - M = M N the block's own decisions.  M w is
    one matrix product over all blocks and M F e_past one per block.  Row j
    of I - M is a table over every pattern of the j earlier decisions, so
    each sample costs one lookup and one threshold search whatever P is.
    The sums equal the per-sample recursion's to rounding, so the decisions
    are the same unless a sum lies within that rounding of a threshold.
    Decisions use ``Quantizer.midpoints``, ties going up.

    A loop that diverges overflows without a warning and is flagged
    overloaded.  Once the P errors a block reads hold a NaN, every later
    error is NaN and every later decision the top level, so the loop stops
    there and fills them in.
    """
    w = np.asarray(input_w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise InvalidSpecError("input contains non-finite samples")
    quantizer = quantizer or Quantizer()
    p = ntf.order
    n_discard = 4 * p
    coeffs = ntf.coeffs
    levels = np.array(quantizer.levels)
    nlev = levels.size
    taps = _inverse_taps(coeffs, nlev)
    block = taps.size
    lag = np.subtract.outer(np.arange(block), np.arange(block))
    m_inv = np.where(lag >= 0, taps[np.clip(lag, 0, None)], 0.0)
    # F[j, i] = a_{P+j-i} feeds e(n0-P+i) into y(n0+j), for i >= j
    lag_past = p + np.subtract.outer(np.arange(block), np.arange(p))
    feed_past = m_inv @ np.where(lag_past <= p, coeffs[np.clip(lag_past, 0, p)],
                                 0.0)
    tables = [(levels[_level_indices(np.arange(nlev**j), nlev, j)]
               @ -m_inv[j, :j]).tolist() for j in range(block)]

    n = w.size
    n_blocks = -(-n // block)
    w_blocks = np.zeros(n_blocks * block)
    w_blocks[:n] = w
    from_input = w_blocks.reshape(n_blocks, block) @ m_inv.T
    # e after p zeros that stand for the errors before the run
    e_ext = np.zeros(p + n_blocks * block)
    level_list = quantizer.levels
    mids = quantizer.midpoints
    patterns = []
    for n0, from_w in zip(range(0, n_blocks * block, block), from_input):
        from_e = feed_past.dot(e_ext[n0:n0 + p]).tolist()
        if from_e[0] != from_e[0] and np.isnan(e_ext[n0:n0 + p]).any():
            # diverged: the past errors hold a NaN, so every later sum and
            # error is NaN and every later decision the top level, which is
            # what bisect_right returns for NaN
            e_ext[p + n0:] = np.nan
            patterns += [nlev**block - 1] * (n_blocks - len(patterns))
            break
        pattern = 0
        errors = []
        for yw, ye, table in zip(from_w.tolist(), from_e, tables):
            acc = yw + ye + table[pattern]
            d = bisect_right(mids, acc)
            errors.append(level_list[d] - acc)
            pattern = pattern * nlev + d
        e_ext[p + n0:p + n0 + block] = errors
        patterns.append(pattern)
    decisions = _level_indices(np.array(patterns, dtype=np.int64), nlev, block)
    x = levels[decisions].ravel()[:n]
    e = e_ext[p:p + n]
    # overload: a sum y = x - e past an outer level by more than half the
    # outer step, which in-range quantization cannot reach, or a sum that is
    # no longer finite because the loop diverged
    start = min(n_discard, n)
    post = x[start:] - e[start:]
    lv = quantizer.levels
    overloaded = bool(post.size and (
        not np.all(np.isfinite(post))
        or post.min() < lv[0] - (lv[1] - lv[0]) / 2 - OVERLOAD_EPS
        or post.max() > lv[-1] + (lv[-1] - lv[-2]) / 2 + OVERLOAD_EPS))
    return ModTrace(input_w=w, output_x=x, quant_error_e=e,
                    overloaded=overloaded, transient_discard=n_discard)


def measure_snr(trace: ModTrace, filt: RationalFilter) -> float:
    """SNR through the output filter, in dB, capped at ``SNR_DB_CAP``.

    Signal power is the mean square of the filtered input alone; noise power
    is the mean square of the filtered difference between input and modulator
    output, both filtered in one pass.  Both discard the same prefix: the
    longer of the filter's settling length (from its truncated impulse
    response) and the loop's transient.
    """
    w = trace.input_w
    x = trace.output_x
    settle_len = settling_length(impulse_response(filt))
    settle = max(settle_len, trace.transient_discard)
    n_post = w.size - settle
    if n_post < 8 * settle_len:
        raise InvalidSpecError(
            "trace too short: need at least 8 filter settling lengths after "
            "the discarded prefix"
        )
    filtered = filt.filter_signal(np.stack((w, w - x), axis=1))[settle:]
    signal_power, noise_power = (float(v) for v in np.mean(filtered**2, axis=0))
    if signal_power == 0.0:
        raise NtfForgeError("signal power is zero; SNR undefined")
    if noise_power == 0.0:
        return SNR_DB_CAP
    return min(SNR_DB_CAP, 10.0 * math.log10(signal_power / noise_power))


def expected_snr(signal_power: float, sigma2_h: float) -> float:
    """White-noise SNR prediction, in dB, for a test signal of the given
    mean square (N A^2/2 for N tones of amplitude A, A^2 for dc).

    The noise power sigma2_h is that of white quantization error of variance
    Delta^2/12 shaped by the NTF and the output filter, i.e. the density
    Delta^2/(12 pi) on omega in [0, pi] (``NoiseBudget.pds_constant``).  A
    figure quoted with half that density reads 10 log10(2) = 3.01 dB higher.
    """
    if signal_power <= 0:
        raise InvalidSpecError("signal power must be positive")
    if sigma2_h <= 0:
        raise InvalidSpecError("noise power must be positive")
    return 10.0 * math.log10(signal_power / sigma2_h)


def make_test_signal(kind: str, freqs_hz, amplitude: float, fs_hz: float,
                     n: int) -> np.ndarray:
    """Coherently sampled test input of one finite positive amplitude A: dc
    (no tone), one sine or a multitone, each tone snapped to its own whole
    number of cycles below n/2 over the n samples.  The mean square is then
    exactly N A^2/2 for N tones, or A^2 for dc."""
    if n <= 0:
        raise InvalidSpecError("length must be positive")
    if kind not in ("dc", "sine", "multitone"):
        raise InvalidSpecError(f"unknown signal kind {kind!r}")
    freqs = [float(f) for f in np.atleast_1d(freqs_hz)]
    if kind == "dc" and freqs:
        raise InvalidSpecError("dc takes no frequency")
    if kind == "sine" and len(freqs) != 1:
        raise InvalidSpecError("sine takes exactly one frequency")
    if kind == "multitone" and not freqs:
        raise InvalidSpecError("multitone takes at least one frequency")
    amplitude = float(amplitude)
    if not (0.0 < amplitude < math.inf):
        raise InvalidSpecError("amplitude must be finite and positive")
    if kind == "dc":
        return np.full(n, amplitude)
    t = np.arange(n)
    out = np.zeros(n)
    taken = set()
    for f in freqs:
        if not (0.0 < f < fs_hz / 2.0):
            raise InvalidSpecError(f"frequency {f} Hz outside (0, Nyquist)")
        cycles = max(1, round(f * n / fs_hz))
        if 2 * cycles >= n:
            raise InvalidSpecError(f"frequency {f} Hz snaps to n/2 cycles")
        if cycles in taken:
            raise InvalidSpecError(
                f"frequency {f} Hz snaps to another tone's {cycles} cycles")
        taken.add(cycles)
        out += amplitude * np.sin(2.0 * np.pi * cycles * t / n)
    return out
