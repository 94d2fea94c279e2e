"""Discrete-time filter construction, impulse responses and frequency responses.

A filter is held only as parallel branches of cascaded low-order sections
(coefficients in powers of z^-1); explicit filters are one-section filters.
Narrowband high-order designs are unusable as one flat numerator/denominator
pair in double precision (their computed polynomial roots scatter off the unit
disk), so every numeric operation here runs section-wise and no flat form is
built; the section roots are found once per filter, for its ``pole_radius``.
Butterworth sections come from closed-form poles, and signals are filtered by
blocks through one state space per branch; numpy is the only numerical
dependency.

``design_filter`` and ``impulse_response`` keep their last ``CACHE_SIZE``
results, keyed on the spec's or the filter's value, so the designs of an
order sweep and the evaluation after them build one filter and truncate it
once per process.  Both results are immutable: a filter is a frozen value,
and a truncated response holds its own read-only copy of the samples.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningError,
    EvaluationError,
    InvalidSpecError,
    TruncationOverflowError,
    spec_int,
)

TRUNCATION_HARD_CAP = 2**20
ENERGY_TOL = 1e-12  # tail energy impulse_response discards, relative
_STABILITY_MARGIN = 1e-12
FILTER_BLOCK = 128  # samples per block of filter_signal; a power of two
# filters and truncated responses design_filter / impulse_response keep; a
# response holds at most TRUNCATION_HARD_CAP samples of 8 bytes
CACHE_SIZE = 4

FILTER_KINDS = (
    "lowpass_butterworth",
    "bandpass_butterworth",
    "multiband_butterworth",
    "explicit_rational",
    "explicit_impulse",
)


@dataclass(frozen=True)
class FrequencyGrid:
    """Strictly increasing angular frequencies on [0, pi], endpoints included.

    The frequencies and the points e^{-i omega} on the circle are read-only,
    so one grid can be shared; the points are computed on first use."""

    omegas: np.ndarray

    def __post_init__(self):
        om = np.array(self.omegas, dtype=float)
        if om.ndim != 1 or om.size < 2:
            raise InvalidSpecError("grid needs at least two points")
        if np.any(np.diff(om) <= 0):
            raise InvalidSpecError("grid frequencies must be strictly increasing")
        if om[0] != 0.0 or abs(om[-1] - np.pi) > 1e-15:
            raise InvalidSpecError("grid must span [0, pi] inclusive")
        om.flags.writeable = False
        object.__setattr__(self, "omegas", om)

    @property
    def count(self) -> int:
        return self.omegas.size

    @functools.cached_property
    def zinv(self) -> np.ndarray:
        """z^-1 = e^{-i omega} at every grid point."""
        points = np.exp(-1j * self.omegas)
        points.flags.writeable = False
        return points

    @classmethod
    def uniform(cls, count: int) -> "FrequencyGrid":
        if count < 2:
            raise InvalidSpecError("grid count must be >= 2")
        return cls(np.linspace(0.0, np.pi, count))


@dataclass(frozen=True)
class FilterSpec:
    """Declarative description of an output/reconstruction filter.

    ``order`` is the order of each band's Butterworth branch; ``bands_hz``
    holds (low, high) edges per band, with low = 0 meaning lowpass.  A
    lowpass spec has one band at dc, a bandpass spec one band off dc, and a
    multiband spec two or more disjoint bands; a band off dc needs an even
    order.  ``fs_hz`` is the one sample rate of a design.
    """

    kind: str
    fs_hz: float
    order: int = 0
    bands_hz: tuple = ()
    num: tuple = ()
    den: tuple = ()
    impulse: tuple = ()

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise InvalidSpecError(f"unknown filter kind {self.kind!r}")
        if not 0.0 < self.fs_hz < np.inf:
            raise InvalidSpecError("sample rate must be positive and finite")
        object.__setattr__(self, "bands_hz", tuple(tuple(b) for b in self.bands_hz))
        object.__setattr__(self, "num", tuple(float(c) for c in self.num))
        object.__setattr__(self, "den", tuple(float(c) for c in self.den))
        object.__setattr__(self, "impulse", tuple(float(c) for c in self.impulse))
        if self.kind.endswith("butterworth"):
            if self.order < 1:
                raise InvalidSpecError("butterworth order must be >= 1")
            if not self.bands_hz:
                raise InvalidSpecError("butterworth spec needs band edges")
            nyq = self.fs_hz / 2.0
            for lo, hi in self.bands_hz:
                if not (0.0 <= lo < hi):
                    raise InvalidSpecError("band edges must be increasing")
                if hi >= nyq:
                    raise InvalidSpecError(
                        f"band edge {hi} Hz at or above Nyquist {nyq} Hz"
                    )
            spans = sorted(self.bands_hz)
            for (l0, h0), (l1, h1) in zip(spans, spans[1:]):
                if h0 > l1:
                    raise InvalidSpecError("multiband bands must be disjoint")
            if self.kind == "multiband_butterworth":
                if len(self.bands_hz) < 2:
                    raise InvalidSpecError("multiband spec needs at least two bands")
            elif len(self.bands_hz) != 1:
                raise InvalidSpecError(f"{self.kind} spec takes exactly one band")
            elif self.kind == "lowpass_butterworth" and self.bands_hz[0][0] != 0.0:
                raise InvalidSpecError("lowpass band must start at 0 Hz")
            elif self.kind == "bandpass_butterworth" and self.bands_hz[0][0] == 0.0:
                raise InvalidSpecError("bandpass band must not start at dc")
            if self.order % 2 and any(lo > 0.0 for lo, _ in self.bands_hz):
                raise InvalidSpecError("a band off dc needs an even butterworth order")
        elif self.kind == "explicit_rational":
            if not self.num or not self.den:
                raise InvalidSpecError("explicit_rational needs num and den")
            if self.den[0] == 0.0:
                raise InvalidSpecError("denominator leading coefficient is zero")
        elif self.kind == "explicit_impulse":
            if not self.impulse:
                raise InvalidSpecError("explicit_impulse needs samples")

    def to_json_dict(self) -> dict:
        if self.kind == "explicit_rational":
            return {"kind": self.kind, "num": list(self.num), "den": list(self.den),
                    "fs_hz": self.fs_hz}
        if self.kind == "explicit_impulse":
            return {"kind": self.kind, "h": list(self.impulse), "fs_hz": self.fs_hz}
        return {"kind": self.kind, "order": self.order,
                "bands_hz": [list(b) for b in self.bands_hz], "fs_hz": self.fs_hz}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FilterSpec":
        try:
            kind = d.get("kind")
            if kind == "explicit_rational":
                return cls(kind=kind, fs_hz=float(d["fs_hz"]), num=d["num"],
                           den=d["den"])
            if kind == "explicit_impulse":
                return cls(kind=kind, fs_hz=float(d["fs_hz"]), impulse=d["h"])
            return cls(kind=kind, fs_hz=float(d["fs_hz"]),
                       order=spec_int(d.get("order", 0), "filter order"),
                       bands_hz=d.get("bands_hz", ()))
        except (TypeError, ValueError) as exc:
            raise InvalidSpecError(f"malformed filter spec: {exc}") from None


@dataclass(frozen=True)
class RationalFilter:
    """A stable rational filter H(z) held as cascaded sections.

    ``branches`` is a tuple of parallel branches; each branch is a tuple of
    (b, a) cascade sections, coefficient tuples in powers of z^-1.  H(z) is the
    sum over branches of the product of b(z^-1)/a(z^-1) over the sections.
    A section's denominator need not be monic: every use divides by it.
    """

    branches: tuple

    def __post_init__(self):
        if not self.branches:
            raise InvalidSpecError("a filter needs at least one branch")
        branches = tuple(
            tuple((tuple(float(c) for c in b), tuple(float(c) for c in a))
                  for b, a in branch)
            for branch in self.branches
        )
        if any(not a or a[0] == 0.0 for branch in branches for _, a in branch):
            raise InvalidSpecError("denominator leading coefficient must be nonzero")
        object.__setattr__(self, "branches", branches)
        if self.pole_radius >= 1.0 - _STABILITY_MARGIN:
            raise ConditioningError(
                f"pole radius {self.pole_radius:.15f} at or beyond the "
                "stability margin")

    @classmethod
    def from_polynomials(cls, num, den) -> "RationalFilter":
        """The one-section filter num(z^-1)/den(z^-1)."""
        return cls(branches=(((num, den),),))

    @functools.cached_property
    def pole_radius(self) -> float:
        """Largest pole magnitude, 0 without poles; the roots are found
        section-wise (well-conditioned per low-order section), once."""
        radius = 0.0
        for branch in self.branches:
            for _, a in branch:
                den = np.trim_zeros(np.asarray(a), "b")
                if den.size > 1:
                    radius = max(radius, float(np.max(np.abs(np.roots(den)))))
        return radius

    def response(self, grid: FrequencyGrid) -> np.ndarray:
        """H(e^{i omega}) on the grid, evaluated branch/section-wise."""
        total = np.zeros(grid.count, dtype=complex)
        for branch in self.branches:
            acc = np.ones(grid.count, dtype=complex)
            for b, a in branch:
                acc *= frequency_response(b, a, grid)
            total += acc
        return total

    def filter_signal(self, x: np.ndarray) -> np.ndarray:
        """Run x through the filter along its first axis; a 2-D input
        (samples x columns) filters each column."""
        return _run_filter(_filter_operators(self), x)


@dataclass(frozen=True)
class ImpulseResponse:
    """Truncated impulse response h_0..h_M with truncation metadata.

    The samples are a read-only copy, so one response can be shared and the
    caller's array is left as it was."""

    samples: np.ndarray
    tail_energy_fraction: float

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidSpecError("impulse response must be a nonempty vector")
        if not (0.0 <= self.tail_energy_fraction < 1.0):
            raise InvalidSpecError("tail energy fraction must be in [0, 1)")
        if self.tail_energy_fraction > ENERGY_TOL:
            raise InvalidSpecError("tail energy exceeds the truncation tolerance")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)


def _polyval_zinv(coeffs, zinv):
    """Evaluate sum_k c_k * zinv^k (coefficients in powers of z^-1)."""
    acc = np.zeros_like(zinv)
    for c in reversed(tuple(coeffs)):
        acc *= zinv
        acc += c
    return acc


def _filter_operators(filt):
    """The block operators of every branch of a filter
    (``_branch_operators``), built once for any number of signals."""
    return tuple(_branch_operators(branch) for branch in filt.branches)


def _run_filter(operators, x):
    """Run x through a filter's block operators along its first axis; a 2-D
    input (samples x columns) filters each column."""
    x = np.asarray(x, dtype=float)
    cols = x[:, None] if x.ndim == 1 else x
    out = np.zeros_like(cols)
    for branch in operators:
        out += _run_branch(branch, cols)
    return out.reshape(x.shape)


def _branch_operators(sections):
    """The block operators of one branch (a cascade of sections).

    A numerator longer than its denominator is applied first, by
    convolution, so the state space holds only what the denominators need.
    The cascade then runs as one state space (A, B, C, D) by exact blocks of
    L samples: Y = T X + O s and s' = A^L s + K X, with T the L x L Toeplitz
    matrix of the impulse response, O the rows C A^k and K the columns
    A^(L-1-j) B.  Returns (numerators, D, state) with state = (O, K, A^L, T),
    or None when the cascade has no state.
    """
    numerators, recursive = [], []
    for num, den in sections:
        if len(num) > len(den):
            numerators.append(num)
            num = (1.0,)
        recursive.append((num, den))
    a_mat, b_vec, c_vec, d = _cascade_state_space(recursive)
    if a_mat.shape[0] == 0:
        return numerators, d, None
    L = FILTER_BLOCK
    # rows C A^k and columns A^k B for k < L, then A^L, by doubling
    obs, ctrl, power = c_vec[None, :], b_vec[:, None], a_mat
    while obs.shape[0] < L:
        obs = np.vstack((obs, obs @ power))
        ctrl = np.hstack((ctrl, power @ ctrl))
        power = power @ power
    h = np.concatenate(([d], obs[:-1] @ b_vec))
    lag = np.arange(L)[:, None] - np.arange(L)[None, :]
    toeplitz = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)
    return numerators, d, (obs, ctrl[:, ::-1], power, toeplitz)


def _run_branch(operators, x):
    """One branch's ``_branch_operators`` over the columns of x."""
    numerators, d, state = operators
    n_samples = x.shape[0]
    for num in numerators:
        x = np.stack([np.convolve(col, num)[:n_samples] for col in x.T],
                     axis=1)
    if state is None:
        return d * x
    obs, ctrl, power, toeplitz = state
    L, n = FILTER_BLOCK, power.shape[0]
    n_cols = x.shape[1]
    n_blocks = -(-n_samples // L)
    blocks = np.zeros((n_cols, n_blocks * L))
    blocks[:, :n_samples] = x.T
    blocks = blocks.reshape(n_cols * n_blocks, L)
    # the state after block k, sum over j <= k of (A^L)^(k-j) K x_j, as a
    # prefix scan in log2(blocks) steps
    ends = (blocks @ ctrl.T).reshape(n_cols, n_blocks, n)
    shift = 1
    while shift < n_blocks:
        ends[:, shift:] += ends[:, :-shift] @ power.T
        power = power @ power
        shift *= 2
    states = np.zeros_like(ends)
    states[:, 1:] = ends[:, :-1]
    y = blocks @ toeplitz.T + states.reshape(n_cols * n_blocks, n) @ obs.T
    return y.reshape(n_cols, n_blocks * L)[:, :n_samples].T


def _cascade_state_space(sections):
    """(A, B, C, D) of sections in series (``_section_state_space`` each)."""
    a_mat, b_vec, c_vec, d = np.zeros((0, 0)), np.zeros(0), np.zeros(0), 1.0
    for num, den in sections:
        a_sec, b_sec, c_sec, d_sec = _section_state_space(num, den)
        n, m = a_mat.shape[0], a_sec.shape[0]
        joined = np.zeros((n + m, n + m))
        joined[:n, :n] = a_mat
        joined[n:, :n] = np.outer(b_sec, c_vec)
        joined[n:, n:] = a_sec
        a_mat = joined
        b_vec = np.concatenate((b_vec, b_sec * d))
        c_vec = np.concatenate((d_sec * c_vec, c_sec))
        d = d_sec * d
    return a_mat, b_vec, c_vec, d


def _section_state_space(num, den):
    """(A, B, C, D) of one section num/den, num no longer than den.

    A biquad with complex poles sigma +- i omega takes the normal form
    A = [[sigma, -omega], [omega, sigma]]: its powers stay bounded by the
    pole radius, where those of the companion form grow like 1/omega and
    the block products cancel (an error of 1e-11 of the output against
    2e-15 on the two-band filter's 800-1200 Hz branch).  omega^2 =
    a2 - sigma^2 is taken with sigma^2 split exactly (Veltkamp), as the
    difference cancels near z = 1.  Other sections take transposed direct
    form II.
    """
    den = np.asarray(den, dtype=float)
    m = den.size - 1
    num = np.pad(np.asarray(num, dtype=float), (0, m + 1 - len(num))) / den[0]
    den = den / den[0]
    tail = num[1:] - den[1:] * num[0]
    if m == 2:
        sigma = -0.5 * den[1]
        split = 134217729.0 * sigma  # 2^27 + 1
        hi = split - (split - sigma)
        lo = sigma - hi
        omega2 = ((den[2] - hi * hi) - 2.0 * hi * lo) - lo * lo
        if omega2 > 0.0:
            omega = np.sqrt(omega2)
            return (np.array([[sigma, -omega], [omega, sigma]]),
                    np.array([1.0, 0.0]),
                    np.array([tail[0], (tail[1] + sigma * tail[0]) / omega]),
                    num[0])
    c_sec = np.eye(1, m)[0]
    return np.eye(m, k=1) - np.outer(den[1:], c_sec), tail, c_sec, num[0]


def _band_branch(order: int, lo: float, hi: float, fs_hz: float):
    """One Butterworth branch as a biquad cascade: a lowpass for a band at
    dc, else a bandpass of the same total order.

    The analog prototype's poles are moved to the prewarped band (at the
    internal rate 2, as scipy.signal.butter does) and through the bilinear
    map; a lowpass has its zeros at z = -1, a bandpass half of them at
    z = 1."""
    half = order if lo == 0.0 else order // 2
    proto = -np.exp(1j * np.pi * np.arange(-half + 1, half, 2) / (2 * half))
    warped = 4.0 * np.tan(np.pi * (2.0 * np.array([lo, hi]) / fs_hz) / 2.0)
    if lo == 0.0:
        poles = warped[1] * proto
        gain = warped[1] ** half
        zeros = -np.ones(half)
        at_four = 1.0
    else:
        bw = warped[1] - warped[0]
        centre = np.sqrt(warped[0] * warped[1])
        scaled = proto * bw / 2.0
        root = np.sqrt(scaled**2 - centre**2)
        poles = np.concatenate((scaled + root, scaled - root))
        gain = bw ** half
        zeros = np.concatenate((-np.ones(half), np.ones(half)))
        at_four = 4.0 ** half
    gain *= (at_four / np.prod(4.0 - poles)).real
    return _pair_sections((4.0 + poles) / (4.0 - poles), zeros, gain)


def _pair_sections(poles, zeros, gain):
    """Second-order sections from conjugate-closed poles and real zeros,
    paired and ordered as scipy.signal.zpk2sos does: the pole nearest the
    unit circle takes the last section and the two zeros nearest it.  A real
    pole takes the next such real pole; an odd one is padded with z = 0 and
    a zero there.  The gain scales the first section."""
    tol = 100 * np.finfo(float).eps
    real = np.abs(poles.imag) <= tol * np.abs(poles)
    reals = poles[real].real
    if reals.size % 2:
        reals, zeros = np.append(reals, 0.0), np.append(zeros, 0.0)
    upper = poles[~real & (poles.imag > 0)]
    upper = upper[np.lexsort((upper.imag, upper.real))]
    left = np.concatenate((upper, np.sort(reals)))
    zeros = np.sort(zeros)
    sections = []
    while left.size:
        worst = int(np.argmin(np.abs(1.0 - np.abs(left))))
        p1 = left[worst]
        left = np.delete(left, worst)
        if p1.imag == 0.0:
            is_real = left.imag == 0.0
            other = np.flatnonzero(is_real)[
                np.argmin(np.abs(1.0 - np.abs(left[is_real])))]
            p2 = left[other].real
            left = np.delete(left, other)
            den = (1.0, -(p1.real + p2), p1.real * p2)
        else:
            den = (1.0, -2.0 * p1.real, p1.real**2 + p1.imag**2)
        near = np.argsort(np.abs(zeros - p1))[:2]
        z1, z2 = zeros[near]
        zeros = np.delete(zeros, near)
        sections.insert(0, [(1.0, -(z1 + z2), z1 * z2), den])
    sections[0][0] = tuple(gain * c for c in sections[0][0])
    return tuple(tuple(sec) for sec in sections)


@functools.lru_cache(maxsize=CACHE_SIZE)
def design_filter(spec: FilterSpec) -> RationalFilter:
    """Build the stable rational filter described by a FilterSpec: one
    Butterworth branch per band, or one section for an explicit filter.
    Equal specs share one filter (``CACHE_SIZE``)."""
    if spec.kind == "explicit_rational":
        return RationalFilter.from_polynomials(spec.num, spec.den)
    if spec.kind == "explicit_impulse":
        return RationalFilter.from_polynomials(spec.impulse, (1.0,))
    return RationalFilter(branches=tuple(
        _band_branch(spec.order, lo, hi, spec.fs_hz) for lo, hi in spec.bands_hz))


@functools.lru_cache(maxsize=CACHE_SIZE)
def impulse_response(filt: RationalFilter) -> ImpulseResponse:
    """Truncate the impulse response at the smallest M whose discarded tail
    energy is at most ``ENERGY_TOL`` times the total energy.  Equal filters
    share one response (``CACHE_SIZE``).

    Samples come from the filter's block operators (built once) run on a
    unit impulse; the window is extended until it passes every numerator tap
    and the geometric bound of the filter's ``pole_radius`` certifies that
    the energy beyond it is negligible against the tolerance.
    """
    radius = filt.pole_radius
    # the 16-sample tail probe says nothing until it lies past every numerator tap
    reach = max(sum(len(b) - 1 for b, _ in branch) for branch in filt.branches)
    operators = _filter_operators(filt)
    n = 1024
    while True:
        if n > reach + 16:
            impulse = np.zeros(n)
            impulse[0] = 1.0
            h = _run_filter(operators, impulse)
            total = float(np.dot(h, h))
            if total == 0.0:
                return ImpulseResponse(samples=h[:1], tail_energy_fraction=0.0)
            # energy beyond the window, bounded by the geometric decay of the tail
            if radius == 0.0:
                beyond = 0.0
            else:
                r2 = radius * radius
                tail_amp = float(np.max(np.abs(h[-16:])))
                beyond = tail_amp * tail_amp * r2 / (1.0 - r2) * 16.0
            if beyond <= 0.01 * ENERGY_TOL * total:
                tail = np.concatenate((np.cumsum(h[::-1] ** 2)[::-1][1:], [0.0]))
                tail += beyond
                ok = np.nonzero(tail <= ENERGY_TOL * total)[0]
                if ok.size:
                    m = int(ok[0])
                    return ImpulseResponse(
                        samples=h[: m + 1],
                        tail_energy_fraction=float(tail[m] / total))
        if n >= TRUNCATION_HARD_CAP:
            raise TruncationOverflowError(
                f"truncation needs more than {TRUNCATION_HARD_CAP} samples"
            )
        n = min(4 * n, TRUNCATION_HARD_CAP)


def frequency_response(num, den, grid: FrequencyGrid) -> np.ndarray:
    """Evaluate num(z^-1)/den(z^-1) at z = e^{i omega} over the grid; an FIR
    denominator (1.0,) is not evaluated."""
    zinv = grid.zinv
    if len(den) == 1 and den[0] == 1.0:
        return _polyval_zinv(num, zinv)
    denv = _polyval_zinv(den, zinv)
    bad = np.abs(denv) < 1e-14
    if np.any(bad):
        w_bad = grid.omegas[np.argmax(bad)]
        raise EvaluationError(f"denominator magnitude < 1e-14 at omega={w_bad:.6g}")
    return _polyval_zinv(num, zinv) / denv


def polynomial_roots(coeffs) -> np.ndarray:
    """Roots via companion-matrix eigenvalues, with a residual sanity check."""
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0 or not np.any(c):
        raise InvalidSpecError("all-zero polynomial has no defined roots")
    c = np.trim_zeros(c, "f")
    if c.size == 1:
        return np.zeros(0, dtype=complex)
    roots = np.roots(c)
    # residual |p(r)| against the coefficient scale at the root's magnitude,
    # by Horner's rule over all roots at once; the magnitude is floored at 1
    # so roots collapsing to zero keep a scale
    value = np.zeros_like(roots)
    for coeff in c:
        value = value * roots + coeff
    resid = np.abs(value)
    powers = np.maximum(1.0, np.abs(roots))[:, None] ** np.arange(c.size - 1, -1, -1)
    scale = powers @ np.abs(c)
    bad = np.flatnonzero(resid > 1e-8 * np.maximum(scale, 1e-300))
    if bad.size:
        k = bad[0]
        raise ConditioningError(
            f"root {roots[k]:.6g} has residual {resid[k]:.3e}, beyond 1e-8 "
            f"of scale {scale[k]:.3e}"
        )
    return roots


def settling_length(response: ImpulseResponse) -> int:
    """Samples after which the impulse response holds 99% of its energy."""
    h = response.samples
    energy = np.cumsum(h * h)
    total = energy[-1]
    if total == 0.0:
        return 1
    idx = int(np.searchsorted(energy, 0.99 * total))
    return max(1, idx)
