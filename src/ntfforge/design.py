"""End-to-end design pipeline: filter -> objective -> LMI -> SDP -> NTF."""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidSpecError, SolverError, spec_int
from .filters import (
    CACHE_SIZE,
    FilterSpec,
    FrequencyGrid,
    RationalFilter,
    design_filter,
    frequency_response,  # unused here; perfbench/tracing.py wraps it by name
    impulse_response,
    polynomial_roots,
)
from .kyp import (
    GRID_SLACK,
    BoundedRealCertificate,
    assemble_lmi,
    grid_gain_max,
    verify_bounded_real,
)
from .modsim import NtfFir, Quantizer, expected_snr, make_test_signal, measure_snr, simulate
from .objective import NoiseBudget, build_q_matrix, noise_floor, noise_gain, reduce_objective
from .objective import sigma2_h as quad_sigma2_h
from .sdp import SdpProblem, SdpSolution, SolverSettings, solve

log = logging.getLogger("ntfforge.design")

MAX_FIR_ORDER = 64
SIM_SAMPLES = 2**16  # evaluate_ntf's simulation length
DEFAULT_GRID_POINTS = 4096


@dataclass(frozen=True)
class DesignSpec:
    """Complete description of one NTF design task; the sample rate is the
    filter's, and ``grid_points`` sets the one frequency grid (``grid``) of
    its curves and quadratures."""

    filter_spec: FilterSpec
    fir_order: int
    gamma: float = 1.5
    quantizer_levels: tuple = (-1.0, 1.0)
    solver: SolverSettings = field(default_factory=SolverSettings)
    grid_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if not (1 <= self.fir_order <= MAX_FIR_ORDER):
            raise InvalidSpecError(
                f"fir_order must be in [1, {MAX_FIR_ORDER}]"
            )
        # gamma * gamma is inf where gamma**2 raises OverflowError
        if not (1.0 < self.gamma and self.gamma * self.gamma < np.inf):
            raise InvalidSpecError(
                "gamma must exceed 1 (a flat NTF already has unit peak gain) "
                "and have a finite square")
        if self.grid_points < 2:
            raise InvalidSpecError("grid_points must be >= 2")
        object.__setattr__(self, "quantizer_levels",
                           Quantizer(levels=self.quantizer_levels).levels)

    @property
    def fs_hz(self) -> float:
        return self.filter_spec.fs_hz

    @property
    def quantizer(self) -> Quantizer:
        return Quantizer(levels=self.quantizer_levels)

    @property
    def budget(self) -> NoiseBudget:
        return NoiseBudget(delta=self.quantizer.delta)

    @functools.cached_property
    def grid(self) -> FrequencyGrid:
        return FrequencyGrid.uniform(self.grid_points)

    @classmethod
    def from_json_dict(cls, d: dict) -> "DesignSpec":
        """The top level gives the rate as ``fs_hz`` or as ``osr`` over the
        total band width; a filter-level ``fs_hz`` must equal it."""
        try:
            if "filter" not in d:
                raise InvalidSpecError("design spec needs a 'filter' object")
            fdict = dict(d["filter"])
            fs = d.get("fs_hz")
            if fs is None:
                osr = d.get("osr")
                if osr is None:
                    raise InvalidSpecError("give either fs_hz or osr")
                bands = fdict.get("bands_hz", ())
                width = sum(hi - lo for lo, hi in bands)
                if width <= 0:
                    raise InvalidSpecError("osr needs band edges with positive width")
                fs = 2.0 * float(osr) * width
            fs = float(fs)
            if float(fdict.setdefault("fs_hz", fs)) != fs:
                raise InvalidSpecError(
                    f"filter fs_hz {fdict['fs_hz']} differs from the design's "
                    f"sample rate {fs}")
            return cls(
                filter_spec=FilterSpec.from_json_dict(fdict),
                fir_order=spec_int(d.get("fir_order", 0), "fir_order"),
                gamma=float(d.get("gamma", 1.5)),
                quantizer_levels=d.get("quantizer_levels", (-1.0, 1.0)),
                solver=SolverSettings.from_json_dict(d.get("solver", {})),
                grid_points=spec_int(d.get("grid_points", DEFAULT_GRID_POINTS),
                                     "grid_points"),
            )
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidSpecError(f"malformed design spec: {exc}") from None


@dataclass(frozen=True)
class DesignResult:
    """Designed NTF with its certificate and the solve diagnostics."""

    ntf: NtfFir
    sigma2_h: float
    certificate: BoundedRealCertificate
    solution: SdpSolution
    filt: RationalFilter
    spec: DesignSpec

    @property
    def sigma_h(self) -> float:
        return float(np.sqrt(self.sigma2_h))

    def to_json_dict(self) -> dict:
        return {
            "a": [float(v) for v in self.ntf.coeffs],
            "gamma": self.spec.gamma,
            "sigma2_h": self.sigma2_h,
            "certificate": self.certificate.to_json_dict(),
            "fs_hz": self.spec.fs_hz,
            "order": self.ntf.order,
            "status": self.solution.status,
        }


def certificate_from_solution(solution: SdpSolution,
                              gamma: float) -> BoundedRealCertificate:
    """The gain-bound certificate of the solver's own coefficients and
    certificate matrix; raises BoundViolationError when it fails."""
    return verify_bounded_real(solution.ntf_coeffs, gamma, solution.p_matrix)


@functools.lru_cache(maxsize=CACHE_SIZE)
def design_floor(filt: RationalFilter, gamma: float) -> float:
    """f_inf of a filter's truncated response at gamma (``noise_floor``);
    the designs of an order sweep share one value (``CACHE_SIZE``)."""
    return noise_floor(impulse_response(filt), gamma)


def run_design(spec: DesignSpec) -> DesignResult:
    """Design the FIR NTF that minimizes the filtered quantization noise.

    Raises BoundViolationError when the solver's certificate does not prove
    the gain bound, or the dense grid sees the gain above gamma.
    """
    filt = design_filter(spec.filter_spec)
    h = impulse_response(filt)
    q = build_q_matrix(h, spec.fir_order)
    quadratic, linear, constant = reduce_objective(q)
    lmi = assemble_lmi(spec.fir_order, spec.gamma)
    problem = SdpProblem(quadratic=quadratic, linear=linear, lmi=lmi,
                         scale=design_floor(filt, spec.gamma),
                         constant=constant)
    solution = solve(problem, spec.solver)
    if solution.status != "optimal":
        res = solution.kkt_residuals
        raise SolverError(
            f"design solve ended with status {solution.status!r} after "
            f"{solution.iterations} iterations: relative gap "
            f"{res['rel_gap']:.3e}, primal residual "
            f"{res['primal_residual']:.3e}, dual residual "
            f"{res['dual_residual']:.3e}",
            iterations=solution.iterations,
            runtime_seconds=solution.runtime_seconds)
    sigma2 = spec.budget.sigma2_eps * noise_gain(h, solution.ntf_coeffs)
    cert = certificate_from_solution(solution, spec.gamma)
    log.info("designed order %d: sigma_h=%.6e grid max %.6f (%.2fs)",
             spec.fir_order, np.sqrt(sigma2), cert.grid_max,
             solution.runtime_seconds)
    return DesignResult(ntf=NtfFir(coeffs=solution.ntf_coeffs),
                        sigma2_h=float(sigma2), certificate=cert,
                        solution=solution, filt=filt, spec=spec)


@dataclass(frozen=True)
class EvaluationReport:
    """Everything measured about one designed (or supplied) NTF."""

    ntf_coeffs: tuple
    sigma2_h: float
    expected_snr_db: float
    simulated_snr_db: float
    grid_max_ntf: float
    gamma: float
    certificate: dict
    ntf_zeros: tuple
    runtime_seconds: float
    overloaded: bool
    amplitude: float

    @property
    def passed(self) -> bool:
        return (self.grid_max_ntf <= self.gamma * (1.0 + GRID_SLACK)
                and not self.overloaded)

    def to_json_dict(self) -> dict:
        simulated = self.simulated_snr_db
        return {
            "ntf_coeffs": list(self.ntf_coeffs),
            "sigma2_h": self.sigma2_h,
            "expected_snr_db": self.expected_snr_db,
            "simulated_snr_db": simulated if np.isfinite(simulated) else None,
            "grid_max_ntf": self.grid_max_ntf,
            "gamma": self.gamma,
            "certificate": self.certificate,
            "ntf_zeros": [[z.real, z.imag] for z in self.ntf_zeros],
            "runtime_seconds": self.runtime_seconds,
            "overloaded": self.overloaded,
            "amplitude": self.amplitude,
            "pass": self.passed,
        }


def default_tone_freqs(spec: DesignSpec):
    """One coherent tone per filter band, at the band midpoint."""
    bands = spec.filter_spec.bands_hz
    if not bands:
        return (spec.fs_hz / 8.0,)
    return tuple((lo + hi) / 2.0 if lo > 0 else hi / 2.0 for lo, hi in bands)


def evaluate_ntf(ntf, spec: DesignSpec, amplitude: float,
                 signal_kind: str = "multitone", freqs_hz=None,
                 certificate: dict | None = None) -> EvaluationReport:
    """Score an NTF against a design spec: noise power, SNRs, gain check.

    ``ntf`` is either an NtfFir or a (num, den) pair; a pair whose den is
    (1.0,) is an FIR NTF.  FIR noise powers are the energy of h * a
    (``noise_gain``, exactly reproducing the design-time value); rational
    ones are scored by quadrature on the spec's ``grid``.  Time-domain
    simulation runs for FIR NTFs only, over ``SIM_SAMPLES`` samples.  The
    spec's filter and its truncated impulse response are the ones its design
    built (``design_filter`` and ``impulse_response`` keep them).

    The test signal plays ``freqs_hz`` at ``amplitude``, and a sine or
    multitone given no tone one per filter band (``default_tone_freqs``);
    ``make_test_signal`` judges it, and the expected SNR reads its power.
    """
    t0 = time.perf_counter()
    filt = design_filter(spec.filter_spec)
    num, den = (ntf.coeffs, (1.0,)) if isinstance(ntf, NtfFir) else ntf
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    fir = NtfFir(coeffs=num) if den.size == 1 and den[0] == 1.0 else None
    if fir is not None:
        h = impulse_response(filt)
        sigma2 = spec.budget.sigma2_eps * noise_gain(h, fir.coeffs)
    else:
        sigma2 = quad_sigma2_h(num, den, filt, spec.budget, spec.grid)
    freqs = tuple(freqs_hz or ())
    if not freqs and signal_kind != "dc":
        freqs = default_tone_freqs(spec)
    # built for rational NTFs too, so that they meet the same signal rules
    w = make_test_signal(signal_kind, freqs, amplitude, spec.fs_hz,
                         SIM_SAMPLES)
    power = amplitude**2 if signal_kind == "dc" \
        else len(freqs) * amplitude**2 / 2.0
    expected_db = expected_snr(power, sigma2)
    simulated_db = float("nan")
    overloaded = False
    if fir is not None:
        trace = simulate(fir, w, spec.quantizer)
        simulated_db = measure_snr(trace, filt)
        overloaded = trace.overloaded
    zeros = polynomial_roots(num)
    grid_max = grid_gain_max(num, den=den)
    return EvaluationReport(
        ntf_coeffs=tuple(float(v) for v in num),
        sigma2_h=float(sigma2),
        expected_snr_db=expected_db,
        simulated_snr_db=simulated_db,
        grid_max_ntf=grid_max,
        gamma=spec.gamma,
        certificate=certificate or {},
        ntf_zeros=tuple(zeros),
        runtime_seconds=time.perf_counter() - t0,
        overloaded=overloaded,
        amplitude=amplitude,
    )


def sweep_orders(spec: DesignSpec, orders) -> list:
    """One design per order; failures are recorded and the sweep continues.

    Returns a list of dicts with keys order, sigma_h, runtime_seconds, status;
    a failed solve records its own runtime, other failures 0.
    """
    orders = list(orders)
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise InvalidSpecError("orders must be strictly ascending")
    rows = []
    for p in orders:
        row = {"order": p, "sigma_h": float("nan"),
               "runtime_seconds": 0.0, "status": "failed"}
        try:
            result = run_design(replace(spec, fir_order=p))
            row["sigma_h"] = result.sigma_h
            row["runtime_seconds"] = result.solution.runtime_seconds
            row["status"] = result.solution.status
        except Exception as exc:  # record and continue per the sweep contract
            row["status"] = f"failed: {exc}"
            if isinstance(exc, SolverError):
                row["runtime_seconds"] = exc.runtime_seconds
            log.warning("order %d failed: %s", p, exc)
        rows.append(row)
    return rows
