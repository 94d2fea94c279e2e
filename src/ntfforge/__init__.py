"""Output-filter-aware FIR noise-transfer-function design for delta-sigma
modulators, with gain-bound verification and nonlinear loop simulation."""

from .design import DesignSpec, DesignResult, EvaluationReport, evaluate_ntf, run_design, sweep_orders
from .errors import (
    BoundViolationError,
    ConditioningError,
    DegenerateFilterError,
    EvaluationError,
    InvalidSpecError,
    NtfForgeError,
    SolverError,
    TruncationOverflowError,
)
from .filters import (
    FilterSpec,
    FrequencyGrid,
    ImpulseResponse,
    RationalFilter,
    design_filter,
    frequency_response,
    impulse_response,
    polynomial_roots,
)
from .kyp import (
    BoundedRealCertificate,
    LmiSystem,
    assemble_lmi,
    grid_gain_max,
    verify_bounded_real,
)
from .modsim import (
    ModTrace,
    NtfFir,
    Quantizer,
    expected_snr,
    make_test_signal,
    measure_snr,
    simulate,
)
from .objective import (
    NoiseBudget,
    build_q_matrix,
    merit_integrand,
    reduce_objective,
    sigma2_h,
)
from .sdp import SdpProblem, SdpSolution, SolverSettings, solve

__version__ = "0.1.0"
