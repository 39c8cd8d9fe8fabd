"""halfstrip: recurrence classification and Monte Carlo validation for
label-modulated random walks on R+ x S with asymptotically vanishing mean
drift.

The analytic pipeline (exact kernel moments -> asymptotic coefficients ->
drift-eliminating transformation -> verdict and passage-time moment
thresholds) is matched by a reproducible simulation engine so every verdict
can be checked empirically from one CLI entry point.
"""

from .classify import (
    Classification,
    DegenerateVarianceError,
    LampertiCoefficients,
    MomentReport,
    Verdict,
    WrongRegimeError,
    classify_constant,
    classify_generalized,
    classify_lamperti,
    compute_uv,
    moment_threshold,
    transform_generalized,
)
from .drift import (
    DEFAULT_GRID,
    AsymptoticCoefficients,
    PointMoments,
    RegimeTag,
    check_regime,
    fit_asymptotics,
    point_moments,
)
from .lyapunov import (
    LyapunovSpec,
    choose_b,
    expected_f_increment,
    f_nu,
    lyapunov_spec,
    verify_drift_estimate,
)
from .markov import (
    NonCenteredError,
    PoissonSolution,
    ReducibleMatrixError,
    StationaryDistribution,
    StochasticMatrix,
    WrongSignError,
    is_irreducible,
    solve_poisson,
    solve_strict_drift,
    stationary_distribution,
)
from .model import (
    Atom,
    ChainModel,
    IncrementDistribution,
    ModelSpecError,
    State,
    ValidationReport,
    make_crw,
    make_tabular,
    model_from_spec,
    shift_model,
    validate_model,
)
from .sim import (
    DiagnosticReport,
    EstimationError,
    PassageSample,
    TailEstimate,
    Trajectory,
    empirical_moment,
    recurrence_diagnostic,
    sample_passage_times,
    simulate,
    step_frequencies,
    tail_exponent,
    write_samples_csv,
)

__version__ = "0.1.0"
