"""Monte-Carlo laboratory for Gaussian small-deviation behaviour.

The package measures three families of objects against each other and
against closed forms where they exist: centered small-ball curves, their
randomly-centered counterparts summarized into gauges, and random-codebook
quantization errors whose scaling the inverted gauge predicts. A fourth
corner estimates the limiting constants of the curves from horizon or
radius scaling. Everything stochastic is keyed off explicit random streams,
so results are reproducible bit for bit regardless of worker count.
"""
from .constants import (
    ConstantEstimate,
    FlowShift,
    FreeStartEstimate,
    SubadditiveSeries,
    constant_from_soft_rate,
    dirichlet_eigenvalue,
    estimate_constant,
    exit_time_eigenvalue,
    lambda_hard,
    lambda_soft,
    soft_functional,
    tilde_rsbf,
    unit_tube_cost,
)
from .errors import (
    ConfigurationError,
    DataError,
    DiagnosticError,
    DomainError,
    LadderError,
    PowerWarning,
    RangeError,
    ShapeError,
    SmallballError,
)
from .estimators import (
    ProbEstimate,
    RichardsonFit,
    SBFCurve,
    ball_prob_mc,
    ball_prob_splitting,
    make_ladder,
    pilot_curve,
    richardson_extrapolate,
    sbf_analytic,
    sbf_curve,
)
from .models import (
    BrownianBridge,
    FiniteSpectrum,
    GaussianModel,
    Scalar,
    WienerPath,
    parse_model,
    rkhs_norm,
)
from .norms import (
    NormSpec,
    eval_norm_batch,
    parse_norm,
)
from .quantization import (
    Codebook,
    CoverageRate,
    InverseGauge,
    QuantizationResult,
    build_codebook,
    coverage_event_rate,
    distortion,
    invert_gauge,
    sample_nearest,
    target_size,
    verify_distortion_gauge_match,
)
from .rsbf import (
    CheckRow,
    GaugeCurve,
    Report,
    RSBFSample,
    VerifierConfig,
    abs_moment_norm,
    certify_membership,
    check_doubling,
    dispersion_trend,
    gauge_stats,
    lipschitz_probe,
    mean_median_trend,
    moment_upper_bound,
    sample_rsbf,
    shift_inequality_check,
    verify_enclosure,
    verify_enlarged_ball,
    verify_gauge_sandwich,
)
from .streams import RandomStream, keyed_map, worker_count
from .transfer import (
    band_log_prob,
    band_log_prob_extrapolated,
    band_log_probs,
    band_log_profile,
)

__version__ = "0.1.0"

__all__ = [
    "BrownianBridge", "CheckRow", "Codebook", "ConfigurationError",
    "ConstantEstimate", "CoverageRate", "DataError", "DiagnosticError",
    "DomainError", "FiniteSpectrum", "FlowShift", "FreeStartEstimate",
    "GaugeCurve", "GaussianModel", "InverseGauge", "LadderError", "NormSpec",
    "PowerWarning", "ProbEstimate", "QuantizationResult", "RSBFSample",
    "RandomStream", "RangeError", "Report", "RichardsonFit", "SBFCurve",
    "Scalar", "ShapeError", "SmallballError", "SubadditiveSeries",
    "VerifierConfig", "WienerPath", "abs_moment_norm", "ball_prob_mc",
    "ball_prob_splitting", "band_log_prob", "band_log_prob_extrapolated",
    "band_log_probs", "band_log_profile", "build_codebook", "certify_membership",
    "check_doubling", "constant_from_soft_rate",
    "coverage_event_rate", "dirichlet_eigenvalue", "dispersion_trend",
    "distortion", "estimate_constant", "eval_norm_batch",
    "exit_time_eigenvalue", "gauge_stats", "invert_gauge", "keyed_map",
    "lambda_hard", "lambda_soft", "lipschitz_probe", "make_ladder",
    "mean_median_trend", "moment_upper_bound", "parse_model", "parse_norm",
    "pilot_curve", "richardson_extrapolate", "rkhs_norm", "sample_nearest",
    "sample_rsbf", "sbf_analytic", "sbf_curve",
    "shift_inequality_check", "soft_functional",
    "target_size", "tilde_rsbf", "unit_tube_cost", "verify_distortion_gauge_match",
    "verify_enclosure", "verify_enlarged_ball",
    "verify_gauge_sandwich", "worker_count",
]
