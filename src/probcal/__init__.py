"""Post-hoc multiclass probability calibration.

Dirichlet calibration maps (three equivalent parametrizations with exact
conversions), logit-space temperature/vector/matrix scaling, one-vs-rest
binary calibrators (isotonic, binning, beta), calibration metrics with
reliability diagrams, a resampling significance test of calibration, and
a nested cross-validation comparison harness.
"""

from .core import (
    DEFAULT_CLIP_FLOOR,
    CalibrationDataset,
    clip_probabilities,
    log_transform,
    softmax,
)
from .dirichlet import (
    CanonicalParams,
    GenerativeParams,
    L2Config,
    LinearParams,
    OdirConfig,
    apply_canonical,
    apply_generative,
    apply_linear,
    from_generative,
    interpretation_points,
    to_canonical,
    to_generative,
)
from .dirichlet import fit as fit_dirichlet
from .dirichlet import objective_and_gradient
from .harness import HyperGrid, compare_methods, cross_val_fit, stratified_folds
from .metrics import (
    EvalReport,
    ReliabilityBins,
    accuracy,
    brier,
    classwise_ece,
    classwise_reliability,
    confidence_ece,
    confidence_reliability,
    confusion_delta,
    confusion_matrix,
    error_rate,
    evaluate,
    log_loss,
    mce,
)
from .models import CalibratorModel, EnsembleModel, fit_calibrator, model_from_dict
from .optim import OptimizationError, OptimResult, minimize
from .ovr import (
    BetaParams,
    BinningMap,
    IsotonicMap,
    OneVsRestModel,
    apply_ovr,
    fit_beta,
    fit_binning,
    fit_isotonic,
    fit_ovr,
)
from .scaling import (
    AffineLogitParams,
    TemperatureParams,
    apply_affine_logit,
    apply_temperature,
    fit_affine_logit,
    fit_temperature,
    temperature_as_dirichlet,
    zero_offdiagonal,
)
from .stattest import TestResult, acceptance_rate, calibration_test, counter_uniforms

__version__ = "0.1.0"
