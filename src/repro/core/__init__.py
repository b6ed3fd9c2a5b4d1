"""RegHD core: the paper's primary contribution.

Single-model regression (Sec. 2.3), multi-model regression with run-time
clustering (Sec. 2.4), the Section-3 quantisation framework, the
Baseline-HD comparator, and the hypervector capacity analysis.
"""

from repro.core.baseline_hd import BaselineHD
from repro.core.classifier import HDClassifier
from repro.core.capacity import (
    capacity,
    empirical_false_positive_rate,
    empirical_true_positive_rate,
    false_positive_probability,
    true_positive_probability,
)
from repro.core.config import (
    ConvergencePolicy,
    RegHDConfig,
    derive_shard_seed,
)
from repro.core.delta import (
    DeltaRecorder,
    ModelDelta,
    TargetMoments,
    merge_deltas,
    merge_moments,
)
from repro.core.ensemble import RegHDEnsemble
from repro.core.estimator import (
    BaseEstimator,
    BaseRegHDEstimator,
    EncodedBatch,
    TargetScaler,
)
from repro.core.multi import MultiModelRegHD
from repro.core.multioutput import MultiOutputRegHD
from repro.core.quantization import (
    ClusterQuant,
    DualCopy,
    PredictQuant,
    binarize_preserving_scale,
)
from repro.core.single import SingleModelRegHD
from repro.core.sparsify import (
    apply_sparsity,
    density_of,
    fine_tune_sparse,
    sparsify_rows,
)
from repro.core.trainer import (
    EpochRecord,
    IterativeTrainer,
    TrainingHistory,
)

__all__ = [
    "BaselineHD",
    "HDClassifier",
    "capacity",
    "empirical_false_positive_rate",
    "empirical_true_positive_rate",
    "false_positive_probability",
    "true_positive_probability",
    "ConvergencePolicy",
    "RegHDConfig",
    "derive_shard_seed",
    "DeltaRecorder",
    "ModelDelta",
    "TargetMoments",
    "merge_deltas",
    "merge_moments",
    "RegHDEnsemble",
    "BaseEstimator",
    "BaseRegHDEstimator",
    "EncodedBatch",
    "TargetScaler",
    "MultiModelRegHD",
    "MultiOutputRegHD",
    "ClusterQuant",
    "DualCopy",
    "PredictQuant",
    "binarize_preserving_scale",
    "apply_sparsity",
    "density_of",
    "fine_tune_sparse",
    "sparsify_rows",
    "SingleModelRegHD",
    "EpochRecord",
    "IterativeTrainer",
    "TrainingHistory",
]
