"""Short-term building energy consumption forecasting toolkit."""

from .blend import EnsembleWeights, fit_weights, predict_blend, predict_blend_many
from .ensembles import (
    ForestConfig,
    ForestModel,
    GbtConfig,
    GbtModel,
    dump_model,
    fit_forest,
    fit_gbt,
    load_model,
    predict_forest,
    predict_gbt,
)
from .errors import (
    ConfigError,
    DataError,
    InvariantError,
    LoadcastError,
    SchemaError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    emit_week_series,
    run_experiment,
)
from .features import (
    FeatureVector,
    Sample,
    build_samples,
    extract_features,
    feature_matrix,
    feature_names,
)
from .metrics import MetricsReport, compare_models, compute_metrics
from .readings import (
    AggregatedRecord,
    Granularity,
    Readings,
    aggregate,
    interpolate_nulls,
    parse_readings,
)
from .scaling import Scaler, apply_scaler, fit_scaler
from .splitting import SplitSpec, split
from .synthetic import SyntheticSpec, generate_synthetic
from .tree import (
    RegressionTree,
    SplitCandidate,
    TreeConfig,
    best_split,
    dump_tree,
    fit_tree,
    load_tree,
    predict_tree,
)

__version__ = "0.1.0"
