"""Short-term building energy consumption forecasting toolkit."""

from .blend import EnsembleWeights, fit_weights, predict_blend_many
from .ensembles import (
    ForestConfig,
    ForestModel,
    GbtConfig,
    GbtModel,
    dump_model,
    fit_forest,
    fit_gbt,
    load_model,
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
    run_experiment,
)
from .features import Samples, build_samples, calendar_features
from .metrics import MetricsReport, compare_models, compute_metrics
from .readings import (
    Granularity,
    Readings,
    aggregate,
    interpolate_nulls,
    parse_readings,
)
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
)

__version__ = "0.1.0"
