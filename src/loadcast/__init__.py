"""Short-term building energy consumption forecasting toolkit.

The public names below are imported from their modules when first read
(PEP 562), so `import loadcast` and a command that needs few modules, such
as `loadcast synth`, load no more than they use.
"""

import importlib

_PUBLIC = {
    "blend": ("EnsembleWeights", "fit_weights", "predict_blend_many"),
    "ensembles": (
        "ForestConfig",
        "ForestModel",
        "GbtConfig",
        "GbtModel",
        "dump_model",
        "fit_forest",
        "fit_gbt",
        "load_model",
    ),
    "errors": (
        "ConfigError",
        "DataError",
        "InvariantError",
        "LoadcastError",
        "SchemaError",
    ),
    "experiment": ("ExperimentConfig", "ExperimentResult", "run_experiment"),
    "features": ("Samples", "build_samples", "calendar_features"),
    "metrics": ("MetricsReport", "compare_models", "compute_metrics"),
    "readings": (
        "Granularity",
        "Readings",
        "aggregate",
        "interpolate_nulls",
        "parse_readings",
    ),
    "splitting": ("SplitSpec", "split"),
    "synthetic": ("SyntheticSpec", "generate_synthetic"),
    "tree": (
        "RegressionTree",
        "SplitCandidate",
        "TreeConfig",
        "best_split",
        "dump_tree",
        "fit_tree",
        "load_tree",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
