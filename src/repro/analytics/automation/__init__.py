"""Automated model selection: the AutoCTS family reproduced as search
over a joint architecture/hyperparameter space."""

from ... import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "search": (
        "EvolutionarySearch", "RandomSearch", "SearchResult",
        "SuccessiveHalving", "evaluate_config",
    ),
    "search_space": ("SearchSpace", "build_forecaster"),
    "zero_shot": ("ZeroShotSelector", "dataset_meta_features"),
})
