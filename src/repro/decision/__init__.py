"""Data-driven decision making (paper Sec. II-D): decision making under
uncertainty, multi-objective, personalized, and learning-based
strategies, plus the scheduling and maintenance scenarios."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "ecodriving": ("EcoDrivingPlanner", "FuelModel"),
    "imitation": ("ImitationRouter",),
    "maintenance": (
        "PeriodicPolicy", "PredictivePolicy", "RunToFailurePolicy",
        "degradation_process", "simulate_maintenance",
    ),
    "pareto": (
        "SkylineRouter", "dominates", "pareto_front", "scalarize",
        "stochastic_pareto_front",
    ),
    "preference": ("ContextualPreferenceModel",),
    "reduction": (
        "Reduction", "dtw_band_matrix", "fan_chart", "rank_plot",
        "reduce_scenarios", "wasserstein_distance", "wasserstein_matrix",
    ),
    "routing": ("StochasticRouter",),
    "scheduling": (
        "FixedScaler", "PredictiveScaler", "ReactiveScaler",
        "simulate_scaling",
    ),
    "stochastic": (
        "dominance_prune", "first_order_dominates", "second_order_dominates",
        "select_best",
    ),
    "utility": (
        "DeadlineUtility", "RiskAverseUtility", "RiskNeutralUtility",
        "RiskSeekingUtility", "UtilityFunction", "certainty_equivalent",
        "expected_utility",
    ),
})
