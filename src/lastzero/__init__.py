"""Numerics for stopping as close as possible to the last visit to zero.

For a spectrally negative Levy process drifting to +infinity, the time g
of the last visit to the negative half-line is not a stopping time; the
best one can do with a stopping rule is minimise the expected distance
E|g - tau|.  The minimiser is the first passage over a threshold a*, the
median of a two-fold convolution built from the scale function.  This
package computes the threshold, the value function, and the associated
identities for three concrete families (Brownian motion with drift, the
classical risk process, and a heavy-tailed one-parameter family), and
checks them against exact path simulation.
"""

from .convolution import ConvolutionTable, build_table, conv_cdf
from .mc import (
    McConfig,
    McReport,
    PathEvents,
    estimate_expected_g,
    estimate_laplace_g,
    estimate_mean_abs_error,
    estimate_mean_abs_error_grid,
    estimate_passage_time,
    estimate_value,
    infimum_pair_sum_median,
    ks_critical,
    ks_statistic,
    sample_infimum,
    sample_path_events,
    simulate_paths,
)
from .models import (
    BetaFamily,
    BrownianDrift,
    CramerLundberg,
    LevyModel,
    ModelProfile,
    Variation,
    model_from_dict,
)
from .scale import ScaleEvaluator
from .stopping import (
    OptimalRule,
    Regime,
    ValueCurve,
    V_a_at,
    V_at,
    V_prime_at,
    build_value_curve,
    expected_g,
    expected_tau_plus,
    laplace_g_brownian,
    solve,
    solve_a_star,
)

__version__ = "0.1.0"

__all__ = [
    "BetaFamily",
    "BrownianDrift",
    "ConvolutionTable",
    "CramerLundberg",
    "LevyModel",
    "McConfig",
    "McReport",
    "ModelProfile",
    "PathEvents",
    "OptimalRule",
    "Regime",
    "ScaleEvaluator",
    "ValueCurve",
    "Variation",
    "V_a_at",
    "V_at",
    "V_prime_at",
    "build_table",
    "build_value_curve",
    "conv_cdf",
    "estimate_expected_g",
    "estimate_laplace_g",
    "estimate_mean_abs_error",
    "estimate_mean_abs_error_grid",
    "estimate_passage_time",
    "estimate_value",
    "expected_g",
    "expected_tau_plus",
    "infimum_pair_sum_median",
    "ks_critical",
    "ks_statistic",
    "laplace_g_brownian",
    "model_from_dict",
    "sample_infimum",
    "sample_path_events",
    "simulate_paths",
    "solve",
    "solve_a_star",
    "__version__",
]
