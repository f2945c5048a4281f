"""Maximum-confidence detection of weak magnetic fields with NV-center sensors."""

from .channel import (
    StatePair,
    SwitchingFunction,
    build_state_pair,
    cpmg_switching,
    dephasing_integral,
    free_decay,
    mu_cpmg,
    mu_static,
    nu_ensemble_cpmg,
    nu_ou,
    nu_stretched,
)
from .dilation import Dilation, decompose_two_level, dilate_povm
from .discrim import (
    McSolution,
    Povm,
    ThresholdResult,
    achieved_confidences,
    conditional_error,
    grid_search_povm,
    min_error_probability,
    min_error_projectors,
    solve_max_confidence,
    threshold_inconclusive,
)
from .noise_sim import (
    ClickTally,
    OuParams,
    empirical_confidence,
    empirical_dephasing,
    ou_trajectory,
    simulate_clicks,
)
from .sweep import SweepConfig, SweepRow, load_config, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ClickTally",
    "Dilation",
    "McSolution",
    "OuParams",
    "Povm",
    "StatePair",
    "SweepConfig",
    "SweepRow",
    "SwitchingFunction",
    "ThresholdResult",
    "achieved_confidences",
    "build_state_pair",
    "conditional_error",
    "cpmg_switching",
    "decompose_two_level",
    "dephasing_integral",
    "dilate_povm",
    "empirical_confidence",
    "empirical_dephasing",
    "free_decay",
    "grid_search_povm",
    "load_config",
    "min_error_probability",
    "min_error_projectors",
    "mu_cpmg",
    "mu_static",
    "nu_ensemble_cpmg",
    "nu_ou",
    "nu_stretched",
    "ou_trajectory",
    "run_sweep",
    "simulate_clicks",
    "solve_max_confidence",
    "threshold_inconclusive",
]
