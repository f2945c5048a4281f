"""Maximum-confidence detection of weak magnetic fields with NV-center sensors.

Names load on first use (PEP 562): ``import mcmag`` imports no submodule
and no numpy, ``mcmag.run_sweep`` or ``mcmag.sweep`` the module it names.
"""

import importlib

__version__ = "0.1.0"

#: Every public name and the submodule that defines it.
_MODULES = {
    "StatePair": "channel",
    "SwitchingFunction": "channel",
    "build_state_pair": "channel",
    "cpmg_switching": "channel",
    "dephasing_integral": "channel",
    "free_decay": "channel",
    "mu_cpmg": "channel",
    "mu_static": "channel",
    "nu_ensemble_cpmg": "channel",
    "nu_ou": "channel",
    "nu_stretched": "channel",
    "Dilation": "dilation",
    "decompose_two_level": "dilation",
    "dilate_povm": "dilation",
    "McSolution": "discrim",
    "Povm": "discrim",
    "ThresholdResult": "discrim",
    "achieved_confidences": "discrim",
    "conditional_error": "discrim",
    "grid_search_povm": "discrim",
    "min_error_probability": "discrim",
    "min_error_projectors": "discrim",
    "solve_max_confidence": "discrim",
    "threshold_inconclusive": "discrim",
    "ClickTally": "noise_sim",
    "OuParams": "noise_sim",
    "empirical_confidence": "noise_sim",
    "empirical_dephasing": "noise_sim",
    "ou_trajectory": "noise_sim",
    "simulate_clicks": "noise_sim",
    "SweepConfig": "sweep",
    "SweepRow": "sweep",
    "load_config": "sweep",
    "run_sweep": "sweep",
}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    """A public name from its submodule, or a submodule (``mcmag.sweep``)."""
    if name in _MODULES:
        value = getattr(importlib.import_module(f".{_MODULES[name]}", __name__), name)
        globals()[name] = value
        return value
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise  # a dependency of the submodule is missing
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES})
