"""Statistical QoS metrics for satellite-terrestrial links under finite
blocklength coding: peak-AoI and delay violation bounds from Mellin-transform
network calculus, error-rate QoS exponents, and the Monte Carlo simulators
that cross-validate them.

The public names below are resolved on first access, so ``import stinqos``
loads no submodule and each command of the CLI loads only the layers it runs.
"""

__version__ = "0.1.0"  # the one version source; pyproject.toml repeats it

# The public names of each submodule; the submodules are public names too
_NAMES = {
    "aoi": ("ArrivalModel", "ServiceModel", "trace_blocks",
            "trace_violation_frequency", "update_blocks"),
    "channel": ("InterfererField", "LinkBudget", "Scenario", "ShadowedRicianParams",
                "default_scenario", "pathloss_factor", "place_interferers",
                "shadowed_rician_pdf", "sinr"),
    "errors": ("ConfigError", "DomainError", "NumericError", "StabilityError",
               "StinQosError"),
    "experiments": ("SweepSpec", "run_sweep"),
    "fbc": ("CodingSpec", "ErrorModel", "average_error", "conditional_error",
            "error_exponent", "error_exponent_closed_form", "q_function"),
    "optimize": (),
    "snc": ("BitArrival", "QoSReport", "delay_bound", "optimize_paoi_bound",
            "paoi_bound", "stability_check"),
}
# The submodule of each public name that is not a submodule itself
_SOURCE = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted([*_NAMES, *_SOURCE])


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_SOURCE.get(name, name)}")
    value = getattr(module, name) if name in _SOURCE else module
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
