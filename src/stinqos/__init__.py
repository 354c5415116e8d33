"""Statistical QoS metrics for satellite-terrestrial links under finite
blocklength coding: peak-AoI and delay violation bounds from Mellin-transform
network calculus, error-rate QoS exponents, and the Monte Carlo simulators
that cross-validate them.
"""

__version__ = "0.1.0"  # the one version source; pyproject.toml repeats it

from .aoi import (
    ArrivalModel,
    ServiceModel,
    trace_blocks,
    trace_violation_frequency,
    update_blocks,
)
from .channel import (
    InterfererField,
    LinkBudget,
    Scenario,
    ShadowedRicianParams,
    pathloss_factor,
    place_interferers,
    sample_channel_gain,
    shadowed_rician_pdf,
    sinr,
)
from .errors import (
    ConfigError,
    DomainError,
    NumericError,
    StabilityError,
    StinQosError,
)
from .fbc import (
    CodingSpec,
    ErrorModel,
    average_error,
    conditional_error,
    error_exponent,
    error_exponent_closed_form,
    q_function,
)
from .experiments import SweepSpec, default_scenario, run_sweep
from .reports import QoSReport
from .snc import (
    BitArrival,
    delay_bound,
    optimize_paoi_bound,
    paoi_bound,
    stability_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
