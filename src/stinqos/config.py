"""Run-configuration parsing and validation for the batch CLI.

One JSON file describes one run: the command, the RNG seed, the link
scenario, and command-specific parameters. Unknown keys are rejected with a
nearest-key hint; every value that falls back to a default is recorded so
the CSV comment header can echo the fully resolved configuration.
"""
from __future__ import annotations

import difflib
import json
import math
from dataclasses import MISSING, dataclass, field, fields

from .aoi import ArrivalModel, ServiceModel
from .channel import InterfererField, LinkBudget, Scenario, ShadowedRicianParams
from .errors import ConfigError, StinQosError
from .experiments import SweepSpec, default_scenario

COMMANDS = ("error", "exponent", "aoi-sim", "paoi-bound", "delay-bound", "sweep")

_TOP_KEYS = {"command", "seed", "output", "scenario", "coding", "error_model", "params"}


def _sweep_kind(default):
    """Value kind of a SweepSpec field, read off its default."""
    if default is MISSING:  # figure
        return str
    if isinstance(default, tuple):
        return [type(default[0])]
    return type(default)


# Allowed value kinds of each key of a config block: a type (float admits
# any JSON number a finite float holds, not NaN, Infinity or an integer
# beyond the float range; no type admits a boolean unless it is bool), a
# literal value, a one-item list for a JSON array of that kind, a dict for
# a nested object, or a tuple of alternatives (an object or null is
# (dict, None)).
_SATELLITE_KINDS = {"carrier_hz": float, "distance_m": float, "gain_tx_dbi": float,
                    "gain_rx_dbi": float, "tx_snr_db": float}
_FADING_KINDS = {"b": float, "m": float, "omega": float}
_INTERFERER_KINDS = {"count": int, "r_inner_m": float, "r_outer_m": float,
                     "carrier_hz": float, "gain_tx_dbi": float, "gain_rx_dbi": float,
                     "tx_snr_db": float}
_SCENARIO_FULL_KINDS = {"satellite": _SATELLITE_KINDS, "fading": _FADING_KINDS,
                        "interferers": _INTERFERER_KINDS, "rx_antennas": int}
_SCENARIO_PRESET_KINDS = {"k": int, "avg_snr_db": float, "inr_db": float,
                          "rx_antennas": int}
_CODING_KINDS = {"blocklength": int, "code_size": int, "rate": (float, None)}
_ERROR_MODEL_KINDS = {"method": str, "sample_budget": int, "quad_tolerance": float}
_ARRIVAL_KINDS = ({"kind": ("deterministic", "poisson"), "period": float,
                   "rate": float}, None)
_SERVICE_KINDS = ({"kind": ("fixed", "arq"), "n": int, "epsilon": (float, None)},
                  None)
_PARAM_KINDS = {
    "error": {},
    "exponent": {},
    "aoi-sim": {"n_updates": int, "arrival": _ARRIVAL_KINDS,
                "service": _SERVICE_KINDS},
    "paoi-bound": {"a_th_cu": float, "u": (int, "inf"), "theta": (float, "optimize"),
                   "arrival": _ARRIVAL_KINDS, "service": _SERVICE_KINDS},
    "delay-bound": {"d_th_blocks": float,
                    "arrival_kind": ("constant_rate", "poisson_batch"),
                    "alpha_bits": float, "rate_per_block": float, "batch_bits": float},
    "sweep": {f.name: _sweep_kind(f.default) for f in fields(SweepSpec)},
}
_KIND_NAMES = {float: "finite number", int: "integer", str: "string",
               bool: "boolean"}


@dataclass
class RunConfig:
    """Fully validated run description."""

    command: str
    seed: int
    output: str
    scenario: Scenario
    coding: "object"
    error_model: "object"
    params: dict
    defaults_used: list = field(default_factory=list)


def _check_keys(block: dict, allowed: set, context: str) -> None:
    for key in block:
        if key not in allowed:
            hint = difflib.get_close_matches(key, sorted(allowed), n=1, cutoff=0.4)
            suffix = f"; nearest known key: {hint[0]!r}" if hint else ""
            raise ConfigError(f"unknown key {key!r} in {context}{suffix}")


def _is_kind(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, (list, tuple)) and all(
            _is_kind(v, kind[0]) for v in value)
    if not isinstance(kind, type):
        return value == kind
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            return False
    return isinstance(value, kind)


def _kind_name(kind) -> str:
    if isinstance(kind, list):
        return f"list of {_KIND_NAMES[kind[0]]}s"
    return _KIND_NAMES[kind] if isinstance(kind, type) else json.dumps(kind)


def _check_params(block, kinds: dict, path: str) -> None:
    """Check the keys and value kinds of a config block and its sub-objects."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path} must be a JSON object")
    _check_keys(block, kinds, path)
    for key, value in block.items():
        alternatives = kinds[key] if isinstance(kinds[key], tuple) else (kinds[key],)
        if isinstance(alternatives[0], dict):
            if value is not None or None not in alternatives:
                _check_params(value, alternatives[0], f"{path}.{key}")
            continue
        if not any(_is_kind(value, k) for k in alternatives):
            expected = " or ".join(_kind_name(k) for k in alternatives)
            raise ConfigError(f"{path}.{key} must be {expected}, got {value!r}")


def _require(block: dict, key: str, context: str):
    if key not in block:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return block[key]


def decode_json(text: str, what: str, bare_string: bool = False):
    """Decode JSON text; text it cannot decode is a ConfigError naming ``what``.

    With ``bare_string`` text that is not JSON is returned as the string it
    is. Nesting deeper than the decoder's recursion limit and integers longer
    than Python converts are errors either way.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        if bare_string:
            return text
        raise ConfigError(
            f"{what} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    except RecursionError:
        raise ConfigError(f"{what} nests too deeply to decode") from None
    except ValueError as exc:
        raise ConfigError(f"{what} cannot be decoded: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    raw = decode_json(text, "config")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return build_config(raw)


def build_config(raw: dict) -> RunConfig:
    """Validate an already-deserialized configuration mapping."""
    _check_keys(raw, _TOP_KEYS, "config")
    command = _require(raw, "command", "config")
    if command not in COMMANDS:
        hint = difflib.get_close_matches(str(command), COMMANDS, n=1)
        suffix = f"; nearest known command: {hint[0]!r}" if hint else ""
        raise ConfigError(f"unknown command {command!r}{suffix}")
    seed = _require(raw, "seed", "config")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}")

    defaults_used: list = []
    output = raw.get("output")
    if output is None:
        output = f"{command.replace('-', '_')}.csv"
        defaults_used.append(f"output={output}")
    if not isinstance(output, str) or not output:
        raise ConfigError(f"output must be a nonempty path string, got {output!r}")
    if "\n" in output or "\r" in output:
        # the path is echoed in a '#' comment line of the CSV it names
        raise ConfigError(f"output must not contain a line break, got {output!r}")

    try:
        scenario = _build_scenario(raw.get("scenario"), seed, defaults_used)
        coding = _build_coding(raw.get("coding"), defaults_used)
        error_model = _build_error_model(raw.get("error_model"), defaults_used)
    except ConfigError:
        raise
    except (StinQosError, TypeError) as exc:
        raise ConfigError(str(exc)) from None

    params = raw.get("params", {})
    _check_params(params, _PARAM_KINDS[command], "params")
    if command == "sweep" and "figure" not in params:
        raise ConfigError("sweep command requires params.figure")

    return RunConfig(
        command=command,
        seed=seed,
        output=output,
        scenario=scenario,
        coding=coding,
        error_model=error_model,
        params=params,
        defaults_used=defaults_used,
    )


def _build_scenario(block, seed: int, defaults_used: list) -> Scenario:
    if block is None:
        defaults_used.append("scenario=default(k=1, avg_snr_db=15, inr_db=-3)")
        return default_scenario(k=1, avg_snr_db=15.0, inr_db=-3.0, seed=seed)
    if isinstance(block, dict) and (
            "satellite" in block or "fading" in block or "interferers" in block):
        _check_params(block, _SCENARIO_FULL_KINDS, "scenario")
        return Scenario(
            satellite=LinkBudget(**_require(block, "satellite", "scenario")),
            fading=ShadowedRicianParams(**_require(block, "fading", "scenario")),
            interferers=InterfererField(**_require(block, "interferers", "scenario")),
            rx_antennas=block.get("rx_antennas", 1),
            seed=seed,
        )
    _check_params(block, _SCENARIO_PRESET_KINDS, "scenario")
    return default_scenario(
        k=block.get("k", 1),
        avg_snr_db=block.get("avg_snr_db", 15.0),
        inr_db=block.get("inr_db", -3.0),
        rx_antennas=block.get("rx_antennas", 2),
        seed=seed,
    )


def _build_coding(block, defaults_used: list):
    from .fbc import CodingSpec

    if block is None:
        defaults_used.append("coding=(blocklength=64, code_size=2^32)")
        return CodingSpec(blocklength=64, code_size=2 ** 32)
    _check_params(block, _CODING_KINDS, "coding")
    return CodingSpec(
        blocklength=_require(block, "blocklength", "coding"),
        code_size=_require(block, "code_size", "coding"),
        rate=block.get("rate"),
    )


def _build_error_model(block, defaults_used: list):
    from .fbc import ErrorModel

    if block is None:
        defaults_used.append("error_model=(quadrature, tol=1e-06)")
        return ErrorModel()
    _check_params(block, _ERROR_MODEL_KINDS, "error_model")
    return ErrorModel(
        method=block.get("method", "quadrature"),
        sample_budget=block.get("sample_budget", 100_000),
        quad_tolerance=block.get("quad_tolerance", 1e-6),
    )


def build_arrival(block, defaults_used: list, default_gap_cu: float = 4096.0) -> ArrivalModel:
    if block is None:
        defaults_used.append(f"arrival=poisson(rate=1/{default_gap_cu:g} per cu)")
        return ArrivalModel.poisson(1.0 / default_gap_cu)
    if _require(block, "kind", "arrival") == "deterministic":
        return ArrivalModel.deterministic(_require(block, "period", "arrival"))
    return ArrivalModel.poisson(_require(block, "rate", "arrival"))


def build_service(
    block, defaults_used: list, rc: RunConfig
) -> ServiceModel:
    """Service model; ARQ epsilon defaults to the scenario's average error."""
    from .fbc import average_error

    if block is None:
        block = {}
        defaults_used.append("service=arq(n=coding.blocklength, epsilon=from scenario)")
    n = block.get("n", rc.coding.blocklength)
    if block.get("kind", "arq") == "fixed":
        return ServiceModel.fixed(n)
    epsilon = block.get("epsilon")
    if epsilon is None:
        epsilon = average_error(rc.scenario, rc.coding, rc.error_model).value
        defaults_used.append(f"service.epsilon={epsilon!r} (scenario average error)")
    return ServiceModel.arq(n, epsilon)


def apply_overrides(raw: dict, overrides: list) -> dict:
    """Apply KEY=VALUE scalar overrides with dotted paths to the raw config."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        path, _, value_text = item.partition("=")
        value = decode_json(value_text, f"override {path!r}", bare_string=True)
        if isinstance(value, (dict, list)):
            raise ConfigError(f"override {path!r} must be scalar, got {value_text!r}")
        node = raw
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a scalar")
        node[parts[-1]] = value
    return raw


def echo_params(rc: RunConfig) -> dict:
    """Flattened effective configuration for the CSV comment header."""
    flat = {
        "command": rc.command,
        "seed": rc.seed,
        "output": rc.output,
        "coding.blocklength": rc.coding.blocklength,
        "coding.code_size": rc.coding.code_size,
        "coding.rate_nats": rc.coding.rate,
        "error_model.method": rc.error_model.method,
        "error_model.sample_budget": rc.error_model.sample_budget,
        "error_model.quad_tolerance": rc.error_model.quad_tolerance,
        "scenario.rx_antennas": rc.scenario.rx_antennas,
        "scenario.satellite.carrier_hz": rc.scenario.satellite.carrier_hz,
        "scenario.satellite.distance_m": rc.scenario.satellite.distance_m,
        "scenario.satellite.gain_tx_dbi": rc.scenario.satellite.gain_tx_dbi,
        "scenario.satellite.gain_rx_dbi": rc.scenario.satellite.gain_rx_dbi,
        "scenario.satellite.tx_snr_db": rc.scenario.satellite.tx_snr_db,
        "scenario.fading.b": rc.scenario.fading.b,
        "scenario.fading.m": rc.scenario.fading.m,
        "scenario.fading.omega": rc.scenario.fading.omega,
        "scenario.interferers.count": rc.scenario.interferers.count,
        "scenario.interferers.r_inner_m": rc.scenario.interferers.r_inner_m,
        "scenario.interferers.r_outer_m": rc.scenario.interferers.r_outer_m,
        "scenario.interferers.tx_snr_db": rc.scenario.interferers.tx_snr_db,
    }
    for i, note in enumerate(rc.defaults_used):
        flat[f"default.{i}"] = note
    for key, value in sorted(rc.params.items()):
        if isinstance(value, dict):
            for k2, v2 in sorted(value.items()):
                flat[f"params.{key}.{k2}"] = v2
        else:
            flat[f"params.{key}"] = value
    return flat
