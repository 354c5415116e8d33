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
import typing
from dataclasses import MISSING, dataclass, field, fields

from .aoi import ArrivalModel, ServiceModel
from .channel import InterfererField, LinkBudget, Scenario, ShadowedRicianParams
from .errors import ConfigError, StinQosError
from .experiments import SweepSpec, default_scenario
from .fbc import CodingSpec, ErrorModel, average_error

COMMANDS = ("error", "exponent", "aoi-sim", "paoi-bound", "delay-bound", "sweep")

_TOP_KEYS = {"command", "seed", "output", "scenario", "coding", "error_model", "params"}


def _field_kinds(cls) -> dict:
    """Value kinds of the fields of dataclass ``cls``, read off their types:
    a tuple field is a list of the kind of its default's items, and an
    optional one admits null."""
    hints = typing.get_type_hints(cls)
    kinds = {}
    for f in fields(cls):
        kind = hints[f.name]
        if kind is tuple:
            kind = [type(f.default[0])]
        elif typing.get_args(kind):  # X | None
            kind = tuple(None if k is type(None) else k for k in typing.get_args(kind))
        kinds[f.name] = kind
    return kinds


# Allowed value kinds of each key of a config block: a type (float admits
# any JSON number a finite float holds, not NaN, Infinity or an integer
# beyond the float range; no type admits a boolean unless it is bool), a
# literal value, a one-item list for a JSON array of that kind, a dict for
# a nested object, or a tuple of alternatives (an object or null is
# (dict, None)). A block that builds a dataclass has its fields' kinds.
_SCENARIO_FULL_KINDS = {"satellite": _field_kinds(LinkBudget),
                        "fading": _field_kinds(ShadowedRicianParams),
                        "interferers": _field_kinds(InterfererField),
                        "rx_antennas": int}
_SCENARIO_PRESET_KINDS = {"k": int, "avg_snr_db": float, "inr_db": float,
                          "rx_antennas": int}
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
    "sweep": _field_kinds(SweepSpec),
}
# Defaults of the command parameters; a sweep's are its SweepSpec's, and an
# omitted arrival or service model is noted where it is built.
_PARAM_DEFAULTS = {
    "aoi-sim": {"n_updates": 10_000},
    "paoi-bound": {"a_th_cu": 150_000.0, "u": "inf", "theta": "optimize"},
    "delay-bound": {"d_th_blocks": 5.0, "arrival_kind": "constant_rate",
                    "alpha_bits": 28.0, "rate_per_block": 1.0, "batch_bits": 28.0},
    "sweep": {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
              for f in fields(SweepSpec) if f.default is not MISSING},
}
# Mean gap of the arrival model an omitted arrival block stands for
_DEFAULT_GAP_CU = 4096.0
# Keys that each model kind refuses: they set the other kind of its block,
# so they would be echoed in the header but never used.
_OTHER_KIND_KEYS = {"deterministic": ("rate",), "poisson": ("period",),
                    "fixed": ("epsilon",),
                    "constant_rate": ("rate_per_block", "batch_bits"),
                    "poisson_batch": ("alpha_bits",)}
_KIND_NAMES = {float: "finite number", int: "integer", str: "string",
               bool: "boolean"}


@dataclass
class RunConfig:
    """Fully validated run description; ``params`` holds every command
    parameter, at its default where the config omits it, but for an
    omitted arrival or service model, which is built at dispatch."""

    command: str
    seed: int
    output: str
    scenario: Scenario | None  # None for a sweep, as are coding and error_model
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


def parse_config(text: str, overrides=(), output: str | None = None) -> RunConfig:
    """Parse and validate a JSON run configuration, after applying the
    KEY=VALUE ``overrides`` and, if given, the ``output`` path to it."""
    raw = decode_json(text, "config")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw = apply_overrides(raw, overrides)
    if output:
        raw["output"] = output
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

    scenario = coding = error_model = None
    if command == "sweep":
        for key in ("scenario", "coding", "error_model"):
            if key in raw:
                raise ConfigError(
                    f"a sweep takes no {key!r} block; params.blocklength, "
                    f"params.code_size, params.fig_k, params.avg_snr_db, "
                    f"params.inr_db and params.quad_tolerance set its link")
    else:
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
    if command == "delay-bound":
        _refuse_other_kind(params, params.get("arrival_kind", "constant_rate"), "params")
    for key in ("arrival", "service"):
        if isinstance(params.get(key), dict):
            _refuse_other_kind(params[key], params[key].get("kind"), f"params.{key}")
    if command == "sweep":
        if "figure" not in params:
            raise ConfigError("sweep command requires params.figure")
        if params.get("seed", seed) != seed:
            raise ConfigError(
                f"params.seed={params['seed']} conflicts with seed={seed}; "
                f"omit params.seed or give both the same value"
            )
        params = dict(params, seed=seed)
    params = {**_PARAM_DEFAULTS.get(command, {}), **params}

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


def _refuse_other_kind(block: dict, kind, path: str) -> None:
    """Refuse a key of ``block`` that sets another kind than ``kind``."""
    for key in _OTHER_KIND_KEYS.get(kind, ()):
        if key in block:
            raise ConfigError(f"{path}.{key} is not a parameter of kind {kind!r}")


def _build_scenario(block, seed: int, defaults_used: list) -> Scenario:
    if block is None:
        defaults_used.append("scenario=default(k=1, avg_snr_db=15, inr_db=-3)")
        return default_scenario(seed=seed)
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
    return default_scenario(seed=seed, **block)


def _build_coding(block, defaults_used: list):
    if block is None:
        defaults_used.append("coding=(blocklength=64, code_size=2^32)")
        return CodingSpec(blocklength=64, code_size=2 ** 32)
    _check_params(block, _field_kinds(CodingSpec), "coding")
    return CodingSpec(**block)


def _build_error_model(block, defaults_used: list):
    if block is None:
        defaults_used.append("error_model=(quadrature, tol=1e-06)")
        return ErrorModel()
    _check_params(block, _field_kinds(ErrorModel), "error_model")
    return ErrorModel(**block)


def build_arrival(block, defaults_used: list) -> ArrivalModel:
    if block is None:
        defaults_used.append(f"arrival=poisson(rate=1/{_DEFAULT_GAP_CU:g} per cu)")
        return ArrivalModel.poisson(1.0 / _DEFAULT_GAP_CU)
    if _require(block, "kind", "arrival") == "deterministic":
        return ArrivalModel.deterministic(_require(block, "period", "arrival"))
    return ArrivalModel.poisson(_require(block, "rate", "arrival"))


def build_service(block, defaults_used: list, rc: RunConfig) -> ServiceModel:
    """Service model; n defaults to coding.blocklength and an ARQ epsilon to
    the scenario's average error. A fixed service is ARQ at epsilon 0."""
    given = block is not None
    if not given:
        block = {}
        defaults_used.append("service=arq(n=coding.blocklength, epsilon=from scenario)")
    n = block.get("n", rc.coding.blocklength)
    epsilon = block.get("epsilon")
    if block.get("kind", "arq") == "fixed":
        epsilon = 0.0
    elif epsilon is None:
        epsilon = average_error(rc.scenario, rc.coding, rc.error_model).value
        defaults_used.append(f"service.epsilon={epsilon!r} (scenario average error)")
    if given and "n" not in block:
        defaults_used.append(f"service.n={n} (coding.blocklength)")
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
    """Flattened effective configuration for the CSV comment header: every
    field of the resolved scenario, coding and error model (none for a
    sweep), the defaults noted, and every command parameter."""
    flat = {"command": rc.command, "seed": rc.seed, "output": rc.output}
    if rc.scenario is not None:
        flat["scenario.rx_antennas"] = rc.scenario.rx_antennas
        for path, obj in (("coding", rc.coding), ("error_model", rc.error_model),
                          ("scenario.satellite", rc.scenario.satellite),
                          ("scenario.fading", rc.scenario.fading),
                          ("scenario.interferers", rc.scenario.interferers)):
            for f in fields(obj):
                flat[f"{path}.{f.name}"] = getattr(obj, f.name)
        flat["coding.rate_nats"] = flat.pop("coding.rate")
    for i, note in enumerate(rc.defaults_used):
        flat[f"default.{i}"] = note
    for key, value in sorted(rc.params.items()):
        if isinstance(value, dict):
            for k2, v2 in sorted(value.items()):
                flat[f"params.{key}.{k2}"] = v2
        else:
            flat[f"params.{key}"] = value
    return flat
