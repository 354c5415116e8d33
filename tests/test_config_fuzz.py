"""Config fuzz: mutated configs of every command and figure, run through
cli.main in-process, end in a typed exit code and leave no partial output;
a config that runs writes a header that replays to the same lines.

The strategy follows the schema: the paths it mutates and the values it
draws come from the kinds tables that config._check_params reads. Sizes are
capped so that no case runs long or allocates much; a size above the
library's own cap is kept, since the library refuses it before any work.
"""
import copy
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from stinqos import aoi, channel, config, experiments, fbc
from stinqos.cli import main
from replay import header_config, replayed_lines, run_csv

# Valid configs the mutations start from, one per command and figure
BASES = [{"command": command} for command in config.COMMANDS if command != "sweep"] + [
    {"command": "sweep", "params": {"figure": figure}}
    for figure in ("fig3", "fig4", "fig5", "stin_psn")]

# Small sizes put in wherever a config omits them, so that a case runs in a
# fraction of a second whatever the mutations left out
SMALL = {"aoi-sim": {"n_updates": 200},
         "sweep": {"n_updates": 500, "error_draws": 2000, "fig4_n_updates": 1000,
                   "replications": 2, "k_grid": [0, 1, 3], "n_grid": [100, 200],
                   "theta_grid": [0.0015, 0.002, 0.0025]},
         "error_model": {"sample_budget": 5000}}

# Values of the blocks that omit them, which mutated values are drawn near
BLOCK_BASES = {"coding": {"blocklength": 64, "code_size": 2 ** 32},
               "error_model": SMALL["error_model"],
               "scenario": {"k": 1, "avg_snr_db": 15.0, "inr_db": -3.0, "rx_antennas": 2}}

FULL_SCENARIO = {
    "satellite": {"carrier_hz": 2.0e9, "distance_m": 1.0e6, "tx_snr_db": 10.0},
    "fading": {"b": 0.126, "m": 10, "omega": 0.835},
    "interferers": {"count": 1, "r_inner_m": 2000.0, "r_outer_m": 10000.0,
                    "carrier_hz": 2.0e9, "tx_snr_db": 0.0},
    "rx_antennas": 2,
}

# Values a mutated path may take whatever its kind: wrong types, signs,
# zero, non-finite and huge or tiny numbers, integers beyond the float
# range, empty and nested containers.
MUTANTS = ["x", "", True, False, None, [], {}, [[1]], {"a": {"b": []}}, [[[]]],
           0, -1, 0.0, -0.0, -2.5, math.nan, math.inf, -math.inf, 1e300, -1e300,
           1e-300, -1e-300, 2 ** 64, -(2 ** 64), 10 ** 309, -(10 ** 309)]

# String values of the str-typed keys
STRINGS = {"method": ["quadrature", "monte_carlo"],
           "figure": ["fig3", "fig4", "fig5", "stin_psn"]}

# Size caps of the fuzz, each with the library's own cap above which a value
# is refused before any work (None where a value is capped either way).
CAPS = {"n_updates": (2000, aoi.MAX_UPDATES),
        "fig4_n_updates": (2000, aoi.MAX_UPDATES),
        "error_draws": (20_000, experiments.MAX_ERROR_DRAWS),
        "sample_budget": (20_000, fbc.MAX_SAMPLE_BUDGET),
        "replications": (3, None),
        "k": (12, channel.MAX_INTERFERERS),
        "count": (12, channel.MAX_INTERFERERS),
        "fig_k": (12, channel.MAX_INTERFERERS),
        "m": (100, None)}
GRIDS = ("k_grid", "snr_points_db", "theta_grid", "n_grid")


def plausible(kind, base, key):
    """Values of ``kind`` near ``base``, the value of the key in a valid
    config, where there is one."""
    if isinstance(kind, tuple):
        return st.one_of(*(plausible(k, base, key) for k in kind))
    if isinstance(kind, dict):
        base = base if isinstance(base, dict) else {}
        return st.fixed_dictionaries({}, optional={
            k: plausible(v, base.get(k), k) for k, v in kind.items()})
    if isinstance(kind, list):
        item = base[0] if isinstance(base, list) and base else None
        return st.lists(plausible(kind[0], item, key), max_size=3)
    if kind is None or kind is bool:
        return st.none() if kind is None else st.booleans()
    if kind is str:
        return st.sampled_from(STRINGS[key])
    if kind is int:
        scaled = (st.sampled_from([-1, 0, 1, 2, 10]).map(lambda f: f * base)
                  if isinstance(base, int) and base else st.nothing())
        return st.integers(-1, 20) | scaled
    if kind is float:
        scaled = (st.sampled_from([-1.0, 0.0, 0.5, 0.9, 1.0, 1.1, 2.0, 10.0])
                  .map(lambda f: f * base)
                  if isinstance(base, (int, float)) and base else st.nothing())
        return st.floats(-10.0, 1e4) | scaled
    return st.just(kind)  # a literal


def paths(kinds, base, prefix=()):
    """(path, kind, base) of every key of a kinds table and of its nested
    objects."""
    for key, kind in kinds.items():
        here = base.get(key) if isinstance(base, dict) else None
        yield prefix + (key,), kind, here
        for alt in kind if isinstance(kind, tuple) else (kind,):
            if isinstance(alt, dict):
                yield from paths(alt, here, prefix + (key,))


def capped(key, value):
    """A size value within the fuzz's cap, unless the library refuses it."""
    if isinstance(value, dict):
        return {k: capped(k, v) for k, v in value.items()}
    if key in GRIDS and isinstance(value, list):
        return [capped("k" if key == "k_grid" else None, v) for v in value[:3]]
    if key in CAPS and isinstance(value, (int, float)) and not isinstance(value, bool):
        cap, refused = CAPS[key]
        if value > cap and (refused is None or value <= refused):
            return cap
    return value


@st.composite
def configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    cfg["seed"] = draw(st.integers(0, 2 ** 32))
    cfg.setdefault("params", {})
    form = draw(st.sampled_from(["none", "preset", "full"]))
    scenario = {"none": {}, "preset": {}, "full": copy.deepcopy(FULL_SCENARIO)}
    if form != "none":
        cfg["scenario"] = scenario[form]
    kinds, defaults = config._param_schema(cfg["command"])
    tables = {"seed": int,
              "scenario": (config._SCENARIO_FULL_KINDS if form == "full"
                           else config._SCENARIO_PRESET_KINDS),
              "coding": config._field_kinds(fbc.CodingSpec),
              "error_model": config._field_kinds(fbc.ErrorModel),
              "params": kinds}
    base = dict(BLOCK_BASES, seed=cfg["seed"], params={
        **defaults,
        **SMALL.get(cfg["command"], {}), **cfg["params"]})
    if form == "full":
        base["scenario"] = cfg["scenario"]
    every = list(paths(tables, base))
    for path, kind, base in draw(st.lists(st.sampled_from(every), max_size=4)):
        value = copy.deepcopy(draw(st.one_of(plausible(kind, base, path[-1]),
                                             st.sampled_from(MUTANTS))))
        node = cfg
        for part in path[:-1]:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[path[-1]] = value
    for block, small in (("params", SMALL.get(cfg["command"], {})),
                         ("error_model", SMALL["error_model"])):
        if isinstance(cfg.get(block), dict):
            cfg[block] = dict(small, **cfg[block])
    return capped(None, cfg)


ARRIVAL_OVERFLOW = [
    {"command": "aoi-sim", "seed": 1,
     "params": {"arrival": {"kind": "deterministic", "period": 1e308}}},
    {"command": "aoi-sim", "seed": 1,
     "params": {"arrival": {"kind": "poisson", "rate": 1e-308}}},
    {"command": "sweep", "seed": 1,
     "params": {"figure": "fig3", "arrival_mean_gap_cu": 1e308, "n_updates": 200,
                "error_draws": 1000}},
    {"command": "sweep", "seed": 1,
     "params": {"figure": "fig4", "fig4_mean_gap_cu": 1e308, "fig4_n_updates": 200}},
]
ZERO_DECAY = {"command": "error", "seed": 1,
              "scenario": dict(FULL_SCENARIO,
                               fading={"b": 0.126, "m": 10, "omega": 1e17})}
RADIUS_OVERFLOW = {"command": "error", "seed": 1,
                   "scenario": dict(FULL_SCENARIO, interferers=dict(
                       FULL_SCENARIO["interferers"], r_outer_m=1e155))}
PATHLOSS_OVERFLOW = {"command": "exponent", "seed": 1,
                     "scenario": dict(FULL_SCENARIO, satellite={
                         "carrier_hz": 4817.0, "distance_m": 5.8e-249})}
# Each null the schema admits, which the header echoes and must read back
EXPLICIT_NULLS = [
    {"command": "aoi-sim", "seed": 1, "params": {"n_updates": 200, "arrival": None}},
    {"command": "paoi-bound", "seed": 1, "params": {"service": None}},
    {"command": "aoi-sim", "seed": 1,
     "params": {"n_updates": 200, "service": {"kind": "arq", "n": 64, "epsilon": None}}},
]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=configs())
@example(cfg=ARRIVAL_OVERFLOW[0])
@example(cfg=ARRIVAL_OVERFLOW[1])
@example(cfg=ARRIVAL_OVERFLOW[2])
@example(cfg=ARRIVAL_OVERFLOW[3])
@example(cfg=ZERO_DECAY)
@example(cfg=RADIUS_OVERFLOW)
@example(cfg=PATHLOSS_OVERFLOW)
@example(cfg=EXPLICIT_NULLS[0])
@example(cfg=EXPLICIT_NULLS[1])
@example(cfg=EXPLICIT_NULLS[2])
def test_mutated_config_exits_typed(tmp_path, cfg):
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    out = run / "out.csv"
    config_path = run / "run.json"
    config_path.write_text(json.dumps(dict(cfg, output=str(out))), encoding="utf-8")
    code = main([str(config_path)])  # an untyped failure raises here
    assert code in (0, 2, 3, 4, 5)
    if code:
        assert sorted(p.name for p in run.iterdir()) == ["run.json"]
    else:
        text = out.read_text(encoding="utf-8")
        replay = run_csv(header_config(text), run, "replay")
        assert replayed_lines(replay) == replayed_lines(text)
