"""The README's examples run against the package as it is."""
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import stinqos
from stinqos.config import build_config
from replay import header_config, replayed_lines, run_csv

README = Path(__file__).resolve().parent.parent / "README.md"


def section(heading: str) -> str:
    """The text under the "## <heading>" heading, up to the next one."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The python block under the "## Library use" heading, and only it."""
    return re.search(r"```python\n(.*?)```", section("Library use"), re.S).group(1)


def cli_configs() -> list:
    """Every JSON config of the "## Command-line interface" section: its
    json blocks, and its shorthand scenario in an error run."""
    text = section("Command-line interface")
    configs = [json.loads(block)
               for block in re.findall(r"```json\n(.*?)```", text, re.S)]
    shorthand = re.search(r'`"scenario": (\{.*?\})`', text).group(1)
    configs.append({"command": "error", "seed": 1,
                    "scenario": json.loads(shorthand)})
    return configs


def test_library_use_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # the peak-AoI line and the delay line
    assert all(float(v) >= 0 for v in " ".join(lines).split())


def test_cli_configs_found():
    # the minimal config, the explicit scenario, the sweep and the shorthand
    assert [c["command"] for c in cli_configs()] == [
        "error", "exponent", "sweep", "error"]


@pytest.mark.parametrize("config", cli_configs(),
                         ids=["minimal", "explicit", "sweep", "shorthand"])
def test_cli_config_builds(config):
    rc = build_config(config)
    assert rc.command == config["command"]


@pytest.mark.parametrize("config", cli_configs(),
                         ids=["minimal", "explicit", "sweep", "shorthand"])
def test_cli_config_replays(config, tmp_path):
    # the header read back as a config runs to the same header and rows
    text = run_csv(config, tmp_path, "run")
    replay = run_csv(header_config(text), tmp_path, "replay")
    assert replayed_lines(replay) == replayed_lines(text)


def module_names() -> list:
    """Every backticked `module.name` of README whose module is a submodule
    of stinqos, as (module, name) pairs."""
    modules = "|".join(m.name for m in pkgutil.iter_modules(stinqos.__path__))
    text = README.read_text(encoding="utf-8")
    return sorted(set(re.findall(rf"`({modules})\.(\w+)`", text)))


def test_module_names_resolve():
    names = module_names()
    assert ("aoi", "departure_row") in names and ("cli", "run") in names
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(f"stinqos.{mod}"), name)]
    assert not missing, missing
