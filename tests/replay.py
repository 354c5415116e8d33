"""A CSV's '#' header read back as the config of the run that wrote it.

The header echoes the fully resolved configuration, one ``key=value`` line
per dotted key, so a run of the config read back from it writes the same
lines. Three kinds of header line name no config key and are left out:
the ``build:`` identifier, the ``output=`` path and the ``default.N``
notes. ``coding.rate_nats`` is the config's ``coding.rate``.
"""
import json

from stinqos.cli import main

_RENAMED = {"coding.rate_nats": "coding.rate"}


def _replayed(line: str) -> bool:
    """Whether a header line names a config key."""
    return not line.startswith(("# build:", "# output=", "# default."))


def header_config(text: str) -> dict:
    """The nested config that the '#' header of CSV ``text`` echoes."""
    config: dict = {}
    for line in text.splitlines():
        if not line.startswith("# "):
            break
        if not _replayed(line):
            continue
        key, _, value_text = line[2:].partition("=")
        try:
            value = json.loads(value_text)
        except json.JSONDecodeError:  # a bare string such as "quadrature"
            value = value_text
        *parents, leaf = _RENAMED.get(key, key).split(".")
        node = config
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return config


def replayed_lines(text: str) -> list[str]:
    """The lines of CSV ``text`` that a replay of its header must repeat."""
    return [line for line in text.splitlines() if _replayed(line)]


def run_csv(config, tmp_path, name) -> str:
    """The CSV text that a run of ``config`` writes."""
    out = tmp_path / f"{name}.csv"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(config, output=str(out))), encoding="utf-8")
    assert main([str(path)]) == 0
    return out.read_text(encoding="utf-8")
