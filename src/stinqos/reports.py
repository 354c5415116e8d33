"""Report types shared by the bound and exponent computations."""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType


@dataclass(frozen=True)
class QoSReport:
    """A bound or exponent value together with the parameters producing it.

    ``bound_value`` is the violation-probability bound clamped to [0, 1] for
    kind "aoi"/"delay"; for kind "error" it carries the exponent itself.
    ``raw_bound`` preserves the unclamped Chernoff value. ``params`` is a
    read-only view of a copy of the mapping given, so a built report cannot
    change; ``dataclasses.replace`` with new params gives a new report.
    """

    kind: str
    theta: float
    bound_value: float
    threshold: float | None = None
    kernel_value: float | None = None
    raw_bound: float | None = None
    stability_ok: bool | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))


def report_row(report: QoSReport, seed: int | None = None) -> dict:
    """Flatten a report into the canonical CSV row."""
    return {
        "kind": report.kind,
        "theta": report.theta,
        "threshold": "" if report.threshold is None else report.threshold,
        "kernel": "" if report.kernel_value is None else report.kernel_value,
        "bound": report.bound_value,
        "stable": "" if report.stability_ok is None else report.stability_ok,
        "seed": "" if seed is None else seed,
    }


REPORT_FIELDS = ["kind", "theta", "threshold", "kernel", "bound", "stable", "seed"]
