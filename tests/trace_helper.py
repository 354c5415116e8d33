"""Whole-column forms of the streamed draw and trace, for tests that need
every row."""
import numpy as np

from stinqos.aoi import TRACE_FIELDS, trace_columns


def whole_updates(am, sm, n, rng):
    """Arrival and service columns of one whole draw of every gap, then one
    of every service uniform: the oracle of aoi.update_blocks."""
    gaps = am.sample_gaps(n, rng)
    return np.cumsum(gaps), sm.services_from_uniforms(rng.random(n))


def whole_trace(arrivals, services) -> dict:
    """The blocks of trace_columns(arrivals, services) joined into whole
    columns, keyed by TRACE_FIELDS."""
    blocks = zip(*trace_columns(arrivals, services))
    return {field: np.concatenate(col) for field, col in zip(TRACE_FIELDS, blocks)}
