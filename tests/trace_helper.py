"""Whole-column form of the streamed trace, for tests that need every row."""
import numpy as np

from stinqos.aoi import TRACE_FIELDS, trace_columns


def whole_trace(arrivals, services) -> dict:
    """The blocks of trace_columns(arrivals, services) joined into whole
    columns, keyed by TRACE_FIELDS."""
    blocks = zip(*trace_columns(arrivals, services))
    return {field: np.concatenate(col) for field, col in zip(TRACE_FIELDS, blocks)}
