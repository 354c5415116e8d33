"""Whole-column forms of the streamed draws, traces and sweeps, for tests
that need every row."""
import tracemalloc

import numpy as np

from stinqos import aoi, channel, experiments
from stinqos.aoi import TRACE_FIELDS, ArrivalModel, trace_blocks
from stinqos.fbc import CodingSpec, conditional_error
from oracles import unblocked_channel_gain


def whole_updates(am, sm, n, rng):
    """Arrival and service columns of one whole draw of every gap, then one
    of every service uniform: the oracle of aoi.update_blocks."""
    gaps = am.sample_gaps(n, rng)
    return np.cumsum(gaps), sm.sample_services(n, rng)


def column_blocks(arrivals, services, rows=aoi._TRACE_ROWS):
    """(arrivals, services) blocks of ``rows`` rows of whole columns, the
    last one shorter: the block feed of aoi.update_blocks."""
    return [(arrivals[start:start + rows], services[start:start + rows])
            for start in range(0, len(arrivals), rows)]


def whole_trace(arrivals, services) -> dict:
    """The trace columns of trace_blocks fed the whole arrival and service
    columns as one block, keyed by TRACE_FIELDS."""
    block = next(trace_blocks([(arrivals, services)]))
    return {field: np.asarray(col) for field, col in zip(TRACE_FIELDS, block)}


def block_mean(column, block):
    """The sum of the column's sums over blocks of ``block`` rows, added in
    block order, over its length: np.mean of a column of one block."""
    total = 0.0
    for start in range(0, len(column), block):
        total += np.sum(column[start:start + block])
    return total / len(column)


def whole_rep_draws(spec, rep):
    """Arrival times and the ARQ and relay uniform columns of one fig3
    replication, each drawn whole in turn."""
    rng = np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(channel._STREAM_SWEEP_TRACE, rep)))
    gaps = ArrivalModel.poisson(1.0 / spec.arrival_mean_gap_cu).sample_gaps(
        spec.n_updates, rng)
    u_att = rng.random(spec.n_updates)
    v_route = rng.random(spec.n_updates)
    return np.cumsum(gaps), u_att, v_route


def whole_error_table(spec):
    """experiments._coupled_error_table from whole draws of the satellite
    gains, the (error_draws, k_max) interferer-gain matrix and the relay
    gains, with each probability a block_mean over blocks of
    channel._BLOCK_ROWS draws."""
    snr_sat = [channel._db_to_linear(s) for s in spec.snr_points_db]
    snr_ter = [channel._db_to_linear(s + spec.relay_boost_db)
               for s in spec.snr_points_db]
    k_max = max(spec.k_grid)
    base = experiments.default_scenario(
        k=k_max, avg_snr_db=spec.avg_snr_db, inr_db=spec.inr_db, seed=spec.seed
    )
    coeff = base.interferer_coefficients
    rng = base.rng(channel._STREAM_SWEEP_EPS)
    draws = spec.error_draws
    h_sat = unblocked_channel_gain(base.fading, rng, size=draws)
    e_gains = rng.exponential(1.0, size=(draws, k_max))
    h_ter = rng.exponential(1.0, size=draws)
    coding = CodingSpec(blocklength=spec.blocklength, code_size=spec.code_size)
    eps_sat = np.empty((len(spec.k_grid), len(spec.snr_points_db)))
    eps_ter = np.empty_like(eps_sat)
    for ki, k in enumerate(spec.k_grid):
        i_a = e_gains[:, :k] @ coeff[:k] if k else 0.0
        for si in range(len(spec.snr_points_db)):
            gam_sat = snr_sat[si] / base.fading.mean_power * h_sat / (1.0 + i_a)
            eps_sat[ki, si] = block_mean(conditional_error(gam_sat, coding),
                                         channel._BLOCK_ROWS)
            gam_ter = snr_ter[si] * h_ter / (1.0 + i_a)
            eps_ter[ki, si] = block_mean(conditional_error(gam_ter, coding),
                                         channel._BLOCK_ROWS)
    return eps_sat, eps_ter


def traced_peak(fn, *args):
    """tracemalloc peak of one call, in bytes, above what is live before it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
