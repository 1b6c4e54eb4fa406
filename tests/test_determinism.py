"""Pins the simulated outputs of small count and NEXMark runs.

The simulated latencies, durations and CPU totals are the results of the
experiments, so a change that only restructures code must leave them
byte-identical. Each case below pins the tick count, the total charged CPU,
the latency histograms, every migration's outcome and the final state of
the cost model's jitter RNG (which pins the number and order of draws).
"""
import hashlib

import numpy as np
import pytest

from repro.microbench.count import run_count
from repro.nexmark.stream import run_nexmark
from repro.timely.cost import CostModel


def _digest(x) -> str:
    data = x.tobytes() if isinstance(x, np.ndarray) else repr(x).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def fingerprint(run, cost: CostModel) -> dict:
    sim = run.sim
    return {
        "tick_index": sim.tick_index,
        "total_cpu": sim.total_cpu,
        "latency": _digest(sim.latency.counts),
        "steady": _digest(run.steady.counts),
        "migrations": [
            (m.started_s, m.completed_s, m.steps_issued, m.window.max)
            for m in run.migrations
        ],
        "rng": _digest(cost._rng.bit_generator.state),
    }


def _count(impl, migrations=None, initial_imbalanced=False):
    cost = CostModel(workers=4, workers_per_process=2, seed=3)
    run = run_count(
        impl=impl,
        cost=cost,
        nominal_keys=1e6,
        scaled_keys=1 << 10,
        rate=20_000,
        n_bins=32,
        duration_s=0.8,
        warmup_s=0.2,
        migrations=migrations,
        initial_imbalanced=initial_imbalanced,
        seed=11,
    )
    return fingerprint(run, cost)


def _q4(impl, migrations=None):
    cost = CostModel(workers=8, workers_per_process=4, seed=3)
    run = run_nexmark(
        query="q4",
        impl=impl,
        n_events=6_000,
        rate_per_s=10_000,
        n_bins=64,
        cost=cost,
        migrations=migrations,
        seed=5,
        state_scale=100.0,
    )
    return fingerprint(run, cost)


CASES = {
    "count-megaphone-fluid": lambda: _count(
        "megaphone",
        [{"at_s": 0.4, "moves": "rebalance", "strategy": "fluid"}],
        initial_imbalanced=True,
    ),
    "count-megaphone-optimized-gap": lambda: _count(
        "megaphone",
        [
            {
                "at_s": 0.4,
                "moves": "imbalance",
                "strategy": "optimized",
                "gap_ticks": 2,
            }
        ],
    ),
    "count-native": lambda: _count("native"),
    "q4-megaphone-batched": lambda: _q4(
        "megaphone", [{"at_s": 0.3, "moves": "imbalance", "strategy": "batched"}]
    ),
    "q4-native": lambda: _q4("native"),
}

# a change to any value below is a change to the simulated results
EXPECTED = {
    "count-megaphone-fluid": {
        "tick_index": 801,
        "total_cpu": 0.009166576203344488,
        "latency": "477fbd31d3680a67",
        "steady": "6adc1f7c421d6efa",
        "migrations": [
            (0.4, 0.41600000000000004, 8, 0.0021142205162043015),
        ],
        "rng": "cf88008861f65fdb",
    },
    "count-megaphone-optimized-gap": {
        "tick_index": 801,
        "total_cpu": 0.009176650228354354,
        "latency": "5d22c79a1762033c",
        "steady": "88b00f3200e3e387",
        "migrations": [
            (0.4, 0.41600000000000004, 4, 0.0021212696486351823),
        ],
        "rng": "ca4656b579451555",
    },
    "count-native": {
        "tick_index": 801,
        "total_cpu": 0.0027199999999999937,
        "latency": "54aaa51e007f7a73",
        "steady": "d021594644867d60",
        "migrations": [],
        "rng": "2c88bba61073b94c",
    },
    "q4-megaphone-batched": {
        "tick_index": 602,
        "total_cpu": 0.017562442685060544,
        "latency": "34bb8ce85a6e948e",
        "steady": "88bce63841988b6a",
        "migrations": [
            (0.3, 0.332, 16, 0.002015456380552505),
        ],
        "rng": "3109d113c308ae86",
    },
    "q4-native": {
        "tick_index": 602,
        "total_cpu": 0.0018096000000000607,
        "latency": "a779191eb0b60595",
        "steady": "97a876edbd2284ac",
        "migrations": [],
        "rng": "40eb9feebfd51f71",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_outputs_pinned(case):
    assert CASES[case]() == EXPECTED[case]
