"""The open-loop run harness shared by the count and NEXMark workloads.

A workload supplies its stateful logic, its binning and the records that
arrive in each tick; :func:`run` builds the dataflow (Megaphone's F/S pair
with a :class:`MigrationDriver`, or the native operator), feeds the records,
keeps the steady-state latency window, and runs until every scheduled
migration has completed and, optionally, every frontier has closed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.control import ConfigAuthority
from repro.core.operators import MigratableOperator, NativeOperator, StateLogic
from repro.core.strategies import (
    MigrationDriver,
    MigrationRecord,
    migration_moves,
    rebalance_moves,
)
from repro.latency.histogram import LatencyHistogram
from repro.timely.engine import Batch, InputHandle, Simulation

# records arriving in one tick: (data, arrivals, dest). ``dest`` gives each
# record's worker for input that is already exchanged by key, or is None to
# spread the records over the tick's ingest workers.
TickRecords = tuple[dict[str, np.ndarray], np.ndarray, Optional[np.ndarray]]
LIMIT_S = 600.0  # simulated seconds to wait for migrations, and for the drain


def resolve_moves(moves, n_bins: int, workers: int) -> list[tuple[int, int]]:
    """A migration's ``moves``: "imbalance", "rebalance" or explicit
    ``(bin, worker)`` pairs. Raises ValueError for a bin outside
    ``[0, n_bins)``, a worker outside ``[0, workers)`` or a bin that moves
    twice."""
    if moves == "imbalance":
        return migration_moves(n_bins, workers)
    if moves == "rebalance":
        return rebalance_moves(n_bins, workers)
    seen: set[int] = set()
    for b, w in moves:
        if not 0 <= b < n_bins:
            raise ValueError(f"move of bin {b}: bins are 0..{n_bins - 1}")
        if not 0 <= w < workers:
            raise ValueError(
                f"move of bin {b} to worker {w}: workers are 0..{workers - 1}"
            )
        if b in seen:
            raise ValueError(f"bin {b} moves twice in one migration")
        seen.add(b)
    return moves


@dataclass
class HarnessRun:
    """What a run yields besides its :class:`Simulation`."""

    steady: LatencyHistogram
    migrations: list[MigrationRecord]
    total_records: int  # records applied before the drain


def run(
    sim: Simulation,
    *,
    impl: str,
    name: str,
    n_bins: int,
    assignment: np.ndarray,
    logic_factory: Callable[[int], StateLogic],
    c_record: float,
    bin_fn: Callable[[np.ndarray], np.ndarray],
    records: Callable[[float], Optional[TickRecords]],
    record_nbytes: float,
    duration_s: float,
    steady_from_s: float,
    migrations: Optional[list[dict]] = None,
    completion_timeout_s: float = LIMIT_S,
    strict_completion: bool = True,
    drain: bool = True,
) -> HarnessRun:
    """Build, feed and run one workload on ``sim``.

    ``records(t0)`` returns the records that arrived during the tick before
    ``t0`` (or None). ``migrations`` is a list of dicts: ``{"at_s": float,
    "moves": "imbalance"|"rebalance"|list, "strategy": str, "batch_size":
    int|None, "gap_ticks": int}``. The steady-state histogram covers
    ``[steady_from_s, first migration)``, or up to ``duration_s`` when no
    migration is scheduled.
    """
    migrations = migrations or []
    cost = sim.cost
    W = cost.workers
    data_in = InputHandle(sim, "data")
    driver = None
    if impl == "megaphone":
        control_in = InputHandle(sim, "control")
        authority = ConfigAuthority(n_bins, assignment)
        mo = MigratableOperator(
            sim,
            name,
            n_bins=n_bins,
            initial_assignment=assignment,
            logic_factory=logic_factory,
            c_record=c_record,
            data_input=data_in,
            control_input=control_in,
            bin_fn=bin_fn,
            authority=authority,
        )
        driver = MigrationDriver(sim, control_in, mo.probe, authority=authority)
        for m in migrations:
            driver.schedule_migration(
                m["at_s"],
                resolve_moves(m["moves"], n_bins, W),
                m["strategy"],
                batch_size=m.get("batch_size"),
                assignment=assignment,
                gap_ticks=m.get("gap_ticks", 0),
            )
    else:
        assert not migrations, "native operator cannot migrate"
        NativeOperator(
            sim,
            name,
            logic_factory=logic_factory,
            c_record=c_record,
            data_input=data_in,
        )

    tick_ns = int(round(cost.tick * 1e9))
    wpp = cost.workers_per_process

    def feed(sim_: Simulation, t0: float) -> None:
        if data_in.epoch is None:  # closed during drain
            return
        t_ns = int(round(t0 * 1e9))
        got = records(t0)
        if got is not None:
            data, arrivals, dest = got
            if dest is None:
                # ingest at one worker per process, rotating each tick (the
                # paper's harness feeds at every process; rotation keeps the
                # ingest-side routing cost balanced across workers over time)
                group = sim_.tick_index % wpp
                targets = [w for w in range(W) if w % wpp == group]
                parts = np.array_split(np.arange(len(arrivals)), len(targets))
            else:
                targets = range(W)
                parts = [np.flatnonzero(dest == w) for w in targets]
            tick = Batch(time=t_ns, data=data, arrivals=arrivals)
            for w, idx in zip(targets, parts):
                if len(idx):
                    data_in.send(w, tick.take(idx, record_nbytes * len(idx)))
        data_in.advance_to(t_ns + tick_ns)

    sim.on_tick.insert(0, feed)

    steady = LatencyHistogram()
    first_mig = min((m["at_s"] for m in migrations), default=duration_s)
    in_steady = False

    def steady_window(sim_: Simulation, t0: float) -> None:
        nonlocal in_steady
        want = steady_from_s <= t0 < first_mig
        if want and not in_steady:
            sim_.latency_windows.append(steady)
        elif not want and in_steady:
            sim_.latency_windows.remove(steady)
        in_steady = want

    sim.on_tick.append(steady_window)

    sim.run(duration_s)
    # run on until scheduled migrations complete
    if driver is not None and not driver.idle:
        sim.run_until(lambda s: driver.idle, max_seconds=completion_timeout_s)
        if strict_completion:
            assert driver.idle, "migration did not complete (liveness violation)"
    total = sim.latency.total
    if drain:
        sim.drain(max_seconds=LIMIT_S)
    return HarnessRun(
        steady=steady,
        migrations=list(driver.records) if driver else [],
        total_records=total,
    )
