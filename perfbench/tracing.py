"""Span tracing of the ``repro`` layers, applied at runtime from outside.

:func:`instrument` replaces public functions and methods of the ``repro``
modules with wrappers that record one span per call (name, start, end,
parent) into a :class:`Tracer`, and restores the originals on exit. Nothing
under ``src/`` is edited. A layer's self time is the duration of its spans
minus the part their child spans cover; spans nest strictly (one thread), so
the children's durations sum to the covered part.

Where a layer is reached through a name bound in its caller's module (the
binning functions), the wrapper replaces the name the caller looks up.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import numpy as np

# span name of the root span of each engine's unit step
TICK = "timely.engine.tick"
BATCH = "spark_engine.batch"

# the remainder of a root step span that no layer span covers
UNATTRIBUTED = "trace.unattributed"


class Tracer:
    """In-memory span store plus named counters and maxima."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        hook: Optional[Callable[[tuple, dict, Any], None]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span; ``hook(args, kwargs, result)``
        runs inside the span, so its cost is not charged to the caller."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name,
            self.parent,
            self.start,
            self.end,
            self.stack,
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                ends[i] = clock()
                stack.pop()

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        wrapper._perfbench_span = name
        return wrapper

    def current_parent_name(self) -> Optional[str]:
        """Name of the span enclosing the innermost open span."""
        if len(self.stack) < 3:
            return None
        return self.names[self.name[self.stack[-2]]]

    # -- analysis ----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self, root: str) -> dict[str, Any]:
        """Per-name self time, total time and calls, plus coverage of the
        spans rooted at ``root`` (the engine's step spans)."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        n, k = len(name), len(self.names)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        self_t = dur - covered
        # root of every span by pointer jumping (parents precede children)
        idx = np.arange(n, dtype=np.int64)
        root_of = np.where(has_parent, parent, idx).astype(np.int64)
        while n:
            nxt = root_of[root_of]
            if np.array_equal(nxt, root_of):
                break
            root_of = nxt
        root_id = self._ids.get(root, -1)
        in_steps = name[root_of] == root_id if n else np.zeros(0, dtype=bool)
        is_step = name == root_id
        step_total = float(dur[is_step].sum())
        step_self = float(self_t[is_step].sum())
        layer_self = float(self_t[in_steps & ~is_step].sum())
        return {
            "self": dict(zip(self.names, np.bincount(name, weights=self_t, minlength=k))),
            "total": dict(zip(self.names, np.bincount(name, weights=dur, minlength=k))),
            "calls": dict(zip(self.names, np.bincount(name, minlength=k))),
            "step_total_s": step_total,
            "step_layers_s": layer_self,
            "step_unattributed_s": step_self,
            "spans": n,
        }

    def write(self, path: Path) -> None:
        """Write all spans to ``path`` (compressed ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _Patcher:
    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


def _len_of(x: Any) -> int:
    try:
        return len(x)
    except TypeError:
        return 1


@contextmanager
def instrument(tr: Tracer) -> Iterator[Tracer]:
    """Patch every traced layer of ``repro`` for the duration of the block."""
    from repro.core import control, operators, strategies
    from repro.latency import histogram
    from repro.microbench import count
    from repro.nexmark import queries_megaphone, stream
    from repro.spark_engine import engine as spark_engine
    from repro.timely import cost, engine, notificator

    p = _Patcher()
    c = tr.counts

    def span(owner, attr, name, hook=None):
        p.set(owner, attr, tr.wrap(name, owner.__dict__[attr], hook))

    # -- timely.engine ------------------------------------------------------
    orig_step = engine.Simulation.step_tick

    def step_tick(sim):
        # the workload's per-tick callbacks (input feed, latency windows) are
        # closures inside the harness: wrap them once per simulation
        if not sim.__dict__.get("_perfbench_wrapped"):
            sim._perfbench_wrapped = True
            sim.on_tick[:] = [
                cb
                if hasattr(cb, "_perfbench_span")
                else tr.wrap(f"harness.{getattr(cb, '__name__', 'on_tick')}", cb)
                for cb in sim.on_tick
            ]
        return orig_step(sim)

    p.set(engine.Simulation, "step_tick", tr.wrap(TICK, step_tick))
    span(engine.Simulation, "recompute_frontiers", "timely.engine.frontier")
    span(engine.Channel, "deliver_due", "timely.engine.deliver")

    def on_send(args, kwargs, result):
        ctx, _, dst_worker, batch = args
        c["timely.engine.messages"] += 1
        cm = ctx.sim.cost
        if cm.process_of(ctx.worker) != cm.process_of(dst_worker):
            c["timely.engine.nic_bytes"] += batch.nbytes

    span(engine.Ctx, "send", "timely.engine.send", on_send)

    def on_schedule(args, kwargs, result):
        c["timely.engine.schedule_calls"] += 1
        c["timely.engine.schedule_useful"] += bool(result)

    # -- core.operators -----------------------------------------------------
    span(operators._FInstance, "schedule", "core.operators.F_schedule", on_schedule)
    span(operators._SInstance, "schedule", "core.operators.S_schedule", on_schedule)
    span(operators._SInstance, "uninstall_bin", "core.operators.S_uninstall")

    # -- user logic ---------------------------------------------------------
    def on_apply(args, kwargs, result):
        c["logic.records"] += _len_of(args[2]["k"])

    logic_classes = [count.CountLogic] + list(
        queries_megaphone.MEGAPHONE_IMPLS.values()
    )
    for cls in logic_classes:
        if "apply" in cls.__dict__:
            span(cls, "apply", "logic.apply", on_apply)
    for cls in (count.CountLogic, stream.NexLogic):
        span(cls, "extract_bin", "logic.extract")
        span(cls, "install_bin", "logic.install")

    # -- core.binning (the names each caller looks up) ----------------------
    def on_bin(args, kwargs, result):
        c["core.binning.keys"] += _len_of(args[0])

    span(count, "range_bin_of_keys", "core.binning", on_bin)
    span(stream, "bin_of_keys", "core.binning", on_bin)
    span(stream, "hash_keys", "core.binning", on_bin)
    span(spark_engine, "bin_of_keys", "core.binning", on_bin)

    # -- core.control -------------------------------------------------------
    def on_lookup(args, kwargs, result):
        # epochs of the routing tables F consults; the authority's table is
        # a verification aid that is never compacted
        if tr.current_parent_name() != "core.control.check":
            n = len(args[0].times)
            if n > tr.maxima.get("core.control.epochs_max", 0):
                tr.maxima["core.control.epochs_max"] = n

    span(control.RoutingTable, "lookup", "core.control.lookup", on_lookup)
    span(control.ConfigAuthority, "check", "core.control.check")

    # -- core.strategies (patched on the class before drivers bind it) ------
    span(strategies.MigrationDriver, "on_tick", "core.strategies.driver")

    # -- latency.histogram --------------------------------------------------
    def on_record(args, kwargs, result):
        c["latency.histogram.values"] += _len_of(args[1])

    span(histogram.LatencyHistogram, "record", "latency.histogram.record", on_record)

    # -- timely.notificator -------------------------------------------------
    nc = notificator.Notificator
    orig_ripe = nc.ripe

    def ripe(self, frontier):
        # materialised so the drain is timed inside the span; every caller
        # iterates it to the end without touching the notificator
        return iter(list(orig_ripe(self, frontier)))

    p.set(nc, "ripe", tr.wrap("timely.notificator", ripe))
    for attr in ("notify_at", "min_time", "drain_all", "pending_times"):
        span(nc, attr, "timely.notificator")

    # -- timely.cost --------------------------------------------------------
    span(cost.CostModel, "jitter", "timely.cost.jitter")

    # -- spark_engine -------------------------------------------------------
    def on_migrate(args, kwargs, result):
        c["spark_engine.moved_rows"] += int(result["moved_rows"])

    span(spark_engine.SparkMigratableCount, "migrate", "spark_engine.migrate", on_migrate)
    orig_batch = spark_engine.SparkMigratableCount.process_batch

    def process_batch(eng, *args, **kwargs):
        sc = eng.spark.sparkContext
        group = f"perfbench-batch-{c['spark_engine.batches']}"
        sc.setJobGroup(group, group)
        try:
            result = orig_batch(eng, *args, **kwargs)
        finally:
            sc.setJobGroup("perfbench-idle", "perfbench-idle")
        c["spark_engine.batches"] += 1
        c["spark_engine.state_rows_last"] = int(result["state_rows"])
        stages, shuffle = _stage_stats(sc, group)
        c["spark_engine.stages"] += stages
        if shuffle is not None:
            c["spark_engine.shuffle_write_bytes"] += shuffle
        else:
            c["spark_engine.shuffle_unreadable"] += 1
        return result

    p.set(spark_engine.SparkMigratableCount, "process_batch", tr.wrap(BATCH, process_batch))

    try:
        yield tr
    finally:
        p.restore()


def _stage_stats(sc, group: str) -> tuple[int, Optional[int]]:
    """(stages executed, shuffle bytes written) by the jobs of one job group,
    from the status tracker and, when reachable, Spark's status store."""
    st = sc.statusTracker()
    stage_ids = {
        s for j in st.getJobIdsForGroup(group) for s in st.getJobInfo(j).stageIds
    }
    try:
        store = sc._jsc.sc().statusStore()
        executed, shuffle = 0, 0
        for s in stage_ids:
            att = store.lastStageAttempt(s)
            if att.status().toString() != "SKIPPED":
                executed += 1
                shuffle += int(att.shuffleWriteBytes())
        return executed, shuffle
    except Exception:  # py4j errors: the status store is private API
        return len(stage_ids), None
