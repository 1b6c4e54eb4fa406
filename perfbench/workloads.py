"""The benchmark's four workloads, their oracles and their model digests.

Each workload calls one public entry point of ``repro`` with inputs made from
the seed (the key/event RNG and ``CostModel.seed``). One call is a
*repetition*; its work depends only on the seed, never on host speed, so a
faster program does the same work in less time, and the repetitions of one
run do identical work.

``StepClock`` times the engines' unit steps from outside: every
``Simulation.step_tick`` and every ``SparkMigratableCount.process_batch``.
Step times are reported in reference seconds (see ``refspeed``).
"""
from __future__ import annotations

import gc
import hashlib
import math
import os
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import numpy as np

from refspeed import Speed
from tracing import BATCH, TICK

PROBE_PERIOD_S = 0.05  # reference-loop probe between ticks, at most this often
BATCH_PROBES = 3  # probes before and after each Spark micro-batch

# the Q4 closed-auction join of the stream tests' DuckDB oracle
CLOSED_SQL = """
    SELECT a.id AS aid, a.seller, a.category, a.expires_ms, MAX(b.price) AS fp
    FROM bids b JOIN auctions a ON b.auction = a.id
    WHERE b.ts_ms >= a.ts_ms AND b.ts_ms < a.expires_ms
    GROUP BY 1, 2, 3, 4
"""


class FirstTick(Exception):
    """Raised by the armed clock when a simulation starts its first tick."""


class StepClock:
    """Always-on step timer with reference-loop probes between steps, plus
    capture of the keys entering a dataflow."""

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.steps: list[tuple[float, float, bool]] = []  # start, end, migrating
        self.stop_at_first_tick = False
        self.capture_keys = False
        self.keys: list[np.ndarray] = []
        self._last_probe = float("-inf")

    def reset(self) -> None:
        self.steps = []
        self.keys = []

    @contextmanager
    def installed(self) -> Iterator["StepClock"]:
        from repro.spark_engine.engine import SparkMigratableCount
        from repro.timely.engine import InputHandle, Simulation

        orig_tick = Simulation.step_tick
        orig_batch = SparkMigratableCount.process_batch
        orig_send = InputHandle.send
        clock, speed = time.perf_counter, self.speed

        def step_tick(sim):
            if self.stop_at_first_tick:
                raise FirstTick
            t0 = clock()
            if t0 - self._last_probe >= PROBE_PERIOD_S:
                t0 = self._last_probe = speed.probe()
            orig_tick(sim)
            self.steps.append((t0, clock(), False))

        def process_batch(eng, keys, moves=None):
            speed.probe(BATCH_PROBES)
            t0 = clock()
            out = orig_batch(eng, keys, moves)
            t1 = clock()
            speed.probe(BATCH_PROBES)
            self.steps.append((t0, t1, bool(moves)))
            return out

        def send(handle, dst_worker, batch):
            if self.capture_keys and handle.name == "data":
                self.keys.append(batch.data["k"])
            return orig_send(handle, dst_worker, batch)

        Simulation.step_tick = step_tick
        SparkMigratableCount.process_batch = process_batch
        InputHandle.send = send
        try:
            yield self
        finally:
            Simulation.step_tick = orig_tick
            SparkMigratableCount.process_batch = orig_batch
            InputHandle.send = orig_send


@dataclass
class Rep:
    """Outcome of one repetition."""

    wall_s: float = 0.0  # first measured step start -> entry call return
    host_wall_s: float = 0.0  # the same in host seconds
    steps_ms: list[float] = field(default_factory=list)  # measured steps
    migrating: list[bool] = field(default_factory=list)  # per measured step
    t_call: float = 0.0  # when the entry call was made
    first_step_end: Optional[float] = None  # end of the first step (preload)
    attempted: int = 0
    failed: int = 0
    model: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    error: Optional[str] = None
    steps_issued: int = 0


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(p.tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:16]


class Workload:
    """One workload: ``call`` runs a repetition, ``check`` scores it."""

    name = ""
    root = TICK  # span name of the engine's unit step
    ops_expected = 1  # operations a failed repetition loses
    skip_steps = 0  # leading steps of a repetition that are not measured

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny

    def call(self, clock: StepClock) -> Any:
        raise NotImplementedError

    def check(self, out: Any, clock: StepClock, rep: Rep) -> None:
        raise NotImplementedError

    def run_rep(self, clock: StepClock) -> Rep:
        gc.collect()
        clock.reset()
        rep = Rep(t_call=time.perf_counter())
        out = None
        try:
            out = self.call(clock)
            t_end = time.perf_counter()
            self.measure(clock, t_end, rep)
            self.check(out, clock, rep)
        except Exception as e:  # a raising run fails all of its operations
            rep.error = f"{type(e).__name__}: {e}"
            rep.attempted, rep.failed = self.ops_expected, self.ops_expected
        del out
        clock.reset()
        return rep

    def measure(self, clock: StepClock, t_end: float, rep: Rep) -> None:
        """Step times and wall time in reference seconds. The remainder
        outside steps and probes is scaled by the whole region's factor."""
        speed, steps = clock.speed, clock.steps
        rep.first_step_end = steps[0][1]
        measured = steps[self.skip_steps :]
        t_first = measured[0][0]
        rep.host_wall_s = t_end - t_first
        rep.steps_ms = [(e - s) * 1e3 * speed.factor(s, e) for s, e, _ in measured]
        rep.migrating = [m for _, _, m in measured]
        rest = (
            rep.host_wall_s
            - sum(e - s for s, e, _ in measured)
            - speed.probe_time(t_first, t_end)
        )
        rep.wall_s = sum(rep.steps_ms) / 1e3 + rest * speed.factor(t_first, t_end)

    def setup_probe(self, clock: StepClock) -> float:
        """Reference seconds from the entry call to the start of its first
        tick."""
        clock.stop_at_first_tick = True
        t0 = clock.speed.probe(BATCH_PROBES)
        try:
            self.call(clock)
        except FirstTick:
            t1 = time.perf_counter()
            clock.speed.probe(BATCH_PROBES)
            return (t1 - t0) * clock.speed.factor(t0, t1)
        finally:
            clock.stop_at_first_tick = False
            clock.reset()
        raise RuntimeError(f"{self.name}: entry call returned without a tick")

    # -- simulator model outputs ------------------------------------------
    def sim_model(self, run: Any, cost: Any, rep: Rep, *outputs: Any) -> None:
        sim = run.sim
        migs = run.migrations
        rep.steps_issued = sum(m.steps_issued for m in migs)
        rep.model = {
            "sim_s": sim.now,
            "records": float(sim.latency.total),
            "mig_duration_s": sum(m.duration_s or 0.0 for m in migs),
            "mig_max_latency_ms": max((m.max_latency_s for m in migs), default=0.0)
            * 1e3,
            "steady_p99_ms": run.steady.percentile(99) * 1e3,
        }
        rep.digest = _digest(
            sim.tick_index,
            sim.now,
            sim.total_cpu,
            sim.latency.counts,
            sim.latency.max,
            run.steady.counts,
            [(m.started_s, m.completed_s, m.steps_issued, m.window.max) for m in migs],
            # the jitter RNG's final state pins the number and order of draws
            cost._rng.bit_generator.state,
            *outputs,
        )


class CountWorkload(Workload):
    """Megaphone key-count; the oracle is ``np.bincount`` of the keys that
    entered the dataflow."""

    ops_expected = 1 << 20  # run_count's default in-memory key domain

    def call(self, clock: StepClock) -> Any:
        from repro.timely.cost import CostModel

        self.cost = CostModel(seed=self.seed)
        clock.capture_keys = True
        try:
            return self.entry(self.cost)
        finally:
            clock.capture_keys = False

    def check(self, out: Any, clock: StepClock, rep: Rep) -> None:
        run = out[0] if isinstance(out, tuple) else out
        keys = np.concatenate(clock.keys)
        want = np.bincount(keys, minlength=len(run.final_counts))
        rep.attempted = len(want)
        rep.failed = int(np.count_nonzero(run.final_counts != want))
        self.sim_model(run, self.cost, rep, run.final_counts)


class CountSteady(CountWorkload):
    name = "count-steady"

    def entry(self, cost):
        from repro.microbench.count import run_count

        return run_count(
            impl="megaphone",
            flavour="key",
            nominal_keys=256e6,
            n_bins=4096,
            rate=4e6,
            duration_s=0.05 if self.tiny else 1.0,
            warmup_s=0.01 if self.tiny else 0.25,
            cost=cost,
            seed=self.seed,
        )


class CountFluid(CountWorkload):
    name = "count-fluid"

    def entry(self, cost):
        from repro.microbench.migration import migrate_once

        return migrate_once(
            flavour="key",
            nominal_keys=16e6 if self.tiny else 512e6,
            n_bins=64 if self.tiny else 4096,
            strategy="fluid",
            rate=2.5e5,
            warmup_s=0.05 if self.tiny else 0.6,
            post_s=0.02 if self.tiny else 0.2,
            cost=cost,
            seed=self.seed,
        )


class NexmarkQ4(Workload):
    """NEXMark Q4 with a batched migration; the oracle is DuckDB's average
    closing price per category over the same generated events."""

    name = "nexmark-q4"

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.n_events = 4_000 if tiny else 40_000
        self.rate = 1e4
        self._expected: Optional[dict[int, float]] = None
        self.ops_expected = len(self.expected())

    def expected(self) -> dict[int, float]:
        if self._expected is None:
            import duckdb

            from repro.nexmark.generator import nexmark_events, split_events

            events = nexmark_events(self.n_events, rate_per_s=self.rate, seed=self.seed)
            _, auctions, bids = split_events(events)
            con = duckdb.connect()
            try:
                con.register("auctions", auctions)
                con.register("bids", bids)
                rows = con.execute(
                    f"WITH c AS ({CLOSED_SQL}) "
                    "SELECT category, AVG(fp) FROM c GROUP BY 1 ORDER BY 1"
                ).fetchall()
            finally:
                con.close()
            self._expected = {int(k): float(v) for k, v in rows}
        return self._expected

    def call(self, clock: StepClock) -> Any:
        from repro.nexmark.stream import run_nexmark
        from repro.timely.cost import CostModel

        self.cost = CostModel(workers=8, workers_per_process=4, seed=self.seed)
        return run_nexmark(
            query="q4",
            impl="megaphone",
            n_events=self.n_events,
            rate_per_s=self.rate,
            n_bins=1024,
            state_scale=2e4,
            migrations=[
                {
                    "at_s": 0.2 if self.tiny else 3.0,
                    "moves": "imbalance",
                    "strategy": "batched",
                }
            ],
            cost=self.cost,
            seed=self.seed,
        )

    def check(self, run: Any, clock: StepClock, rep: Rep) -> None:
        sums: dict[int, tuple[float, int]] = {}
        for cat, price in run.results:
            s, c = sums.get(cat, (0.0, 0))
            sums[cat] = (s + price, c + 1)
        got = {int(k): s / c for k, (s, c) in sums.items()}
        want = self.expected()
        cats = set(got) | set(want)
        rep.attempted = len(cats)
        # DuckDB's parallel AVG varies in the last bit from run to run
        rep.failed = sum(
            k not in got or k not in want or not math.isclose(got[k], want[k], rel_tol=1e-9)
            for k in cats
        )
        self.sim_model(run, self.cost, rep, sorted(got.items()))


class SparkFluid(Workload):
    """Closed loop of Spark micro-batches with a fluid migration; the oracle
    is DuckDB's count per key over the same generated keys, and every state
    row must sit at its bin's configured worker."""

    name = "spark-fluid"
    root = BATCH
    skip_steps = 2  # the preload batch and one warm-up batch

    def __init__(self, seed: int, tiny: bool, spark: Any) -> None:
        super().__init__(seed, tiny)
        self.spark = spark
        self.n_keys = 5_000 if tiny else 50_000
        self.ops_expected = self.n_keys

    def call(self, clock: StepClock) -> Any:
        from repro.spark_engine.experiment import migration_timeline

        return migration_timeline(
            self.spark,
            strategy="fluid",
            n_workers=8,
            n_bins=128,
            n_keys=self.n_keys,
            batch_records=2_000 if self.tiny else 20_000,
            n_batches=4 if self.tiny else 12,
            migrate_at_batch=3 if self.tiny else 6,
            seed=self.seed,
        )

    def check(self, res: dict, clock: StepClock, rep: Rep) -> None:
        import duckdb
        import pandas as pd

        eng = res["engine"]
        got = eng.counts_pandas()
        con = duckdb.connect()
        try:
            con.register("inp", pd.DataFrame({"key": res["input_keys"]}))
            con.register("got", got)
            n_keys, failed = con.execute(
                """
                WITH want AS (SELECT key, COUNT(*) AS cnt FROM inp GROUP BY key)
                SELECT COUNT(*),
                       COUNT(*) FILTER (WHERE want.cnt IS DISTINCT FROM got.cnt)
                FROM want FULL OUTER JOIN got ON want.key = got.key
                """
            ).fetchone()
        finally:
            con.close()
        rep.attempted, rep.failed = int(n_keys), int(failed)
        placed = eng.placement_pandas()
        if not np.array_equal(
            placed.worker.to_numpy(), eng.routing[placed.bin.to_numpy()]
        ):
            raise AssertionError("Migration property violated: state row off its worker")
        final = got.sort_values("key")
        rep.digest = _digest(final.key.to_numpy(), final.cnt.to_numpy())


def spark_session(root: Path):
    """A local[4] SparkSession whose scratch files stay under ``root``."""
    tmp = root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # every JVM, the spark-submit launcher's too, keeps its files in ``tmp``
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[4] --driver-memory 1g "
        # a pre-touched fixed heap keeps the JVM's resident set independent of
        # when its garbage collector chooses to grow the heap
        "--driver-java-options '-Xms1g -XX:+AlwaysPreTouch' "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "--conf spark.driver.host=127.0.0.1 "
        f"--conf spark.local.dir={tmp} "
        "pyspark-shell"
    )
    import tempfile

    tempfile.tempdir = None  # pyspark's gateway files go to TMPDIR: re-read it
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", str(root / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_pid(spark) -> Optional[int]:
    try:
        return int(spark.sparkContext._gateway.proc.pid)
    except AttributeError:
        return None


def stop_spark(spark) -> None:
    """Stop the session, then end the driver JVM and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "count-steady": CountSteady,
    "count-fluid": CountFluid,
    "nexmark-q4": NexmarkQ4,
    "spark-fluid": SparkFluid,
}
