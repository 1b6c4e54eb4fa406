"""Benchmark of the Megaphone reproduction: simulator host cost and Spark
micro-batch latency on four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload count-steady --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics of a separate traced repetition. The lines before it give
every metric by name and unit, and the model digest of the workload.
``perfbench/README.md`` defines each metric.
"""
import time

T_START = time.perf_counter()

from refspeed import Speed  # noqa: E402  (the script's directory is on sys.path)
import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"  # spans, model digests and Spark scratch files

SETUP_PROBES = 3  # simulator set-ups per run; setup_s takes their median
MIN_REPS = 2  # repetitions per run at least; peak RSS is read after them


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true", help="smallest sizes, for the self-test"
    )
    return ap.parse_args(argv)


def peak_rss_mib(jvm_pid=None) -> tuple[float, bool]:
    """Peak resident MiB of this process plus the driver JVM's, and whether
    the JVM's could be read."""
    mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if jvm_pid is None:
        return mib, False
    try:
        with open(f"/proc/{jvm_pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return mib + int(line.split()[1]) / 1024.0, True
    except OSError:
        pass
    return mib, False


def pct(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else float("nan")


def run_reps(w, clock, seconds, after_min):
    """Repeat the workload until another repetition would end past
    ``seconds``; at least ``MIN_REPS``, after which ``after_min`` runs."""
    reps, t0 = [], time.perf_counter()
    while True:
        reps.append(w.run_rep(clock))
        if len(reps) == MIN_REPS:
            after_min()
        elapsed = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > seconds:
            return reps


def check_digests(name, seed, tiny, reps) -> bool:
    """Print the model digest; False if repetitions of this run disagree.
    A digest that differs from an earlier run of this checkout is flagged."""
    digests = sorted({r.digest for r in reps if r.error is None})
    if not digests:
        return True
    same = len(digests) == 1
    print(f"model_digest {name} seed={seed} {' '.join(digests)}")
    if not same:
        print(f"MODEL DIGEST MISMATCH within run: {name} seed={seed}")
    store = OUT / "model_digests.json"
    key = f"{name}|seed={seed}|tiny={int(tiny)}"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known and known[key] != digests[0]:
        print(
            f"MODEL DIGEST CHANGED: {key} was {known[key]}, now {digests[0]}"
        )
    known[key] = digests[0]
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return same


def report_errors(name, reps):
    for r in reps:
        if r.error:
            print(f"ERROR {name}: {r.error}")


def untraced(w, clock, args, import_s, spark_start, jvm_pid):
    from workloads import SparkFluid

    spark = isinstance(w, SparkFluid)
    probes = []
    try:
        if not spark:
            probes = [w.setup_probe(clock) for _ in range(SETUP_PROBES)]
    except Exception as e:  # the repetitions then fail and are counted
        print(f"ERROR {w.name} set-up: {type(e).__name__}: {e}")
    rss = []
    reps = run_reps(w, clock, args.seconds, lambda: rss.append(peak_rss_mib(jvm_pid)))
    good = [r for r in reps if r.error is None]
    print(
        f"{w.name} seed={args.seed} reps={len(reps)} steps/rep={len(reps[0].steps_ms)}"
        f" wall_s/rep={' '.join(f'{r.wall_s:.3f}' for r in good)}"
        f" host_wall_s/rep={' '.join(f'{r.host_wall_s:.3f}' for r in good)}"
    )
    report_errors(w.name, reps)
    ok = check_digests(w.name, args.seed, args.tiny, reps)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if spark:
        # session and JVM start, then the first (preload) batch
        first = reps[0]
        t1 = first.first_step_end or first.t_call
        setup = import_s + (t1 - spark_start) * clock.speed.factor(spark_start, t1)
    else:
        setup = import_s + (statistics.median(probes) if probes else float("nan"))
    mib, jvm_read = rss[0]
    if spark and not jvm_read:
        print("note: driver JVM peak RSS not readable; peak_rss_mib is Python only")
    nan = float("nan")
    steps = [x for r in good for x in r.steps_ms]
    steady = [x for r in good for x, m in zip(r.steps_ms, r.migrating) if not m]
    migrating = [x for r in good for x, m in zip(r.steps_ms, r.migrating) if m]
    wall = statistics.median(r.wall_s for r in good) if good else nan
    e2e = {
        "wall_s": wall,
        "setup_s": setup,
        "peak_rss_mib": mib,
        "correct_ops_ratio": 1.0 - failed / max(attempted, 1),
    }
    # per-engine metrics and host seconds, for the human-readable lines only
    extra = {
        "failed_ops_ratio": (failed / max(attempted, 1), "ratio"),
        "host_wall_s": (statistics.median(r.host_wall_s for r in good) if good else nan, "s"),
    }
    if spark:
        extra["batch_ms_p50"] = (pct(steady, 50), "ms")
        extra["migrate_batch_ms_p50"] = (pct(migrating, 50), "ms")
    else:
        extra["sim_s_per_wall_s"] = (good[0].model["sim_s"] / wall if good else nan, "sim_s/s")
        extra["tick_ms_p50"] = (pct(steps, 50), "ms")
        extra["tick_ms_p99"] = (pct(steps, 99), "ms")
    correct = ok and not any(r.error for r in reps) and failed == 0
    return e2e, extra, correct, attempted, failed


def traced(w, clock, args):
    """Untraced, traced, untraced repetitions; per-layer metrics of the
    traced one, and its wall time over the untraced mean."""
    from tracing import Tracer, instrument

    before = w.run_rep(clock)
    tr = Tracer()
    with instrument(tr):
        rep = w.run_rep(clock)
    after = w.run_rep(clock)
    reps = [before, rep, after]
    print(
        f"{w.name} seed={args.seed} wall_s untraced {before.wall_s:.4f},"
        f" traced {rep.wall_s:.4f}, untraced {after.wall_s:.4f}"
    )
    report_errors(w.name, reps)
    ok = check_digests(w.name, args.seed, args.tiny, reps)
    s = tr.summary(w.root)
    tr.write(OUT / f"spans-{w.name}-seed{args.seed}.npz")
    total = s["step_layers_s"] + s["step_unattributed_s"]
    covered = abs(total - s["step_total_s"]) <= 1e-6 * max(s["step_total_s"], 1e-9)
    print(
        f"coverage {'ok' if covered else 'FAILED'}: layers {s['step_layers_s']:.6f} s"
        f" + unattributed {s['step_unattributed_s']:.6f} s"
        f" = {total:.6f} s of {s['step_total_s']:.6f} s in {s['spans']} spans"
    )
    untraced_wall = (before.wall_s + after.wall_s) / 2
    metrics = layer_metrics(s, tr, rep, rep.wall_s / untraced_wall if untraced_wall else 0.0)
    correct = ok and covered and not any(r.error for r in reps) and rep.failed == 0
    return metrics, correct, rep.attempted, rep.failed


def layer_metrics(s, tr, rep, overhead):
    self_t, total, calls, c = s["self"], s["total"], s["calls"], tr.counts

    def st(name):
        return float(self_t.get(name, 0.0))

    def n(name):
        return float(calls.get(name, 0))

    sched = c["timely.engine.schedule_calls"]
    batches = c["spark_engine.batches"]
    migrate_s = float(total.get("spark_engine.migrate", 0.0))
    m = {
        "timely.engine.frontier_s": st("timely.engine.frontier"),
        "timely.engine.frontier_calls": n("timely.engine.frontier"),
        "timely.engine.deliver_s": st("timely.engine.deliver"),
        "timely.engine.messages": float(c["timely.engine.messages"]),
        "timely.engine.nic_bytes": float(c["timely.engine.nic_bytes"]),
        "timely.engine.schedule_calls": float(sched),
        "timely.engine.schedule_useful_ratio": c["timely.engine.schedule_useful"] / sched
        if sched
        else 0.0,
        "core.operators.F_schedule_s": st("core.operators.F_schedule"),
        "core.operators.S_schedule_s": st("core.operators.S_schedule"),
        "core.operators.S_uninstall_s": st("core.operators.S_uninstall"),
        "core.operators.S_uninstall_calls": n("core.operators.S_uninstall"),
        "logic.apply_s": st("logic.apply"),
        "logic.apply_calls": n("logic.apply"),
        "logic.records": float(c["logic.records"]),
        "logic.extract_s": st("logic.extract"),
        "logic.install_s": st("logic.install"),
        "core.binning.s": st("core.binning"),
        "core.binning.calls": n("core.binning"),
        "core.binning.keys": float(c["core.binning.keys"]),
        "core.control.lookup_s": st("core.control.lookup"),
        "core.control.lookup_calls": n("core.control.lookup"),
        "core.control.check_s": st("core.control.check"),
        "core.control.epochs_max": float(tr.maxima.get("core.control.epochs_max", 0)),
        "core.strategies.driver_s": st("core.strategies.driver"),
        "core.strategies.steps_issued": float(rep.steps_issued),
        "latency.histogram.record_s": st("latency.histogram.record"),
        "latency.histogram.record_calls": n("latency.histogram.record"),
        "latency.histogram.values": float(c["latency.histogram.values"]),
        "timely.notificator.s": st("timely.notificator"),
        "timely.notificator.calls": n("timely.notificator"),
        "timely.cost.jitter_calls": n("timely.cost.jitter"),
        "timely.cost.jitter_s": st("timely.cost.jitter"),
        "harness.on_tick_s": sum(v for k, v in self_t.items() if k.startswith("harness.")),
        "spark_engine.migrate_s": migrate_s,
        "spark_engine.data_path_s": float(total.get("spark_engine.batch", 0.0)) - migrate_s,
        "spark_engine.moved_rows": float(c["spark_engine.moved_rows"]),
        "spark_engine.state_rows": float(c["spark_engine.state_rows_last"]),
        "spark_engine.stages_per_batch": c["spark_engine.stages"] / batches if batches else 0.0,
        "spark_engine.shuffle_write_bytes_per_batch": c["spark_engine.shuffle_write_bytes"]
        / batches
        if batches
        else 0.0,
        "trace.overhead_ratio": overhead,
        "trace.step_loop_s": s["step_total_s"],
        "trace.unattributed_s": s["step_unattributed_s"],
        "trace.coverage_ratio": s["step_layers_s"] / s["step_total_s"]
        if s["step_total_s"]
        else 0.0,
        "trace.spans": float(s["spans"]),
    }
    if c["spark_engine.shuffle_unreadable"]:
        print("note: Spark status store unreadable; shuffle bytes not measured")
    for k in ("sim_s", "records", "mig_duration_s", "mig_max_latency_ms", "steady_p99_ms"):
        m[f"model.{k}"] = float(rep.model.get(k, 0.0))
    return m


def emit(specs, values, prefix=""):
    """Metric objects for ``specs`` (BENCHMARK.json entries) and print each."""
    out = {}
    for spec in specs:
        v = float(values[spec["name"]])
        v = 0.0 if v != v else v  # NaN when no repetition succeeded
        out[prefix + spec["name"]] = {"value": v, "unit": spec["unit"]}
        print(f"  {spec['name']:<44} {v:>16.6g} {spec['unit']}")
    return out


def main(argv=None) -> int:
    speed = Speed()
    speed.probe(3)
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from a checkout", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_file.read_text())
    names = [wl["name"] for wl in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(c not in names for c in chosen):
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    sys.path.insert(0, str(ROOT / "src"))

    import numpy  # noqa: F401
    import repro.microbench.migration  # noqa: F401
    import repro.nexmark.stream  # noqa: F401
    import repro.spark_engine.engine  # noqa: F401
    from workloads import WORKLOADS, StepClock, jvm_pid, spark_session, stop_spark

    t_imported = speed.probe(3)
    import_s = (t_imported - T_START) * speed.factor(T_START, t_imported)
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    spark = pid = spark_start = None
    all_ok, attempted, failed, metrics = True, 0, 0, {}
    clock = StepClock(speed)
    try:
        with clock.installed():
            for name in chosen:
                if name == "spark-fluid":
                    spark_start = speed.probe(3)
                    spark = spark_session(OUT)
                    pid = jvm_pid(spark)
                    w = WORKLOADS[name](args.seed, args.tiny, spark)
                else:
                    w = WORKLOADS[name](args.seed, args.tiny)
                if args.trace:
                    values, ok, a, f = traced(w, clock, args)
                else:
                    values, extra, ok, a, f = untraced(w, clock, args, import_s, spark_start, pid)
                prefix = f"{name}." if len(chosen) > 1 else ""
                metrics.update(emit(metric_specs, values, prefix))
                if not args.trace:
                    for k, (v, unit) in extra.items():
                        print(f"  {k:<44} {v:>16.6g} {unit}")
                all_ok &= ok
                attempted += a
                failed += f
    finally:
        if spark is not None:
            stop_spark(spark)
    print(
        json.dumps(
            {
                "correct": bool(all_ok),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
