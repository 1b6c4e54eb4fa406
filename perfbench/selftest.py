"""Self-test of the benchmark at its smallest sizes.

Runs every workload (or those named) with ``--tiny``, untraced and traced,
and checks that each run exits 0 and prints, as its last line, a correct JSON
result holding every ``BENCHMARK.json`` metric of its mode under its unit;
that the lines before it name every metric with its unit and give the model
digest; and that the benchmark refuses to run without the program's sources.

    python3 perfbench/selftest.py [workload ...]
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-engine metrics, printed on the human-readable lines only
EXTRA_SIM = {
    "failed_ops_ratio": "ratio",
    "sim_s_per_wall_s": "sim_s/s",
    "tick_ms_p50": "ms",
    "tick_ms_p99": "ms",
}
EXTRA_SPARK = {
    "failed_ops_ratio": "ratio",
    "batch_ms_p50": "ms",
    "migrate_batch_ms_p50": "ms",
}


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def check(workload: str, trace: int) -> list[str]:
    p = run(
        ["--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        ROOT,
    )
    where = f"{workload} --trace {trace}"
    if p.returncode != 0:
        return [f"{where}: exit {p.returncode}\n{p.stdout[-2000:]}{p.stderr[-2000:]}"]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    text = "\n".join(lines[:-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: not correct: {lines[-1][:300]}\n{text[-2000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')!r}")
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {s["name"]: s["unit"] for s in specs}
    got = result.get("metrics", {})
    if set(got) != set(want):
        errors.append(f"{where}: metric names differ: {sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        m = got.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {name} is {m!r}, want a number in {unit}")
    if not trace:
        want.update(EXTRA_SPARK if workload == "spark-fluid" else EXTRA_SIM)
    for name, unit in want.items():
        if not re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", text, re.M):
            errors.append(f"{where}: no line for {name} [{unit}]")
    if not re.search(rf"^model_digest {re.escape(workload)} ", text, re.M):
        errors.append(f"{where}: no model digest")
    return errors


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        p = run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or '"metrics"' in p.stdout:
        return [f"bare directory: exit {p.returncode}, stdout {p.stdout[-300:]!r}"]
    return []


def main() -> int:
    names = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    errors = check_refuses_without_sources()
    for name in names:
        for trace in (0, 1):
            found = check(name, trace)
            print(f"{name} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    print("selftest", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
