"""rokhlin benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  The program is used from ``src/`` as it
stands, in fresh interpreters with BLAS_THREADS BLAS threads:

1. SETUP_SAMPLES+1 interpreters each import ``rokhlin.cli``; the first one
   compiles the bytecode and is discarded, the median of the rest is setup_s.
2. The workload's inputs are generated from the seed under ``.bench_work/``.
3. One worker process (one client, closed loop) sends the workload's requests
   through ``rokhlin.cli.main`` for S seconds.  run_s and cpu_s are the time
   of all its passes divided by their number, peak_rss_mb its peak resident
   memory.
4. Every report is checked (see workloads.py) and must be byte-identical
   across the passes of a run.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the worker adds one pass under the span tracer (spans.py) and the
line carries the per-layer metrics instead.  The lines before it print every
metric with its unit, the failure ratio, report digests and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
# the reference eigensolves in this process use the same thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import workloads  # noqa: E402  (imports numpy)
from spans import COUNTERS, TRACED, self_metric, span_name  # noqa: E402

DEFAULT_SEED = 1
# Seed 7919 is held out: it is not used while the benchmark or a change is
# tuned, and a claimed gain must also hold on it.
SETUP_SAMPLES = 7
# On a shared virtual machine speed can swing by +-20% in spells of 10-60 s
# (seen on a 2-vCPU Xeon VM).  The mean pass time over the whole window then
# spreads less between runs than the median of its few passes, so run_s and
# cpu_s are means; the median and a tail percentile are printed beside them.
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 140
# the traced pass must spend at least this share of its time inside cli.main
TOP_SPAN_MIN_SHARE = 0.99

PROBE = (
    "import time, rokhlin.cli; t = time.monotonic_ns(); import json, platform, numpy, rokhlin; "
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
    "print(json.dumps({'t_ns': t, 'file': rokhlin.__file__, 'python': platform.python_version(), "
    "'numpy': numpy.__version__, 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))"
)


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def probe(env: dict) -> tuple[float, dict]:
    """Seconds from spawning an interpreter until ``import rokhlin.cli`` is done."""
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"importing rokhlin failed:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    return (info["t_ns"] - start) / 1e9, info


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Digest of the program and of the benchmark that generates its inputs."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "rokhlin").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_worker(plan_path: Path, seconds: int, trace: int, result_path: Path, env: dict) -> dict:
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           str(plan_path.relative_to(ROOT)), str(seconds), str(trace), str(result_path)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise HarnessError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text())


def check_outputs(plan: dict, result: dict, refs: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every request of every pass.

    A request fails on an exception, a nonzero exit, a failed assertion row, a
    reference mismatch, or a report that differs from the first pass's.
    """
    passes = result["passes"] + ([result["traced"]] if "traced" in result else [])
    problems, failed = [], 0
    for idx, req in enumerate(plan["requests"]):
        first = result["passes"][0]["requests"][idx]
        try:
            if first["error"]:
                raise workloads.CheckError(f"raised:\n{first['error']}")
            text = (ROOT / req["report"]).read_text()
            workloads.check_report(text, first["code"], req["check"], ROOT, refs)
            bad = None
        except (workloads.CheckError, KeyError, TypeError, ValueError) as exc:
            bad = f"{' '.join(req['argv'])}: {exc}"
        if bad is not None:
            problems.append(bad)
            failed += len(passes)
            continue
        for n, ps in enumerate(passes):
            if ps["requests"][idx]["digest"] != first["digest"]:
                problems.append(f"{' '.join(req['argv'])}: report of pass {n} differs from pass 0")
                failed += 1
    return sum(len(ps["requests"]) for ps in passes), failed, problems


def check_repeats(path: Path, digests: list[str], counters: dict | None) -> list[str]:
    """Report digests, and the deterministic counters of traced runs, must
    repeat exactly across runs with the same source and seed.  The first run
    records them."""
    record = {"source": source_digest(), "digests": digests, "counters": counters}
    old = json.loads(path.read_text()) if path.exists() else None
    if old is None or old["source"] != record["source"]:
        path.write_text(json.dumps(record))
        return []
    problems = []
    if old["digests"] != digests:
        problems.append("report digests differ from an earlier run with the same seed")
    if counters is not None and old["counters"] is None:
        path.write_text(json.dumps(dict(old, counters=counters)))
    elif counters is not None and old["counters"] != counters:
        diff = {k: (old["counters"].get(k), v) for k, v in counters.items() if old["counters"].get(k) != v}
        problems.append(f"counters differ from an earlier run with the same seed: {diff}")
    return problems


def layer_metrics(result: dict, untraced_run_s: float) -> dict:
    summary = result["trace"]
    metrics = {}
    for module, path in TRACED:
        name = span_name(module, path)
        metrics[self_metric(name)] = (summary["self_s"].get(name, 0.0), "s")
    for counter in COUNTERS:
        metrics[counter] = (summary["counters"][counter], "bytes" if counter == "cli.report_bytes" else "count")
    for tag in ("short", "long"):
        metrics[f"cstar.norm_{tag}_s"] = (summary["tagged_s"].get(f"cstar.norm@{tag}", 0.0), "s")
    traced_run_s = result["traced"]["wall_s"]
    metrics["trace.run_s"] = (traced_run_s, "s")
    metrics["trace.overhead_s"] = (traced_run_s - untraced_run_s, "s")
    metrics["trace.top_span_share"] = (summary["top_level_s"] / traced_run_s, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/rokhlin/cli.py", "scenarios/approx_acceptance.json", "scenarios/suite.json"):
        if not (ROOT / needed).is_file():
            raise HarnessError(f"{needed} is missing: run from the root of a rokhlin checkout")
    env = child_env()
    _, info = probe(env)  # compiles the bytecode; not a sample
    if Path(info["file"]).resolve().parent != (ROOT / "src" / "rokhlin").resolve():
        raise HarnessError(f"imported rokhlin from {info['file']}, not from this checkout")
    setup = [probe(env)[0] for _ in range(SETUP_SAMPLES)]

    work = ROOT / ".bench_work" / args.workload / f"seed-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    plan = workloads.MAKERS[args.workload](args.seed, ROOT, work)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    refs = workloads.references(plan, ROOT, work / "references.json")

    result = run_worker(plan_path, args.seconds, args.trace, work / "result.json", env)
    attempted, failed, problems = check_outputs(plan, result, refs)
    passes = result["passes"]
    run_s = statistics.fmean(p["wall_s"] for p in passes)
    digests = [r["digest"] for r in passes[0]["requests"]]
    problems += check_repeats(work / "repeats.json", digests, result["trace"]["counters"] if args.trace else None)

    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (run_s, "s"),
        "cpu_s": (statistics.fmean(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
          f"{len(passes)} passes of {len(plan['requests'])} requests in {args.seconds} s")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<14}{value:>14.6f} {unit}")
    walls = sorted(p["wall_s"] for p in passes)
    print(f"  {'run_s p50':<14}{statistics.median(walls):>14.6f} s over {len(walls)} passes")
    if len(walls) >= 20:  # the highest percentile with ten passes beyond it
        pct = 100 * (len(walls) - 10) // len(walls)
        print(f"  {'run_s p' + str(pct):<14}{walls[len(walls) * pct // 100]:>14.6f} s")
    print(f"  {'fail_ratio':<14}{failed / attempted:>14.6f} ({failed} of {attempted} requests)")
    print("  reports        " + " ".join(d[:12] for d in digests))
    print(f"  env            nproc={os.cpu_count()} cpu={cpu_model()!r} python={info['python']} "
          f"numpy={info['numpy']} blas={info['blas']!r} blas_threads={env['OPENBLAS_NUM_THREADS']}")

    if args.trace:
        metrics = layer_metrics(result, run_s)
        share = metrics["trace.top_span_share"][0]
        if share < TOP_SPAN_MIN_SHARE:
            problems.append(f"top-level spans cover {share:.4f} of the traced pass, below {TOP_SPAN_MIN_SHARE}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34}{value:>16.6f} {unit}")
        if result["trace"]["missing"]:
            print(f"  not traced, no longer in the program: {', '.join(result['trace']['missing'])}")
    else:
        metrics = e2e
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
