"""One benchmark client: a fresh process that sends a workload's requests
through ``rokhlin.cli.main`` in a closed loop.

Usage (started by run.py, never by hand):
    python3 perfbench/worker.py PLAN.json SECONDS TRACE RESULT.json

A pass sends every request of the plan once, each after the previous one
returned.  Passes repeat until SECONDS have elapsed (at least one pass).  The
reports of the first pass are written next to the plan for run.py to check;
later passes only record each report's digest.  With TRACE=1 one more pass
runs under the span tracer.  Only time spent inside ``cli.main`` is counted.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import rokhlin.cli as cli


def _request(argv: list[str]) -> dict:
    # the report is stdout; stderr (timing, the verify-all table) is dropped
    out, err = io.StringIO(), io.StringIO()
    error = None
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception:  # a crash is a failed request, not a harness failure
        code, error = None, traceback.format_exc(limit=5)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    text = out.getvalue()
    return {
        "code": code, "error": error, "wall_s": wall, "cpu_s": cpu, "text": text,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }


def _pass(plan: dict, tracer=None) -> dict:
    requests = []
    for req in plan["requests"]:
        if tracer is not None:
            tracer.request = req.get("tag")
        requests.append(_request(req["argv"]))
    return {
        "wall_s": sum(r["wall_s"] for r in requests),
        "cpu_s": sum(r["cpu_s"] for r in requests),
        "requests": requests,
    }


def _strip(record: dict, plan: dict, keep_reports: bool) -> dict:
    """Drop the report texts, writing the first pass's to disk for checking."""
    for req, res in zip(plan["requests"], record["requests"]):
        text = res.pop("text")
        if keep_reports:
            Path(req["report"]).write_text(text)
    return record


def main() -> None:
    plan_path, seconds, trace, result_path = sys.argv[1:5]
    plan = json.loads(Path(plan_path).read_text())
    deadline = time.perf_counter() + float(seconds)
    passes = []
    while not passes or time.perf_counter() < deadline:
        passes.append(_strip(_pass(plan), plan, keep_reports=not passes))
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = _pass(plan, tracer)
        finally:
            tracer.uninstall()
        result["traced"] = _strip(traced, plan, keep_reports=False)
        result["trace"] = tracer.summary()
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
