"""Closed-loop benchmark worker: runs jobs through ``lcusim.cli.main`` in one process.

One client, closed loop: the next job starts when the previous one returns.
The job spec arrives as JSON on stdin:

    {"src": ..., "jobs": [[argv, ...], ...], "seconds": s, "min_jobs": n, "trace": bool}

Job 0 is an untimed warm-up. Jobs 1, 2, ... run until ``seconds`` have passed
and at least ``min_jobs`` have been timed. With ``trace`` each job runs twice,
untraced and traced, in alternating order, so the two can be compared.
The result (per-job wall time, exit codes, captured stdout, spans, peak RSS)
is one JSON document on stdout.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def run_job(cli, commands: list[list[str]]) -> tuple[float, list[dict]]:
    """Run each command of one job; return its wall seconds and the outputs.

    ``cli.main`` is looked up per command, so an installed tracer sees the call.
    """
    outputs = []
    t0 = time.perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        outputs.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return time.perf_counter() - t0, outputs


def run_traced_job(tracer, cli, commands: list[list[str]], job: int) -> tuple[float, list[dict]]:
    """Run one job with the wrappers installed; its wall time is the job span's."""
    idx = tracer.begin_job(job)
    try:
        _, outputs = run_job(cli, commands)
    finally:
        wall = tracer.end_job(idx)
    return wall, outputs


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    import lcusim.cli as cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    jobs = spec["jobs"]
    records = []
    wall, outputs = run_job(cli, jobs[0])
    records.append({"job": 0, "warmup": True, "traced": False, "wall_s": wall, "outputs": outputs})

    t_end = time.perf_counter() + spec["seconds"]
    timed = 0
    j = 1
    while j < len(jobs) and (time.perf_counter() < t_end or timed < spec["min_jobs"]):
        order = (False, True) if j % 2 else (True, False)
        for traced in order if tracer else (False,):
            if traced:
                wall, outputs = run_traced_job(tracer, cli, jobs[j], j)
            else:
                wall, outputs = run_job(cli, jobs[j])
            records.append({"job": j, "warmup": False, "traced": traced, "wall_s": wall, "outputs": outputs})
        timed += 1
        j += 1

    result = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["spans"] = [s.as_dict() for s in tracer.spans]
        result["counts"] = {str(k): v for k, v in tracer.counts.items()}
        result["absent"] = tracer.absent
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
