"""lcusim benchmark: CLI workloads, end-to-end metrics, and a traced run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {sweep,dense,all} \\
        --seed N --seconds S --trace {0,1}

Each run starts a fresh worker process that calls ``lcusim.cli.main(argv)``
in a closed loop with one client (the next job starts when the previous one
returns) for ``--seconds``, with BLAS/OpenMP pinned to one thread. Job
inputs come from ``--seed``; every command's output is checked against
references computed after the worker has finished.

``--trace 0`` reports the end-to-end metrics: median job wall time, the
median fresh-interpreter import time of ``lcusim.cli`` (set-up), and the
worker's peak RSS. ``--trace 1`` runs each job untraced and traced in turn
and reports per-layer metrics from spans recorded around calls into the
lcusim modules, plus one timed run of each README CLI example.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Failed jobs (a nonzero exit or
a failed check) are ``failed`` out of ``attempted``, so fail_frac is their
ratio. A full record (environment, per-job times, check errors, spans) is
written to ``.bench_out/`` in the checkout. ``--workload all`` runs every
workload one after another and prints a table.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 8  # fresh interpreters per run, half before and half after the worker; set-up time is their median
MIN_JOBS = 3  # timed jobs per run, even when --seconds has passed
MAX_JOBS = 2000  # more than any workload completes in a run
WORKER_SLACK_S = 120  # worker start-up, warm-up and the last job beyond --seconds
README_TIMEOUT_S = 60

END_TO_END = (("job_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

README_EXAMPLES = {
    "sweep": ["sweep", "--model", "ising", "--n", "4", "--J", "1.0", "--h", "0.5", "--tau", "0.05",
              "--kappa-max", "3", "--shots", "100000", "--seed", "7"],
    "simulate": ["simulate", "--model", "ising", "--tau", "0.05", "--kappa", "3", "--shots", "100000",
                 "--seed", "0"],
    "analytic": ["analytic", "--model", "ising", "--tau", "0.05", "--K", "7"],
    "resources": ["resources", "--model", "ising", "--n", "4", "--K-max", "7", "--format", "json"],
    "bliss": ["bliss", "--fermion-file", "src/lcusim/data/hubbard_4site.txt"],
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def per_layer_names() -> list[tuple[str, str]]:
    from layers import PER_LAYER

    return list(PER_LAYER) + [
        ("shots_per_s", "1/s"),
        ("fail_frac", "ratio"),
        ("bench.untraced_job_s", "s"),
        ("bench.traced_job_s", "s"),
        ("bench.trace_overhead_frac", "ratio"),
        ("bench.layer_self_frac", "ratio"),
        ("bench.absent_spans", "count"),
        ("machine.probe_py_s", "s"),
        ("machine.probe_np_s", "s"),
    ] + [(f"cli.readme_{cmd}_s", "s") for cmd in README_EXAMPLES]


# --- environment and machine probes -------------------------------------------------


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code when there is no git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "lcusim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def machine_probes() -> dict:
    """Fixed pure-Python and numpy work, timed; diagnostics only, never used to normalise."""
    import numpy as np

    def py():
        t = time.perf_counter()
        sum(i * i for i in range(300_000))
        return time.perf_counter() - t

    a = np.random.default_rng(0).standard_normal((256, 256))

    def npy():
        t = time.perf_counter()
        for _ in range(10):
            a @ a
        return time.perf_counter() - t

    return {
        "machine.probe_py_s": statistics.median(py() for _ in range(5)),
        "machine.probe_np_s": statistics.median(npy() for _ in range(5)),
    }


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# --- measurement ------------------------------------------------------------------


def setup_times(n: int) -> list[float]:
    """Seconds for a fresh interpreter to import lcusim.cli, once per probe."""
    code = "import time; t = time.perf_counter(); import lcusim.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=ROOT, env=child_env(), timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing lcusim.cli failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_worker(jobs, seconds: float, trace: bool) -> dict:
    spec = {"src": str(SRC), "jobs": jobs, "seconds": seconds, "min_jobs": MIN_JOBS, "trace": trace}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(spec),
                          capture_output=True, text=True, cwd=ROOT, env=child_env(),
                          timeout=seconds + WORKER_SLACK_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def run_readme_examples() -> dict:
    """Each README CLI example once, as a subprocess: (seconds, output) by command."""
    results = {}
    for cmd, argv in README_EXAMPLES.items():
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "lcusim.cli", *argv], capture_output=True,
                              text=True, cwd=ROOT, env=child_env(), timeout=README_TIMEOUT_S)
        wall = time.perf_counter() - t
        results[cmd] = (wall, {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr})
    return results


def traced_metrics(result: dict) -> tuple[dict, list[str]]:
    """Median per-layer metrics over traced jobs, and trace-hygiene errors."""
    from layers import job_layer_metrics
    from tracer import LAYERS, Span, self_times_ns

    spans = [Span(**s) for s in result["spans"]]
    selfs = self_times_ns(spans)
    by_job: dict = {}
    for s, st in zip(spans, selfs):
        by_job.setdefault(s.job, ([], []))
        by_job[s.job][0].append(s)
        by_job[s.job][1].append(st)
    errors, per_job, layer_frac = [], [], []
    for job, (job_spans, job_selfs) in sorted(by_job.items()):
        m = job_layer_metrics(job_spans, job_selfs, result["counts"].get(str(job), {}))
        per_job.append(m)
        wall = sum(s.end - s.start for s in job_spans if s.name == "bench.job") / 1e9
        layer_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        layer_frac.append(layer_sum / wall)
        if layer_sum > wall:
            errors.append(f"job {job}: layer self times sum to {layer_sum} s, more than the job's {wall} s")
    metrics = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    metrics["bench.layer_self_frac"] = statistics.median(layer_frac)
    metrics["bench.absent_spans"] = len(result["absent"])
    return metrics, errors


def check_records(records, refs) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over all jobs; a traced job must also print
    exactly the bytes its untraced twin printed."""
    from workloads import check_command

    attempted = failed = 0
    errors = []
    plain = {r["job"]: r for r in records if not r["traced"]}
    for r in records:
        attempted += 1
        job_errors = []
        for argv, out in zip(r["argv"], r["outputs"]):
            job_errors += check_command(argv, out, refs)
        if r["traced"]:
            twin = plain[r["job"]]["outputs"]
            if [o["stdout"] for o in r["outputs"]] != [o["stdout"] for o in twin]:
                job_errors.append("traced output bytes differ from the untraced output")
        if job_errors:
            failed += 1
            errors += [f"job {r['job']}{' (traced)' if r['traced'] else ''}: {e}" for e in job_errors]
    return attempted, failed, errors


def bench_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from workloads import WORKLOADS, References, check_command, job_shots

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        env = environment(seed)
        setup = setup_times(SETUP_PROBES // 2)
        probes = machine_probes()
        jobs = WORKLOADS[workload](seed, MAX_JOBS, workdir)
        result = run_worker(jobs, seconds, trace)
        setup += setup_times(SETUP_PROBES - SETUP_PROBES // 2)
        records = result["records"]
        for r in records:
            r["argv"] = jobs[r["job"]]
        refs = References(ROOT)
        attempted, failed, errors = check_records(records, refs)
        timed = [r for r in records if not r["warmup"]]
        plain_walls = [r["wall_s"] for r in timed if not r["traced"]]
        shots = sum(job_shots(r["argv"]) for r in timed if not r["traced"])
        info = {
            "jobs_timed": len(plain_walls),
            "shots_per_s": shots / sum(plain_walls),
            "setup_probes_s": setup,
        }
        if not trace:
            metrics = {
                "job_s": statistics.median(plain_walls),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            units = dict(END_TO_END)
        else:
            metrics, trace_errors = traced_metrics(result)
            errors += trace_errors
            traced_walls = [r["wall_s"] for r in timed if r["traced"]]
            untraced, traced = statistics.median(plain_walls), statistics.median(traced_walls)
            readme = run_readme_examples()
            for cmd, (wall, out) in readme.items():
                metrics[f"cli.readme_{cmd}_s"] = wall
                attempted += 1
                readme_errors = check_command(README_EXAMPLES[cmd], out, refs)
                if readme_errors:
                    failed += 1
                    errors += [f"README {cmd}: {e}" for e in readme_errors]
            metrics.update(probes)
            metrics.update({
                "shots_per_s": info["shots_per_s"],
                "fail_frac": failed / attempted,
                "bench.untraced_job_s": untraced,
                "bench.traced_job_s": traced,
                "bench.trace_overhead_frac": (traced - untraced) / untraced,
            })
            units = dict(per_layer_names())
            info["absent_spans"] = result["absent"]
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "environment": env, "machine_probes": probes, "info": info,
            "correct": failed == 0 and not errors, "attempted": attempted, "failed": failed,
            "fail_frac": failed / attempted, "errors": errors[:50], "metrics": metrics,
            "job_walls_s": [(r["job"], r["traced"], r["wall_s"]) for r in records],
        }
        if trace:
            record["spans"] = result["spans"]
        with open(OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        return {"record": record, "units": units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_summary(workload: str, out: dict) -> None:
    rec, units = out["record"], out["units"]
    print(f"# {workload}: seed {rec['seed']}, {rec['info']['jobs_timed']} timed jobs, "
          f"{rec['attempted']} attempted, {rec['failed']} failed, git {rec['environment']['git_commit']}")
    print(f"#   env: {json.dumps(rec['environment'], sort_keys=True)}")
    print(f"#   probes: {json.dumps(rec['machine_probes'], sort_keys=True)}")
    for name, value in rec["metrics"].items():
        print(f"{workload:8s} {name:36s} {value:14.6g} {units[name]}")
    if "fail_frac" not in rec["metrics"]:
        print(f"{workload:8s} {'fail_frac':36s} {rec['fail_frac']:14.6g} ratio")
        if workload in ("sweep", "trace"):
            print(f"{workload:8s} {'shots_per_s':36s} {rec['info']['shots_per_s']:14.6g} 1/s")
    for e in rec["errors"][:10]:
        print(f"# error: {e}", file=sys.stderr)


def final_line(out: dict) -> str:
    rec, units = out["record"], out["units"]
    return json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in rec["metrics"].items()},
    })


def run_all(args) -> int:
    """Each workload in its own process, so each has a fresh worker and its own peak RSS."""
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True,
                              timeout=2 * args.seconds + WORKER_SLACK_S + 5 * README_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(ln + "\n" for ln in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be positive and --seed nonnegative")
    if not (SRC / "lcusim" / "cli.py").is_file():
        print(f"error: no lcusim source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        out = bench_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_summary(args.workload, out)
    print(final_line(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
