"""Alternating before/after runs of the benchmark, summarized as ``BENCH_<pr>.json``.

Each pair runs ``python3 bench/run.py --workload all --seed S --seconds T --trace 0`` once in
each of two copies of the tree: the parent, from ``git archive HEAD``, and the change, from
the working tree's tracked and new files (``git ls-files --cached --others
--exclude-standard``). The side that runs first alternates, the parent first in even pairs.
Each run's end-to-end metrics are read from ``.bench_out/result-<workload>-seed<S>-trace0.json``
in its copy. The two copies must hold the same ``bench/`` files. ``src_lines`` records each
copy's ``wc -l src/lcusim/*.py`` total.

Each workload's end-to-end metric (all lower is better) also records the two tests that the
benchmark's acceptance applies to it, so a run shows their outcome before a change is submitted:

* ``gain``: the change is lower in at least ceil(0.9 * pairs) pairs (a tie counts for neither
  side), and the parent's median minus the change's exceeds the parent's q3 - q1;
* ``within_bound``: the change's median is at most the parent's times 1 + ``bound``, the
  metric's bound in ``BENCHMARK.json``. A metric outside its bound is also written to ``notes``.

``--cli CMD`` also times a CLI command on both sides, ``--cli-runs`` alternating runs each, as
``python3 -m lcusim.cli CMD`` in a fresh process: wall seconds, peak RSS and a digest of its
stdout. Its ``stdout_equal`` is true when every parent digest equals every change digest;
a note is printed when it is false. Its ``summary`` holds, for ``wall_s`` and ``peak_rss_mb``,
each side's median, min and max over its runs, and ``resolved``: false, with a note, where the
two sides' min-max ranges overlap, so the runs cannot tell the sides apart. ``--limit CMD``
times a command once on the change side only.

    python3 scripts/bench_pairs.py --pr 23 --seed 23023 --change "what the change does" \\
        --cli "simulate --model ising --n 12 --kappa 8 --shots 1000"
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("job_s", "setup_s", "peak_rss_mb")  # all lower is better
CLI_METRICS = ("wall_s", "peak_rss_mb")
WORKLOADS = ("sweep", "dense")
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BOUNDS = {m["name"]: m["bound"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def make_trees(workdir: Path) -> dict[str, Path]:
    """The parent and change copies of the tree under ``workdir``."""
    parent, change = workdir / "parent", workdir / "change"
    parent.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "HEAD"))) as tar:
        tar.extractall(parent, filter="data")
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        src = ROOT / name.decode()
        if name and src.is_file():  # a tracked file deleted in the working tree is left out
            dst = change / name.decode()
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(src.read_bytes())
    if _digest(parent / "bench") != _digest(change / "bench"):
        raise SystemExit("the parent and the change hold different bench/ files")
    return {"parent": parent, "change": change}


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def src_lines(tree: Path) -> int:
    """``wc -l src/lcusim/*.py``: the newlines in the package's modules."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "lcusim").glob("*.py"))


def bench_run(tree: Path, seed: int, seconds: int) -> dict:
    """One ``bench/run.py --workload all`` run; its end-to-end metrics per workload."""
    cmd = [sys.executable, "bench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env={**os.environ, **PINNED})
    if proc.returncode != 0:
        raise SystemExit(f"{tree.name}: bench/run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    out = {}
    for workload in WORKLOADS:
        path = tree / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        out[workload] = {**record["metrics"], "jobs_timed": record["info"]["jobs_timed"],
                         "failed": record["failed"]}
    return out


def cli_run(tree: Path, argv: list[str]) -> dict:
    """One fresh-process run of ``lcusim.cli``: wall seconds, peak RSS and stdout digest."""
    env = {**os.environ, **PINNED, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "lcusim.cli", *argv], cwd=tree, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": round(time.perf_counter() - start, 3), "rc": proc.returncode,
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "stdout_sha256": hashlib.sha256(stdout).hexdigest()[:16]}


def summary(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": runs}


def compare(parent: list[float], change: list[float], bound: float) -> dict:
    """One end-to-end metric's pairs (``parent[i]`` and ``change[i]`` ran together): each
    side's ``summary``, the pairs the change wins and ties, and the ``gain`` and
    ``within_bound`` tests."""
    entry = {"parent": summary(parent), "change": summary(change),
             "change_wins": sum(c < q for q, c in zip(parent, change)),
             "ties": sum(c == q for q, c in zip(parent, change))}
    p, c = entry["parent"], entry["change"]
    entry["gain"] = (entry["change_wins"] >= math.ceil(0.9 * len(parent))
                     and p["median"] - c["median"] > p["q3"] - p["q1"])
    entry["within_bound"] = c["median"] <= p["median"] * (1 + bound)
    return entry


def cli_summary(parent: list[float], change: list[float]) -> dict:
    """Each side's median and min-max, and whether the two ranges are disjoint."""
    sides = {side: {"median": float(np.median(runs)), "min": min(runs), "max": max(runs)}
             for side, runs in (("parent", parent), ("change", change))}
    p, c = sides["parent"], sides["change"]
    return {**sides, "resolved": p["max"] < c["min"] or c["max"] < p["min"]}


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "shared": True}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--change", required=True, help="one-line description of the change")
    p.add_argument("--cli", action="append", default=[], help="a CLI command to time on both sides")
    p.add_argument("--cli-runs", type=int, default=2)
    p.add_argument("--limit", action="append", default=[], help="a CLI command to time on the change")
    p.add_argument("--workdir", help="where the two copies go (default: a new temporary directory)")
    p.add_argument("--out", help="output path (default: BENCH_<pr>.json at the repository root)")
    args = p.parse_args(argv)

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = make_trees(workdir)
    runs = {side: [] for side in trees}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(bench_run(trees[side], args.seed, args.seconds))
            print(f"pair {i}: {side} " + " ".join(
                f"{w}.job_s={runs[side][-1][w]['job_s']:.6g}" for w in WORKLOADS), flush=True)
    end_to_end, notes = {}, []
    for workload in WORKLOADS:
        end_to_end[workload] = {}
        for metric in METRICS:
            parent = [r[workload][metric] for r in runs["parent"]]
            change = [r[workload][metric] for r in runs["change"]]
            entry = compare(parent, change, BOUNDS[metric])
            end_to_end[workload][metric] = entry
            notes.append(
                f"{workload} {metric}: median {entry['parent']['median']:.4g} -> "
                f"{entry['change']['median']:.4g} (parent quartiles {entry['parent']['q1']:.4g}-"
                f"{entry['parent']['q3']:.4g}), change lower in {entry['change_wins']} of "
                f"{args.pairs}; gain {entry['gain']}."
            )
            if not entry["within_bound"]:
                notes.append(f"{workload} {metric}: the change's median is over the parent's "
                             f"times {1 + BOUNDS[metric]:g}, outside the bound.")
                print(f"note: {notes[-1]}", flush=True)
    cli = {}
    for command in args.cli:
        sides = {side: [] for side in trees}
        for i in range(args.cli_runs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                sides[side].append(cli_run(trees[side], command.split()))
        cli[command] = {side: {key: [r[key] for r in rs] for key in rs[0]} for side, rs in sides.items()}
        digests = {r["stdout_sha256"] for rs in sides.values() for r in rs}
        cli[command]["stdout_equal"] = len(digests) == 1
        cli[command]["summary"] = {}
        for metric in CLI_METRICS:
            entry = cli_summary(cli[command]["parent"][metric], cli[command]["change"][metric])
            cli[command]["summary"][metric] = entry
            if not entry["resolved"]:
                p, c = entry["parent"], entry["change"]
                notes.append(f"{command!r} {metric}: the parent's {p['min']:.4g}-{p['max']:.4g} "
                             f"and the change's {c['min']:.4g}-{c['max']:.4g} overlap; median "
                             f"{p['median']:.4g} -> {c['median']:.4g} is not resolved.")
                print(f"note: {notes[-1]}", flush=True)
        if len(digests) != 1:
            notes.append(f"stdout of {command!r} differs between runs or sides: {sorted(digests)}.")
            print(f"note: {notes[-1]}", flush=True)
    limits = {command: cli_run(trees["change"], command.split()) for command in args.limit}

    result = {
        "change": args.change,
        "command": f"python3 bench/run.py --workload all --seed {args.seed} "
                   f"--seconds {args.seconds} --trace 0",
        "method": (
            f"{args.pairs} pairs of runs of the parent commit and the change, each from its own "
            "copy of the tree (parent: git archive HEAD; change: the working tree's tracked and "
            "new files) with identical bench/ files; the side that runs first alternates (parent "
            f"first in even pairs). Per-workload metrics are read from .bench_out/result-"
            f"<workload>-seed{args.seed}-trace0.json. Quartiles are numpy's linear percentiles. "
            "Written by scripts/bench_pairs.py."
        ),
        "machine": machine(),
        "pairs": args.pairs,
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "end_to_end": end_to_end,
        "jobs_timed": {w: {s: [r[w]["jobs_timed"] for r in runs[s]] for s in trees} for w in WORKLOADS},
        "failed_jobs": {w: {s: [r[w]["failed"] for r in runs[s]] for s in trees} for w in WORKLOADS},
        "notes": notes,
    }
    if cli:
        result["cli"] = {"method": f"{args.cli_runs} alternating fresh-process runs per side of "
                                   "python3 -m lcusim.cli; wall time and ru_maxrss of the child",
                         "runs": cli}
    if limits:
        result["limits"] = {"method": "one fresh-process run of the change", "runs": limits}
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
