"""Benchmark workloads: job inputs generated from a seed, and per-command
correctness checks against references computed outside the timed window.

A job is a list of CLI argument vectors run back to back. The program sees
only these arguments and the files they name.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

import numpy as np

TAU = "0.05"
ORACLE_STATES = 4  # distinct random input states per dense run; jobs cycle through them
SIGMAS = 5.0  # sampled success probability must lie within this many standard errors
EXACT_TOL = 1e-9  # two independent exact paths for one probability
LP_TOL = 1e-6  # LP solver tolerance on the optimal l1 norm
BLISS_FILE = "src/lcusim/data/hubbard_4site.txt"


def job_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def write_state(path: Path, psi: np.ndarray) -> None:
    np.savetxt(path, np.column_stack([psi.real, psi.imag]), fmt="%.17g")


def random_state(seed: int, index: int, n: int) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def sweep_jobs(seed, count, workdir):
    """The README sweep at a fifth of its shots: the per-shot loop dominates."""
    return [
        [["sweep", "--model", "ising", "--n", "4", "--J", "1.0", "--h", "0.5", "--tau", TAU,
          "--kappa-max", "3", "--shots", "20000", "--seed", str(s)]]
        for s in job_seeds(seed, count)
    ]


def dense_jobs(seed, count, workdir):
    """Everything but the shot loop: register-level traces of a W-tilde and a
    unary circuit, the dense analytic oracle on a seeded random state, then the
    README resources and bliss examples."""
    files = []
    for i in range(ORACLE_STATES):
        path = Path(workdir) / f"state_{i}.txt"
        write_state(path, random_state(seed, i, 9))
        files.append(str(path))
    return [
        [
            ["simulate", "--model", "ising", "--n", "9", "--tau", TAU, "--kappa", "4",
             "--shots", "1000", "--seed", str(s)],
            ["simulate", "--model", "ising", "--n", "4", "--tau", TAU, "--K", "4",
             "--circuit", "wunary", "--shots", "1000", "--seed", str(s)],
            ["analytic", "--model", "ising", "--n", "9", "--tau", TAU, "--K", "7",
             "--state", files[j % ORACLE_STATES]],
            ["resources", "--model", "ising", "--n", "4", "--K-max", "7", "--format", "json"],
            ["bliss", "--fermion-file", BLISS_FILE],
        ]
        for j, s in enumerate(job_seeds(seed, count))
    ]


WORKLOADS = {
    "sweep": sweep_jobs,
    "dense": dense_jobs,
}


def flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _kappa(argv) -> int:
    if "--kappa" in argv:
        return int(flag(argv, "--kappa"))
    if "--K" in argv:
        return max(1, math.ceil(math.log2(int(flag(argv, "--K")) + 1)))
    return 2


def job_shots(commands: list[list[str]]) -> int:
    """Shots a job samples: --shots per circuit, one circuit per kappa in a sweep."""
    return sum(
        int(flag(argv, "--shots")) * (int(flag(argv, "--kappa-max", 3)) if argv[0] == "sweep" else 1)
        for argv in commands
        if argv[0] in ("sweep", "simulate")
    )


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class References:
    """Reference values, computed once per distinct input and kept for the run."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self._memo: dict = {}

    def _get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def hamiltonian(self, argv):
        from lcusim.hamiltonian import build_ising

        if flag(argv, "--model") != "ising":
            raise ValueError("references cover the ising preset only")
        n, J, h = int(flag(argv, "--n", 4)), float(flag(argv, "--J", 1.0)), float(flag(argv, "--h", 0.5))
        return (n, J, h), self._get(("H", n, J, h), lambda: build_ising(n, J, h))

    def state(self, argv, n):
        path = flag(argv, "--state")
        if path is None:
            psi = np.zeros(1 << n, dtype=complex)
            psi[0] = 1.0
            return "zero", psi
        rows = self._get(("state", path), lambda: np.loadtxt(path, ndmin=2))  # read as the CLI reads it
        return path, rows[:, 0] + 1j * rows[:, 1]

    def p_wtilde(self, argv, K):
        """Closed-form W-tilde success probability (dense oracle)."""
        from lcusim import oracle

        hkey, H = self.hamiltonian(argv)
        skey, psi = self.state(argv, H.n)
        tau = float(flag(argv, "--tau"))
        return self._get(("p_wtilde", hkey, skey, tau, K),
                         lambda: oracle.success_prob_wtilde(H, psi, tau, K))

    def traced(self, argv, family, order):
        """Success probability from the register-level trace of a W-tilde or W_{H^k} plan."""
        from lcusim.circuits import build_w_hk, build_w_tilde
        from lcusim.sampler import trace_plan

        hkey, H = self.hamiltonian(argv)
        skey, psi = self.state(argv, H.n)
        tau = float(flag(argv, "--tau"))

        def compute():
            plan = build_w_tilde(H, tau, order) if family == "wtilde" else build_w_hk(H, order)
            return trace_plan(plan, psi).success_prob

        return self._get(("trace", family, hkey, skey, tau, order), compute)

    def bliss(self, path):
        from jw_reference import bliss_reference

        return self._get(("bliss", path), lambda: bliss_reference(self.root / path))


def _close(name, got, want, tol, errors):
    if not abs(got - want) <= tol:
        errors.append(f"{name}={got!r} differs from reference {want!r} by more than {tol:g}")


def _sampled(row, p_ref, errors):
    p_hat, stderr = float(row["p_hat"]), float(row["stderr"])
    if not abs(p_hat - p_ref) <= SIGMAS * stderr:
        errors.append(f"p_hat={p_hat} is more than {SIGMAS:g} stderr ({stderr}) from {p_ref}")
    _close("successes/shots", int(row["successes"]) / int(row["shots"]), p_hat, 1e-12, errors)


def check_sweep(argv, out, refs, errors):
    rows = _csv_rows(out)
    kappas = list(range(1, int(flag(argv, "--kappa-max", 3)) + 1))
    if [int(r["kappa"]) for r in rows] != kappas:
        errors.append(f"sweep rows cover kappa {[r.get('kappa') for r in rows]}, expected {kappas}")
        return
    for row, kappa in zip(rows, kappas):
        K = (1 << kappa) - 1
        if int(row["K"]) != K or int(row["shots"]) != int(flag(argv, "--shots")):
            errors.append(f"sweep row {row} has the wrong K or shot count")
            continue
        p_ref = refs.p_wtilde(argv, K)
        _sampled(row, p_ref, errors)
        _close("p_analytic", float(row["p_analytic"]), p_ref, EXACT_TOL, errors)


def check_simulate(argv, out, refs, errors):
    rows = _csv_rows(out)
    if len(rows) != 1:
        errors.append(f"simulate printed {len(rows)} rows")
        return
    (row,) = rows
    circuit = flag(argv, "--circuit", "wtilde")
    K = int(flag(argv, "--K")) if circuit == "wunary" else (1 << _kappa(argv)) - 1
    if row["circuit"] != circuit or int(row["K"]) != K or int(row["shots"]) != int(flag(argv, "--shots")):
        errors.append(f"simulate row {row} has the wrong circuit, K or shot count")
        return
    # The unary circuit's success probability equals the closed form at the same K.
    _sampled(row, refs.p_wtilde(argv, K), errors)


def check_analytic(argv, out, refs, errors):
    rows = _csv_rows(out)
    if len(rows) != 1:
        errors.append(f"analytic printed {len(rows)} rows")
        return
    (row,) = rows
    K, kappa = int(flag(argv, "--K")), _kappa(argv)
    if K != (1 << kappa) - 1:
        errors.append("analytic reference needs K = 2^kappa - 1")
        return
    if int(row["K"]) != K or int(row["kappa"]) != kappa:
        errors.append(f"analytic row has K={row['K']} kappa={row['kappa']}, expected {K}, {kappa}")
        return
    (n, J, h), _ = refs.hamiltonian(argv)
    _close("l1_norm", float(row["l1_norm"]), abs(J) * (n - 1) + abs(h) * n, 1e-12, errors)
    _close("p_wtilde", float(row["p_wtilde"]), refs.traced(argv, "wtilde", kappa), EXACT_TOL, errors)
    _close("p_hk", float(row["p_hk"]), refs.traced(argv, "w_hk", K), EXACT_TOL, errors)


def check_resources(argv, out, refs, errors):
    rows = json.loads(out)
    n, K_max = int(flag(argv, "--n", 4)), int(flag(argv, "--K-max", 7))
    lw = max(1, math.ceil(math.log2(2 * n - 1)))  # open Ising chain: n-1 couplings + n fields
    want = [(fam, K) for K in range(1, K_max + 1) for fam in ("wtilde", "wunary")]
    if [(r["family"], r["K"]) for r in rows] != want:
        errors.append("resources rows do not cover both families for K = 1..K_max")
        return
    for r in rows:
        K = r["K"]
        kappa = max(1, math.ceil(math.log2(K + 1)))
        qubits = kappa + lw + n if r["family"] == "wtilde" else K + K * lw + n
        if r["qubits"] != qubits or r["kappa"] != kappa:
            errors.append(f"resources {r['family']} K={K}: qubits={r['qubits']}, formula gives {qubits}")


def check_bliss(argv, out, refs, errors):
    rows = _csv_rows(out)
    if len(rows) != 1:
        errors.append(f"bliss printed {len(rows)} rows")
        return
    (row,) = rows
    l1_before, l1_best = refs.bliss(flag(argv, "--fermion-file"))
    _close("l1_before", float(row["l1_before"]), l1_before, EXACT_TOL, errors)
    _close("l1_after", float(row["l1_after"]), l1_best, LP_TOL, errors)
    if row["converged"] != "True":
        errors.append("bliss optimizer did not converge")


CHECKS = {
    "sweep": check_sweep,
    "simulate": check_simulate,
    "analytic": check_analytic,
    "resources": check_resources,
    "bliss": check_bliss,
}


def check_command(argv: list[str], output: dict, refs: References) -> list[str]:
    """Errors found in one command's output; empty when it is correct."""
    if output["rc"] != 0:
        return [f"{argv[0]} exited {output['rc']}: {output['stderr'].strip()[:200]}"]
    errors: list[str] = []
    try:
        CHECKS[argv[0]](argv, output["stdout"], refs, errors)
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        errors.append(f"{argv[0]} output could not be read: {exc!r}")
    return errors
