"""Command-line front end: experiment presets with CSV/JSON emission.

Commands
========
simulate   run shots of one circuit and report the success-rate record
analytic   closed-form values (success probabilities, runtimes) only
sweep      sampled vs analytic success probability per kappa
resources  gate/qubit/measurement counts per circuit family
bliss      l1 norm and block-encoding success probability before/after BLISS

Exit codes: 0 ok, 1 usage error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings
from itertools import accumulate, repeat

import numpy as np

from .circuits import build_w_tilde, build_w_unary, kappa_for, taylor_weights
from .errors import DomainError, LayoutError, LcusimError, NormalizationError, ResourceLimitError
from .hamiltonian import (HamiltonianLCU, apply_rescaled, build_ising, check_state, check_width,
                          l1_norm, load_hamiltonian)
from .resources import (CostModel, _finite, count, expected_cost, mean_cost, runtime_bound,
                        shot_costs)
from .sampler import _chain, estimate, run_shots, run_shots_many


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise UsageError(message)


def _int_in(lo: int, hi: float = math.inf):
    """argparse type for an integer in [lo, hi)."""

    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value < hi:
            raise argparse.ArgumentTypeError(f"{value} is outside [{lo}, {hi})")
        return value

    return integer


_FLAGS = {  # each flag's definition, for every command that reads it
    "--hamiltonian": {"help": "Hamiltonian JSON file"},
    "--model": {"choices": ["ising"], "help": "built-in model preset"},
    "--n": {"type": int, "help": "ising sites"},  # n, J, h: None unless given (4, 1.0, 0.5)
    "--J": {"type": float},
    "--h": {"type": float},
    "--tau": {"type": float, "default": 0.05},
    "--kappa": {"type": _int_in(1), "help": "Taylor register width (K = 2^kappa - 1)"},
    "--K": {"type": _int_in(1), "help": "truncation order"},
    "--circuit": {"choices": ["wtilde", "wunary"], "default": "wtilde"},
    "--state": {"help": "file of 2^n system amplitudes, two reals per line"},
    "--d": {"type": float, "default": 1.0, "help": "cost per uncontrolled select"},
    "--d-ctrl": {"type": float, "default": 1.0, "help": "cost per controlled select"},
    "--m": {"type": float, "default": 0.0, "help": "cost per measurement"},
    "--out": {"help": "output path (default stdout)"},
    "--format": {"choices": ["csv", "json"], "default": "csv"},
    "--shots": {"type": _int_in(1), "default": 10_000},
    "--seed": {"type": _int_in(0, 2**64), "default": 0},
    "--kappa-max": {"type": _int_in(1), "default": 3},
    "--K-max": {"type": _int_in(1), "default": 7},
    "--fermion-file": {"required": True, "help": "FCIDUMP-like text file"},
    "--nelec": {"type": int, "help": "electron count (default: file header)"},
    "--diagonal-only": {"action": "store_true", "help": "restrict xi to its diagonal"},
}
_MODEL = "--hamiltonian --model --n --J --h"


def build_parser(argv: list[str]) -> _Parser:
    """The parser with all five command names, but the flags only of the command that
    ``argv`` names: its first argument not starting with '-'."""
    named = next((a for a in argv if not a.startswith("-")), None)
    return _parser(named if named in _COMMANDS else None)


@functools.cache  # one parser per named command (or none), built on its first call
def _parser(named: str | None) -> _Parser:
    parser = _Parser(prog="lcusim")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)  # flags are spelled out
        if name == named:
            for flag in flags.split():  # in the help order
                p.add_argument(flag, **_FLAGS[flag])
    return parser


def _resolve_hamiltonian(args) -> HamiltonianLCU:
    if args.hamiltonian and args.model:
        raise UsageError("give either --hamiltonian or --model, not both")
    if args.hamiltonian:
        given = [f"--{name}" for name in ("n", "J", "h") if getattr(args, name) is not None]
        if given:
            raise UsageError(f"{' '.join(given)}: only --model ising reads these, not --hamiltonian")
        return load_hamiltonian(args.hamiltonian)
    if args.model == "ising":
        n = 4 if args.n is None else args.n
        if args.command != "resources":  # the others hold 2^n amplitudes: refuse before building
            check_width(n)
        else:
            _check_limit(n, _MAX_ISING_SITES, "an Ising chain of {} sites is")
        return build_ising(n, 1.0 if args.J is None else args.J, 0.5 if args.h is None else args.h)
    raise UsageError("a Hamiltonian source is required (--hamiltonian or --model ising)")


def _resolve_order(args, system: int) -> tuple[int, int]:
    """(K, kappa) from --K or --kappa: K defaults to 2^kappa - 1, kappa to 2. A circuit of
    ``system`` + kappa qubits over the cap is refused before K is formed."""
    if args.kappa is not None and args.K is not None:
        raise UsageError("give either --kappa or --K, not both")
    kappa = kappa_for(args.K) if args.K is not None else 2 if args.kappa is None else args.kappa
    check_width(system + kappa)
    return (1 << kappa) - 1 if args.K is None else args.K, kappa


def _basis_state(n: int, index: int = 0) -> np.ndarray:
    check_width(n)
    psi = np.zeros(1 << n, dtype=complex)
    psi[index] = 1.0
    return psi


def _resolve_state(args, n: int) -> np.ndarray:
    if args.state:
        with warnings.catch_warnings():  # an empty file is reported below, not warned about
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(args.state, ndmin=2)
        if rows.shape[0] == 0 or rows.shape[1] != 2:
            raise LayoutError(f"--state needs lines of two reals, got shape {rows.shape}")
        if not np.isfinite(rows).all():
            raise NormalizationError("--state holds a non-finite amplitude")
        return rows[:, 0] + 1j * rows[:, 1]
    return _basis_state(n)


# Bounds on what a command builds or runs, checked before it does. A unary plan is one step of
# K runs (2K + 3 instructions); a W-tilde plan, one step of kappa runs (2^(kappa+1) + 1), is
# bounded by the width cap alone, kappa <= 24 - n. resources' Ising chain (no state) holds 2n - 1
# strings of n letters. analytic's moment pass makes K matvecs, each reading 2^max(n, 9)
# amplitudes once per distinct X mask and once more. At the limits (BENCH_44.json, 2-vCPU Xeon):
# simulate --n 5 --circuit wunary --K 349998 3.3 s, 178 MB; simulate --n 2 --kappa 22 2.0 s,
# 250 MB; sweep --n 2 --kappa-max 22 --shots 1000 3.9 s, 390 MB; resources --n 24 --K-max 834
# 2.0 s; --n 10000 1.8 s, 229 MB (BENCH_43.json); analytic: README table (BENCH_41.json).
_MAX_INSTRUCTIONS = 700_000
_MAX_ISING_SITES = 10_000
_MAX_AMPLITUDE_READS = 2_500_000_000


def _check_limit(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise ResourceLimitError(f"{what.format(value)} over the limit of {limit}")


def _stats_row(stats, costs: tuple[float, ...]) -> dict:
    p_hat, stderr = estimate(stats)
    hist = ";".join(f"{k}:{v}" for k, v in sorted(stats.abort_histogram.items()))
    return {"shots": stats.shots, "successes": stats.successes, "p_hat": p_hat, "stderr": stderr,
            "abort_histogram": hist, "mean_cost": mean_cost(stats, costs)}


def cmd_simulate(args) -> list[dict]:
    H = _resolve_hamiltonian(args)
    K, kappa = _resolve_order(args, H.n)  # checks the circuit's width n + kappa
    if args.circuit == "wunary":
        _check_limit(2 * K + 3, _MAX_INSTRUCTIONS, "the plans would hold {} instructions,")
        plan = build_w_unary(H, args.tau, K)
    elif K != (1 << kappa) - 1:  # W-tilde runs K = 2^kappa - 1 blocks, no other order
        raise UsageError(f"--K {K}: --circuit wtilde takes --K 2^kappa - 1 (1, 3, 7, ...) "
                         "or --kappa kappa")
    else:
        plan = build_w_tilde(H, args.tau, kappa)
    psi = _resolve_state(args, H.n)
    cost = CostModel(d_ctrl=args.d_ctrl, m=args.m)  # its plans hold only controlled blocks
    stats = run_shots(plan, psi, args.shots, args.seed)
    row = {"circuit": args.circuit, "K": plan.select_count, "tau": args.tau}
    row.update(_stats_row(stats, shot_costs(plan, cost)))
    return [row]


def cmd_analytic(args) -> list[dict]:
    H = _resolve_hamiltonian(args)
    K, kappa = _resolve_order(args, 0)  # capped as the W-tilde Taylor register of order K would be
    reads = K * (len({x for x, _, _ in H.masks}) + 1) << max(H.n, 9)
    _check_limit(reads, _MAX_AMPLITUDE_READS, "the moment pass would read {} amplitudes,")
    psi = _resolve_state(args, H.n)
    cost = CostModel(d=args.d, d_ctrl=args.d_ctrl)
    # one moment pass of K matvecs gives p_wtilde and the W_{H^K} chain p_1 .. p_K, read as
    # Python floats: p1 = p_chain[0] and p_hk = prod(p_chain)
    p_w, p_chain = _chain(H, check_state(psi, H.n), taylor_weights(args.tau, l1_norm(H), K))
    p_hk = math.prod(map(float, p_chain))
    # shot_costs(build_w_hk(H, K), cost), streamed: its K running sums are never held
    mean = expected_cost(map(float, p_chain), accumulate(repeat(cost.d, K)))
    if p_hk and math.isinf(mean / p_hk) and math.isinf(mean / cost.d / p_hk):  # at unit costs too
        raise DomainError(f"p_hk = {p_hk!r} is too small: the W_H^k runtime overflows the float range")
    return [{
        "K": K,
        "kappa": kappa,
        "tau": args.tau,
        "l1_norm": l1_norm(H),
        "p_wtilde": p_w,
        "p_hk": p_hk,
        "expected_runtime_hk": mean,
        "total_runtime_hk": _finite(mean / p_hk) if p_hk else math.inf,  # 1 / p_hk shots
        "runtime_upper_bound": runtime_bound(p_w, float(p_chain[0]), args.tau, l1_norm(H), K,
                                             cost.d_ctrl),
    }]


def cmd_sweep(args) -> list[dict]:
    H = _resolve_hamiltonian(args)
    psi = _resolve_state(args, H.n)
    cost = CostModel(d_ctrl=args.d_ctrl, m=args.m)  # as simulate's
    check_width(H.n + args.kappa_max)
    kappas = range(1, args.kappa_max + 1)
    plans = [build_w_tilde(H, args.tau, kappa) for kappa in kappas]
    runs = run_shots_many(plans, psi, args.shots, args.seed)
    rows = []
    for kappa, plan, (trace, stats) in zip(kappas, plans, runs):
        row = {"K": plan.select_count, "kappa": kappa}
        row.update(_stats_row(stats, shot_costs(plan, cost)))
        row["p_analytic"] = trace.success_prob  # the p the shots were drawn from
        rows.append(row)
    return rows


def cmd_resources(args) -> list[dict]:
    H = _resolve_hamiltonian(args)
    check_width(kappa_for(args.K_max))  # the Taylor register, as analytic caps it
    _check_limit(args.K_max * (args.K_max + 4), _MAX_INSTRUCTIONS,  # the sum of 2K + 3 over K
                 "the plans would hold {} instructions,")
    # each plan built and counted in turn, at tau = 0: the counts read register widths, amplitude
    # counts and signs, and the Taylor amplitudes are real and nonnegative at every tau. A W-tilde
    # plan depends on K only through kappa, so each kappa's plan is counted once.
    wtilde = [count(build_w_tilde(H, 0.0, kappa)) for kappa in range(1, kappa_for(args.K_max) + 1)]
    return [
        {"family": family, "K": K, "kappa": kappa_for(K), **c._asdict()}  # then GateCounts' fields
        for K in range(1, args.K_max + 1)
        for family, c in (("wtilde", wtilde[kappa_for(K) - 1]),
                          ("wunary", count(build_w_unary(H, 0.0, K))))
    ]


def cmd_bliss(args) -> list[dict]:
    from .bliss import jordan_wigner, load_fermionic, optimize_bliss  # only this command loads it

    F, ne_file = load_fermionic(args.fermion_file)
    ne = args.nelec if args.nelec is not None else ne_file
    before = jordan_wigner(F)
    result = optimize_bliss(F, ne, include_offdiag=not args.diagonal_only)
    after = result.hamiltonian

    def block_success(H):  # <psi| H~^dag H~ |psi>, psi the JW state filling the lowest ne orbitals
        v = apply_rescaled(H, _basis_state(H.n, (1 << ne) - 1))
        return float(np.vdot(v, v).real)

    return [{
        "n_orb": F.n_orb,
        "n_electrons": ne,
        "l1_before": l1_norm(before),
        "l1_after": l1_norm(after),
        "L_before": before.num_terms,
        "L_after": after.num_terms,
        "p_before": block_success(before),
        "p_after": block_success(after),
        "xi0": result.params.xi0,
        "converged": result.converged,
    }]


def emit(rows: list[dict], fmt: str, path: str | None) -> None:
    """Write homogeneous records as RFC-4180 CSV or a JSON array; byte-stable. JSON holds
    an infinite value as null and refuses a NaN (ValueError), as the JSON grammar has neither."""
    if fmt == "json":
        rows = [{k: None if isinstance(v, float) and math.isinf(v) else v for k, v in r.items()}
                for r in rows]
        text = json.dumps(rows, sort_keys=True, indent=1, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]) if rows else [], lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
        text = buf.getvalue()
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_COMMANDS = {  # name: (help, the _FLAGS it defines in help order, command)
    "simulate": (
        "run shots of one circuit",
        f"{_MODEL} --tau --kappa --K --circuit --state --d-ctrl --m --out --format --shots --seed",
        cmd_simulate,
    ),
    "analytic": (
        "closed-form oracle values",
        f"{_MODEL} --tau --kappa --K --state --d --d-ctrl --out --format",
        cmd_analytic,
    ),
    "sweep": (  # every W-tilde kappa up to --kappa-max
        "sampled vs analytic success per kappa",
        f"{_MODEL} --tau --state --d-ctrl --m --out --format --kappa-max --shots --seed",
        cmd_sweep,
    ),
    "resources": ("gate and qubit counts", f"{_MODEL} --out --format --K-max", cmd_resources),
    "bliss": (
        "l1-norm optimization of a fermionic operator",
        "--fermion-file --nelec --diagonal-only --out --format",
        cmd_bliss,
    ),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        emit(_COMMANDS[args.command][2](args), args.format, args.out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (LcusimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
