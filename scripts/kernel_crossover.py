"""Warm-matvec time of ``pauli_sum_apply``'s two forms, to re-derive the stack budget.

For an open Ising chain and a seeded random 3-local Hamiltonian (2n terms, complex
coefficients) at each n, prints the groups G (distinct X masks), the stack's G 2^n entries
and the best of ``--repeat`` timings of one warm ``pauli_sum_apply`` in each form, in µs:

* ``stack_us``: one gather, one multiply and one reduction over all groups (the budget
  raised past every size);
* ``views_us``: one multiply per group over a strided view of v (the budget at 0).

``hamiltonian._MAX_STACK_ENTRIES`` belongs between the largest entry count at which the stack
still wins at every smaller size and the first at which it loses, printed last for each model. ``--json PATH`` also stores the table under the key
``kernel_crossover`` of that JSON file, keeping its other keys.

    PYTHONPATH=src python3 scripts/kernel_crossover.py --n-min 4 --n-max 16
"""
from __future__ import annotations

import argparse
import json
import sys
import timeit
from pathlib import Path

import numpy as np

from lcusim import hamiltonian
from lcusim.hamiltonian import HamiltonianLCU, build_ising, canonicalize, pauli_sum_apply

COLUMNS = ("model", "n", "groups", "entries", "stack_us", "views_us")


def local3(n: int, seed: int = 40) -> HamiltonianLCU:
    """2n random Pauli strings of weight min(3, n), with complex coefficients."""
    rng = np.random.default_rng([seed, n])
    raw = []
    for _ in range(2 * n):
        letters = ["I"] * n
        for j in rng.choice(n, size=min(3, n), replace=False):
            letters[j] = "XYZ"[rng.integers(3)]
        raw.append((complex(rng.normal(), rng.normal()), "".join(letters)))
    return canonicalize(n, raw)


MODELS = {"ising": lambda n: build_ising(n, 1.0, 0.5), "local3": local3}


def warm_us(build, n: int, budget: int, repeat: int) -> tuple[int, float]:
    """Groups and best-of-``repeat`` µs of one matvec on a fresh H built under ``budget``."""
    saved = hamiltonian._MAX_STACK_ENTRIES
    hamiltonian._MAX_STACK_ENTRIES = budget
    try:
        H = build(n)
        v = np.random.default_rng(n).normal(size=(1 << n, 2)) @ [1, 1j]
        pauli_sum_apply(H, v)  # builds and caches the diagonals
    finally:
        hamiltonian._MAX_STACK_ENTRIES = saved
    number = max(1, (1 << 18) // (len(H._groups) << n))
    best = min(timeit.repeat(lambda: pauli_sum_apply(H, v), number=number, repeat=repeat))
    return len(H._groups), best / number * 1e6


def table(n_min: int, n_max: int, repeat: int) -> list[dict]:
    rows = []
    for model, build in MODELS.items():
        for n in range(n_min, n_max + 1):
            groups, stack_us = warm_us(build, n, 1 << 62, repeat)
            _, views_us = warm_us(build, n, 0, repeat)
            rows.append({"model": model, "n": n, "groups": groups, "entries": groups << n,
                         "stack_us": round(stack_us, 2), "views_us": round(views_us, 2)})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--repeat", type=int, default=7)
    p.add_argument("--json", help="store the table under 'kernel_crossover' in this JSON file")
    args = p.parse_args(argv)
    rows = table(args.n_min, args.n_max, args.repeat)
    print(",".join(COLUMNS))
    for row in rows:
        print(",".join(str(row[c]) for c in COLUMNS))
    for model in MODELS:
        sizes = [r for r in rows if r["model"] == model]
        first_loss = next((r["entries"] for r in sizes if r["stack_us"] >= r["views_us"]), None)
        last_win = max((r["entries"] for r in sizes if r["stack_us"] < r["views_us"]
                        and (first_loss is None or r["entries"] < first_loss)), default=None)
        print(f"{model}: the stack wins at every size up to {last_win} entries, and first loses "
              f"at {first_loss}; _MAX_STACK_ENTRIES is {hamiltonian._MAX_STACK_ENTRIES}")
    if args.json:
        path = Path(args.json)
        data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        data["kernel_crossover"] = {"command": "python3 scripts/kernel_crossover.py "
                                               + " ".join(argv if argv is not None else sys.argv[1:]),
                                    "budget": hamiltonian._MAX_STACK_ENTRIES, "rows": rows}
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
