"""The package's public names, and which of its functions the commands reach: a change to
the API shows as an edit of ``PUBLIC``, new dead code in ``src`` as a failure here."""
import contextlib
import importlib.util
import io
import re
import sys
import types
from pathlib import Path

import lcusim
from lcusim import cli

PUBLIC = [
    "BlissParams", "BlissResult", "CircuitPlan", "CostModel", "FermionicOperator",
    "GateCounts", "HamiltonianLCU", "PauliTerm", "RegisterLayout", "RunStats",
    "apply_bliss", "build_hubbard_chain", "build_ising", "build_w_hk",
    "build_w_tilde", "build_w_unary", "canonicalize", "count", "estimate",
    "expected_runtime_midmeasure", "fidelity", "jordan_wigner", "l1_norm",
    "load_fermionic", "load_hamiltonian", "mean_cost_per_shot", "optimize_bliss",
    "power_schedule", "run_shots", "run_shots_many", "runtime_upper_bound", "save_hamiltonian",
    "success_prob_hk", "success_prob_wtilde", "taylor_prepare_amplitudes", "taylor_weights",
    "total_runtime_success", "trace_plan",
]


def test_public_names_are_pinned_and_importable():
    assert sorted(lcusim.__all__) == PUBLIC
    namespace = {}
    exec(f"from lcusim import {', '.join(PUBLIC)}", namespace)
    assert all(namespace[name] is getattr(lcusim, name) for name in PUBLIC)


SRC = Path(lcusim.__file__).parent
DATA = str(SRC / "data" / "hubbard_4site.txt")
MODULES = ["lcusim"] + [f"lcusim.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__"]


def test_readme_bullets_name_exactly_the_modules():
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    bullets = re.findall(r"^\* `(\w+)` - ", readme, flags=re.MULTILINE)
    assert sorted(bullets) == sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


# The src functions that no command enters, each kept for a reason of its own.
UNREACHED = {
    "build_w_hk": "the paper's W_{H^k} family, an acceptance-test object",
    "build_hubbard_chain": "the Hubbard chain the BLISS acceptance tests optimize",
    "runtime_upper_bound": "the paper's runtime bound, an acceptance-test object",
    "fidelity": "the state overlap the acceptance tests compare traces with",
    "save_hamiltonian": "public I/O, the writer of the --hamiltonian format",
    "CircuitPlan.measure_count": "read by the shot-loop hook in bench/tracer.py",
    "PauliTerm.coefficient": "read by bench/test_bench.py",
    "PlanTrace.expected_shot_cost": "the exact mean shot cost of ROADMAP item 4",
}


def _functions(code: types.CodeType):
    """Every named function compiled into ``code``, at any depth, as (file, line, qualname)."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if not const.co_name.startswith("<"):  # not a lambda, comprehension or class body
                yield (const.co_filename, const.co_firstlineno, const.co_qualname)
            yield from _functions(const)


@contextlib.contextmanager
def _entered(keys: set):
    """Record the (file, line, qualname) of every Python function called in the block."""

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            keys.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(previous)


def test_every_src_function_is_reached_or_kept_for_a_reason(tmp_path):
    hamiltonian = tmp_path / "h.json"
    hamiltonian.write_text('{"n": 2, "terms": [{"coeff": 1.0, "paulis": "ZZ"}, '
                           '{"coeff": -0.5, "paulis": "XI"}]}')
    commands = [  # the README examples, a unary circuit, a Hamiltonian file, a usage error
        "sweep --model ising --n 4 --J 1.0 --h 0.5 --tau 0.05 --kappa-max 3 --shots 2000 --seed 7",
        "simulate --model ising --tau 0.05 --kappa 3 --shots 2000 --seed 0",
        "analytic --model ising --tau 0.05 --K 7",
        "resources --model ising --n 4 --K-max 7 --format json",
        f"bliss --fermion-file {DATA}",
        "simulate --model ising --circuit wunary --K 3 --shots 2000",
        f"analytic --hamiltonian {hamiltonian} --K 3",
        "simulate --model ising --sho 10",
    ]
    defined = set()
    for path in SRC.glob("*.py"):
        defined.update(_functions(compile(path.read_text(encoding="utf-8"), str(path), "exec")))
    at_import, entered = set(), set()
    with _entered(at_import):  # a fresh copy of each module, left out of sys.modules
        for name in MODULES:
            spec = importlib.util.find_spec(name)
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
    cli._parser.cache_clear()  # an earlier test's parsers would skip building them here
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with _entered(entered):
            codes = [cli.main(argv.split()) for argv in commands]
    assert codes == [0] * 7 + [1]
    unreached = {qualname for _, _, qualname in defined - at_import - entered}
    assert unreached == set(UNREACHED)
