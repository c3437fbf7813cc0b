"""The package's public names, and which of its functions the commands reach: a change to
the API shows as an edit of ``PUBLIC``, new dead code in ``src`` as a failure here."""
import contextlib
import importlib.util
import inspect
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
    "build_w_hk": "the paper's W_{H^k} family, built by the acceptance tests and bench jobs",
    "build_hubbard_chain": "the Hubbard chain the BLISS acceptance tests optimize",
    "apply_bliss": "the shifted operator itself, which the grid-search oracle and the sector "
                   "check in test_7_bliss build; optimize_bliss reads its coefficients off a - B x",
    "runtime_upper_bound": "the paper's bound from H and psi, which the tests hold the exact "
                           "mean shot cost under; analytic prints it through runtime_bound",
    "fidelity": "the state overlap the acceptance tests compare traces with",
    "save_hamiltonian": "public I/O, the writer of the --hamiltonian format",
    "PauliTerm.coefficient": "read by the dense to_matrix reference and bench/test_bench.py",
}


def _key(code: types.CodeType) -> tuple[str, int]:
    return code.co_filename, code.co_firstlineno


def _functions(code: types.CodeType, prefix: str = ""):
    """(code, qualname) of every named function or class body compiled into ``code``, at
    any depth. The qualname is built from the nesting, as ``co_qualname`` (Python 3.11+)
    gives it: a function's children sit in its ``<locals>``, a class body's in the class."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            qualname = prefix + const.co_name
            if not const.co_name.startswith("<"):  # not a lambda or comprehension
                yield const, qualname
            local = const.co_flags & inspect.CO_OPTIMIZED  # a function's scope, not a class's
            yield from _functions(const, qualname + (".<locals>." if local else "."))


@contextlib.contextmanager
def _entered(keys: set):
    """Record the (file, first line) of every Python function called in the block."""

    def profile(frame, event, arg):
        if event == "call":
            keys.add(_key(frame.f_code))

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
    functions = [
        pair for path in SRC.glob("*.py")
        for pair in _functions(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    ]
    if sys.version_info >= (3, 11):
        assert [qualname for _, qualname in functions] == [c.co_qualname for c, _ in functions]
    defined = {_key(code): qualname for code, qualname in functions}
    assert len(defined) == len(functions)  # no two start on one line
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
    unreached = {defined[key] for key in defined.keys() - at_import - entered}
    assert unreached == set(UNREACHED)
