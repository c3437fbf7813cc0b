"""The package's public names, and which of its functions the commands reach: a change to
the API shows as an edit of ``PUBLIC``, new dead code in ``src`` as a failure here."""
import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import lcusim
from lcusim import cli

SRC = Path(lcusim.__file__).parent
DATA = str(SRC / "data" / "hubbard_4site.txt")
MODULES = ["lcusim"] + [f"lcusim.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__"]


# Per module, the functions and classes it defines whose names have no leading underscore.
# The package itself exports only __version__: each name is imported from its module.
PUBLIC = {
    "bliss": ["BlissParams", "BlissResult", "FermionicOperator", "apply_bliss",
              "build_hubbard_chain", "fermionic_to_pauli_dict", "jordan_wigner", "load_fermionic",
              "optimize_bliss"],
    "circuits": ["CircuitPlan", "Prepared", "Run", "amplitude_values", "build_w_hk",
                 "build_w_tilde", "build_w_unary", "kappa_for", "taylor_prepare_amplitudes",
                 "taylor_weights"],
    "cli": ["UsageError", "build_parser", "cmd_analytic", "cmd_bliss", "cmd_resources",
            "cmd_simulate", "cmd_sweep", "emit", "main"],
    "errors": ["DomainError", "InvalidHamiltonianError", "InvalidModelError", "LayoutError",
               "LcusimError", "NormalizationError", "ResourceLimitError"],
    "hamiltonian": ["HamiltonianLCU", "PauliTerm", "apply_rescaled", "build_ising",
                    "canonicalize", "check_norm", "check_state", "check_width", "l1_norm",
                    "load_hamiltonian", "mask_letters", "pauli_sum_apply", "save_hamiltonian"],
    "oracle": ["chain_probabilities", "success_prob_hk", "success_prob_wtilde"],
    "resources": ["CostModel", "GateCounts", "count", "expected_cost", "mean_cost",
                  "runtime_bound", "shot_costs"],
    "sampler": ["PlanTrace", "RunStats", "estimate", "run_shots", "run_shots_many", "trace_plan"],
}


def _defined(module: types.ModuleType) -> list[str]:
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    )


def test_public_names_are_pinned_and_importable():
    assert sorted(f"lcusim.{stem}" for stem in PUBLIC) == sorted(MODULES[1:])
    for stem, names in PUBLIC.items():
        assert _defined(importlib.import_module(f"lcusim.{stem}")) == names, stem
    exported = [name for name, value in vars(lcusim).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert exported == [] and lcusim.__version__


def _loaded_by(module: str) -> set[str]:
    """The modules that importing ``module`` loads in a fresh interpreter."""
    code = f"import sys, {module}; print(*sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=True)
    return set(proc.stdout.split())


def test_a_module_import_loads_only_what_the_module_imports():
    loaded = _loaded_by("lcusim.hamiltonian")
    assert {m for m in loaded if m.split(".")[0] == "lcusim"} == {
        "lcusim", "lcusim.errors", "lcusim.hamiltonian"}
    loaded = _loaded_by("lcusim.circuits")
    assert "lcusim.circuits" in loaded
    assert not loaded & {f"lcusim.{m}" for m in ("bliss", "sampler", "oracle", "resources")}
    loaded = _loaded_by("lcusim.oracle")  # probabilities only: it prices nothing
    assert "lcusim.oracle" in loaded
    assert not loaded & {"lcusim.resources", "lcusim.sampler"}


def test_cli_start_up_loads_neither_bliss_nor_dataclasses():
    # which modules load, not how long they take: no record generates code at import, and
    # only the bliss command imports bliss
    assert not _loaded_by("lcusim.cli") & {"lcusim.bliss", "dataclasses"}
    assert "dataclasses" not in _loaded_by("lcusim.bliss")


def test_no_command_module_loads_the_oracle():
    # every printed probability comes from the moment pass (sampler._krylov); lcusim.oracle
    # is the matrix-free reference of the tests and the bench
    assert "lcusim.oracle" not in _loaded_by("lcusim.cli") | _loaded_by("lcusim.bliss")


# The names bench/tracer.py keys whose functions have left src: each hook or span on them
# records nothing. Mending the benchmark (ROADMAP item 1) empties this set.
TRACER_GONE = {
    "hamiltonian.pauli_mul", "hamiltonian.pauli_string_matrix", "hamiltonian.to_matrix",
    "oracle.runtime_upper_bound", "oracle.truncated_taylor_matrix",
    "resources.compile_plan", "resources.zyz_decompose", "sampler.shot_rng",
    "statevector.apply_register_unitary", "statevector.apply_select", "statevector.init_state",
    "statevector.project_zero",
}
TRACER_TABLES = {"EXPECTED", "HOOKS", "COUNT_ONLY", "KERNELS"}


def _tracer_names() -> set[str]:
    """Every string in the tracer's four name tables (``HOOKS``' keys), read from its source."""
    tree = ast.parse((SRC.parent.parent / "bench" / "tracer.py").read_text(encoding="utf-8"))
    tables = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) in TRACER_TABLES]
    assert len(tables) == len(TRACER_TABLES)
    return {leaf.value for table in tables for leaf in ast.walk(table)
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)}


def test_every_name_the_tracer_keys_is_a_function_of_its_module():
    # only the bench's own tests, which are not tier-1, run the tracer
    gone = set()
    for name in _tracer_names():
        stem, attr = name.split(".")
        module = importlib.import_module(f"lcusim.{stem}") if stem in PUBLIC else None
        value = getattr(module, attr, None)
        if not (inspect.isfunction(value) and value.__module__ == f"lcusim.{stem}"):
            gone.add(name)
    assert gone == TRACER_GONE


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
    "save_hamiltonian": "public I/O, the writer of the --hamiltonian format",
    "PauliTerm.coefficient": "read by the dense to_matrix reference and bench/test_bench.py",
    "success_prob_hk": "the matrix-free reference for nu_k; bench/tracer.py keys it",
    "chain_probabilities": "the matrix-free reference for the W_{H^k} chain that analytic reads "
                           "off the moment pass; bench/tracer.py keys it",
    "success_prob_wtilde": "the Horner reference for p_wtilde, against which bench/workloads.py "
                           "checks every sweep and simulate job",
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
