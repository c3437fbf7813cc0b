"""Fuzzed loader inputs and command lines through ``cli.main``.

Every run must end in one of two ways: exit 0 with finite numbers on stdout and
nothing on stderr, or exit 1/2 with nothing on stdout and one stderr line. An
exception escaping ``main`` (a traceback) or a warning (extra stderr lines)
fails the test. Output under ``--format json`` must parse as strict JSON (no
``NaN`` or ``Infinity`` tokens).
"""
import contextlib
import csv
import io
import json
import math
import warnings

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from lcusim import cli
from lcusim.cli import main

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_clean_end(argv):
    code, out, err = run_cli(argv)
    if code == 0:
        assert err == ""
        if "json" in argv:  # the value of --format; no other flag takes it
            rows = json.loads(out, parse_constant=_reject_constant)
        else:
            rows = list(csv.DictReader(out.splitlines()))
        assert rows
        for row in rows:
            for value in row.values():
                try:
                    number = float(value)
                except (TypeError, ValueError):  # the abort histogram, the circuit name
                    continue
                assert math.isfinite(number), (argv, row)
    else:
        assert code in (1, 2)
        assert out == ""
        assert err.startswith(("usage error: ", "error: ")) and err.count("\n") == 1, err
    return code


json_leaf = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
number = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-(10**400), 10**400)


@st.composite
def hamiltonian_like(draw):
    """Mostly well-formed files with n <= 8, with any field replaced by any JSON value."""
    n = draw(st.integers(-1, 8))
    letters = st.text(alphabet="IXYZ", min_size=max(n, 0), max_size=max(n, 0))
    term = st.fixed_dictionaries(
        {
            "coeff": number | json_value,
            "paulis": letters | st.text(alphabet="IXYZxq ", max_size=9) | json_value,
        },
        optional={"phase": number | json_value},
    )
    return draw(
        st.fixed_dictionaries(
            {"n": st.just(n) | number | json_value, "terms": st.lists(term, max_size=5) | json_value}
        )
        | json_value
    )


@given(data=hamiltonian_like())
@example(data={"n": 1, "terms": [{"coeff": 10**400, "paulis": "X"}]})  # OverflowError
@example(data={"n": 1.0, "terms": [{"coeff": 1.0, "paulis": "X"}]})  # n must be an integer
@FUZZ
def test_hamiltonian_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("h", numbered=True) / "h.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert_clean_end(["analytic", "--hamiltonian", str(path), "--K", "2"])
    assert_clean_end(["simulate", "--hamiltonian", str(path), "--kappa", "1", "--shots", "20"])


real_text = (
    st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.sampled_from(["nan", "-inf", "1e999", "1e308", "-0", "0x1p3", "1_0", "1+2j", "#"])
    | st.text(max_size=4)
)
rows_text = st.lists(
    st.lists(real_text, min_size=1, max_size=3).map(" ".join), max_size=6
).map("\n".join)


@st.composite
def normalized_rows(draw):
    """A normalized 4-amplitude state, or a near-zero one that is not normalized."""
    parts = draw(st.lists(st.floats(-1, 1), min_size=8, max_size=8))
    v = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    if np.linalg.norm(v) > 1e-3:
        v = v / np.linalg.norm(v)
    return "\n".join(f"{a.real!r} {a.imag!r}" for a in v)


@given(text=rows_text | normalized_rows() | st.text(max_size=40))
@example(text="0.0 -inf")  # 1j * -inf warned "invalid value encountered in multiply"
@example(text="1e308 1e308\n1e308 0\n0 0\n0 0")  # the norm overflowed with a warning
@FUZZ
def test_state_file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("s", numbered=True) / "state.txt"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    model = ["--model", "ising", "--n", "2", "--state", str(path)]
    codes = {
        assert_clean_end(["analytic", *model, "--K", "2"]),
        assert_clean_end(["simulate", *model, "--kappa", "1", "--shots", "20"]),
        assert_clean_end(["sweep", *model, "--kappa-max", "2", "--shots", "20"]),
    }
    assert len(codes) == 1  # one file, one verdict


@given(blob=st.binary(max_size=40))
@FUZZ
def test_state_file_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("b", numbered=True) / "state.txt"
    path.write_bytes(blob)
    assert_clean_end(["simulate", "--model", "ising", "--n", "2", "--state", str(path),
                      "--kappa", "1", "--shots", "20"])


fermion_value = st.floats(-2, 2).map(repr) | st.sampled_from(
    ["nan", "-inf", "1e999", "x", "0", "1,5"]
)


@st.composite
def fermion_file_text(draw):
    """Mostly well-formed FCIDUMP-like files with NORB <= 6 (or a NORB above the cap),
    with lines of any index in 0..NORB + 1 and any value, or free text."""
    N = draw(st.integers(0, 6) | st.sampled_from([-1, 25]))
    ne = draw(st.integers(-1, 7))
    header = draw(
        st.sampled_from([f"NORB={N} NELEC={ne}", f"NORB={N},NELEC={ne}", f"NELEC={ne} NORB={N}"])
        | st.text(max_size=12)
    )
    index = st.integers(0, max(N, 0) + 1).map(str)
    entry = st.tuples(fermion_value, index, index, index, index).map(" ".join)
    lines = draw(st.lists(entry | st.text(max_size=10), max_size=8))
    return "\n".join([header, *lines])


@given(text=fermion_file_text() | st.text(max_size=60))
@example(text="NORB=2 NELEC=1\n1.0 1 2 0 0")
@example(text="NORB=2 NELEC=1\n0.5 1 2 2 1")  # a two-body entry with no Hermitian partner
@FUZZ
def test_fermion_file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("f", numbered=True) / "op.txt"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    assert_clean_end(["bliss", "--fermion-file", str(path)])
    assert_clean_end(["bliss", "--fermion-file", str(path), "--diagonal-only", "--format", "json"])


# --- command lines drawn from each command's real flags ------------------------------


def mostly(valid, invalid):
    """``valid`` about four draws in five, else ``invalid``."""
    return st.integers(0, 4).flatmap(lambda i: invalid if i == 4 else valid)


real_value = mostly(
    st.floats(-10, 10).map(repr), st.sampled_from(["-1", "nan", "inf", "-inf", "1e999", "abc"])
)
cost_value = mostly(st.floats(0, 10).map(repr), st.sampled_from(["-1", "nan", "inf"]))
# a width (kappa) of at most 3, or one above the 24-qubit cap, which ``check_width`` must
# refuse; an order K of at most 8, or 25-40, which needs a Taylor register of 5-6 qubits
width_value = mostly(st.integers(1, 3), st.integers(-1, 0) | st.integers(25, 40)).map(str)
order_value = mostly(st.integers(1, 8), st.integers(-1, 0) | st.integers(25, 40)).map(str)
shots_value = mostly(st.integers(1, 1000), st.integers(-1, 0)).map(str)
seed_value = mostly(
    st.sampled_from(["0", "7", str(2**64 - 1)]), st.sampled_from(["-1", str(2**64)])
)

HAMILTONIAN_FLAGS = {
    "--model": st.just("ising"),
    "--n": mostly(st.integers(2, 8), st.integers(-1, 1)).map(str),
    "--J": real_value,
    "--h": real_value,
}
COMMAND_FLAGS = {
    "simulate": {
        **HAMILTONIAN_FLAGS, "--tau": real_value, "--kappa": width_value, "--K": order_value,
        "--circuit": st.sampled_from(["wtilde", "wunary"]), "--d-ctrl": cost_value,
        "--m": cost_value, "--shots": shots_value, "--seed": seed_value,
    },
    "analytic": {
        **HAMILTONIAN_FLAGS, "--tau": real_value, "--kappa": width_value, "--K": order_value,
        "--d": cost_value, "--d-ctrl": cost_value,
    },
    "sweep": {
        **HAMILTONIAN_FLAGS, "--tau": real_value, "--d-ctrl": cost_value, "--m": cost_value,
        "--kappa-max": width_value, "--shots": shots_value, "--seed": seed_value,
    },
    "resources": {**HAMILTONIAN_FLAGS, "--K-max": order_value},
    "bliss": {"--nelec": st.integers(-1, 9).map(str)},
}
FORMAT = st.sampled_from(["csv", "json"])
BLISS_FILE = str(Path(cli.__file__).parent / "data" / "hubbard_4site.txt")


@st.composite
def command_line(draw):
    """One command with a subset of its own flags in any order, a --format, and
    now and then a flag of another command (a usage error)."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    names = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    if command != "bliss" and draw(st.integers(0, 9)) < 9:
        names = list(dict.fromkeys(["--model", *names]))  # mostly with a Hamiltonian source
    argv = [command]
    for name in names:
        argv += [name, draw(flags[name])]
    if command == "bliss":
        argv += ["--fermion-file", BLISS_FILE]
        argv += ["--diagonal-only"] if draw(st.booleans()) else []
    if draw(st.integers(0, 9)) == 9:
        other = draw(st.sampled_from(sorted(set().union(*COMMAND_FLAGS.values()) - set(flags))))
        argv += [other, "1"]
    return argv + ["--format", draw(FORMAT)]


def _wide(argv):
    """Whether a drawn register width exceeds the 24-qubit cap. A drawn --K or --K-max of
    at most 40 needs a Taylor register of at most 6 qubits, so only kappa can be wide."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    widths = ("--kappa", "--kappa-max")
    return any(flags.get(f, "").isdigit() and int(flags[f]) > 24 for f in widths)


@given(argv=command_line())
@example(argv=["simulate", "--model", "ising", "--kappa", "25", "--format", "json"])
@example(argv=["sweep", "--model", "ising", "--kappa-max", "30", "--format", "csv"])
@FUZZ
def test_command_line(argv):
    code = assert_clean_end(argv)
    assert not (code == 0 and _wide(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "ising", "--n", "8", "--kappa", "25"],
        ["simulate", "--model", "ising", "--n", "20", "--circuit", "wunary", "--K", "31"],
        ["analytic", "--model", "ising", "--kappa", "25"],
        ["sweep", "--model", "ising", "--n", "2", "--kappa-max", "30"],
        ["resources", "--model", "ising", "--K-max", str(2**24)],
    ],
)
def test_drawn_width_above_the_cap_reaches_check_width(monkeypatch, argv):
    checked = []
    check = cli.check_width
    monkeypatch.setattr(cli, "check_width", lambda q: checked.append(q) or check(q))
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err == f"error: {checked[-1]} qubits exceeds simulation cap 24\n"
    assert checked[-1] > 24
