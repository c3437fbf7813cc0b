"""Fuzzed loader inputs through ``cli.main``.

Every run must end in one of two ways: exit 0 with finite numbers on stdout and
nothing on stderr, or exit 1/2 with nothing on stdout and one stderr line. An
exception escaping ``main`` (a traceback) or a warning (extra stderr lines)
fails the test.
"""
import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

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


def assert_clean_end(argv):
    code, out, err = run_cli(argv)
    if code == 0:
        assert err == ""
        rows = list(csv.DictReader(out.splitlines()))
        assert rows
        for row in rows:
            for value in row.values():
                try:
                    number = float(value)
                except ValueError:  # the abort histogram, the circuit name
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
