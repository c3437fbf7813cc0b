import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcusim import cli, hamiltonian, oracle, sampler
from lcusim.circuits import taylor_weights
from lcusim.cli import main
from lcusim.errors import InvalidHamiltonianError, InvalidModelError
from lcusim.hamiltonian import (build_ising, canonicalize, l1_norm, load_hamiltonian,
                                save_hamiltonian)
from conftest import random_hamiltonian, random_state
from reference import rescaled_matrix, truncated_taylor_matrix


def _counting(calls, name, fn):
    """``fn``, adding one to ``calls[name]`` on each call."""

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _csv_rows(text):
    return list(csv.DictReader(text.splitlines()))


# The README's examples, run from the repository root, with the stdout each prints: a
# change to any of these bytes shows here.
README_COMMANDS = {
    'sweep --model ising --n 4 --J 1.0 --h 0.5 --tau 0.05 --kappa-max 3 --shots 100000 --seed 7': (
        'K,kappa,shots,successes,p_hat,stderr,abort_histogram,mean_cost,p_analytic\n'
        '1,1,100000,65583,0.65583,0.0015023881359355843,1:11947;2:22470,1.0,0.6559999999999999\n'
        '3,2,100000,60966,0.60966,0.0015426428115412848,1:11753;2:1523;3:562;4:25196,2.74971,0.6066575788750417\n'
        '7,3,100000,60749,0.60749,0.00154416935567314,1:11751;2:1523;3:562;4:11;5:2;6:1;7:2;8:25399,6.19593,0.6065306600635358\n'
    ),
    'simulate --model ising --tau 0.05 --kappa 3 --shots 100000 --seed 0': (
        'circuit,K,tau,shots,successes,p_hat,stderr,abort_histogram,mean_cost\n'
        'wtilde,7,0.05,100000,60375,0.60375,0.001546725371551136,1:11921;2:1495;3:559;4:7;5:2;8:25641,6.18738\n'
    ),
    'analytic --model ising --tau 0.05 --K 7': (
        'K,kappa,tau,l1_norm,p_wtilde,p_hk,expected_runtime_hk,total_runtime_hk,runtime_upper_bound\n'
        '7,3,0.05,5.0,0.606530660063536,0.0035599432089600046,1.721241729024,483.5025807973045,10.385426013523238\n'
    ),
    'resources --model ising --n 4 --K-max 7 --format json': (
        '[\n'
        ' {\n'
        '  "K": 1,\n'
        '  "family": "wtilde",\n'
        '  "kappa": 1,\n'
        '  "measurements": 4,\n'
        '  "qubits": 8,\n'
        '  "two_qubit": 260\n'
        ' },\n'
        ' {\n'
        '  "K": 1,\n'
        '  "family": "wunary",\n'
        '  "kappa": 1,\n'
        '  "measurements": 4,\n'
        '  "qubits": 8,\n'
        '  "two_qubit": 260\n'
        ' },\n'
        ' {\n'
        '  "K": 2,\n'
        '  "family": "wtilde",\n'
        '  "kappa": 2,\n'
        '  "measurements": 11,\n'
        '  "qubits": 9,\n'
        '  "two_qubit": 784\n'
        ' },\n'
        ' {\n'
        '  "K": 2,\n'
        '  "family": "wunary",\n'
        '  "kappa": 2,\n'
        '  "measurements": 8,\n'
        '  "qubits": 12,\n'
        '  "two_qubit": 524\n'
        ' },\n'
        ' {\n'
        '  "K": 3,\n'
        '  "family": "wtilde",\n'
        '  "kappa": 2,\n'
        '  "measurements": 11,\n'
        '  "qubits": 9,\n'
        '  "two_qubit": 784\n'
        ' },\n'
        ' {\n'
        '  "K": 3,\n'
        '  "family": "wunary",\n'
        '  "kappa": 2,\n'
        '  "measurements": 12,\n'
        '  "qubits": 16,\n'
        '  "two_qubit": 788\n'
        ' },\n'
        ' {\n'
        '  "K": 4,\n'
        '  "family": "wtilde",\n'
        '  "kappa": 3,\n'
        '  "measurements": 24,\n'
        '  "qubits": 10,\n'
        '  "two_qubit": 1832\n'
        ' },\n'
        ' {\n'
        '  "K": 4,\n'
        '  "family": "wunary",\n'
        '  "kappa": 3,\n'
        '  "measurements": 16,\n'
        '  "qubits": 20,\n'
        '  "two_qubit": 1052\n'
        ' },\n'
        ' {\n'
        '  "K": 5,\n'
        '  "family": "wtilde",\n'
        '  "kappa": 3,\n'
        '  "measurements": 24,\n'
        '  "qubits": 10,\n'
        '  "two_qubit": 1832\n'
        ' },\n'
        ' {\n'
        '  "K": 5,\n'
        '  "family": "wunary",\n'
        '  "kappa": 3,\n'
        '  "measurements": 20,\n'
        '  "qubits": 24,\n'
        '  "two_qubit": 1316\n'
        ' },\n'
        ' {\n'
        '  "K": 6,\n'
        '  "family": "wtilde",\n'
        '  "kappa": 3,\n'
        '  "measurements": 24,\n'
        '  "qubits": 10,\n'
        '  "two_qubit": 1832\n'
        ' },\n'
        ' {\n'
        '  "K": 6,\n'
        '  "family": "wunary",\n'
        '  "kappa": 3,\n'
        '  "measurements": 24,\n'
        '  "qubits": 28,\n'
        '  "two_qubit": 1580\n'
        ' },\n'
        ' {\n'
        '  "K": 7,\n'
        '  "family": "wtilde",\n'
        '  "kappa": 3,\n'
        '  "measurements": 24,\n'
        '  "qubits": 10,\n'
        '  "two_qubit": 1832\n'
        ' },\n'
        ' {\n'
        '  "K": 7,\n'
        '  "family": "wunary",\n'
        '  "kappa": 3,\n'
        '  "measurements": 28,\n'
        '  "qubits": 32,\n'
        '  "two_qubit": 1844\n'
        ' }\n'
        ']\n'
    ),
    'bliss --fermion-file src/lcusim/data/hubbard_4site.txt': (
        'n_orb,n_electrons,l1_before,l1_after,L_before,L_after,p_before,p_after,xi0,converged\n'
        '8,4,22.0,14.0,25,17,0.13636363636363635,0.336734693877551,2.0,True\n'
    ),
}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", README_COMMANDS)
def test_readme_command_never_imports_numpy_random(argv):
    # numpy.random adds about 6 MB of resident memory, and no command needs it
    script = (
        "import sys\n"
        "from lcusim.cli import main\n"
        "code = main(sys.argv[1].split())\n"
        "print(code, 'numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, "-c", script, argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stderr.split() == ["0", "False"]


@pytest.mark.parametrize("argv", README_COMMANDS)
def test_readme_stdout_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    assert _run(capsys, *argv.split()) == (0, README_COMMANDS[argv], "")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestSimulate:
    def test_basic_csv(self, capsys):
        code, out, _ = _run(
            capsys,
            "simulate", "--model", "ising", "--n", "4", "--tau", "0.05",
            "--kappa", "2", "--shots", "200", "--seed", "3",
        )
        assert code == 0
        (row,) = _csv_rows(out)
        assert row["K"] == "3"
        assert int(row["shots"]) == 200
        assert int(row["successes"]) + sum(
            int(part.split(":")[1]) for part in row["abort_histogram"].split(";") if part
        ) == 200

    def test_tau_zero_always_succeeds(self, capsys):
        code, out, _ = _run(
            capsys,
            "simulate", "--model", "ising", "--tau", "0", "--kappa", "1",
            "--shots", "1", "--seed", "0",
        )
        assert code == 0
        (row,) = _csv_rows(out)
        assert row["successes"] == "1"
        assert float(row["p_hat"]) == 1.0

    def test_a_trillion_shots_in_under_a_second(self, capsys):
        # one binomial draw per measurement, whatever the number of shots
        start = time.perf_counter()
        code, out, _ = _run(
            capsys, "simulate", "--model", "ising", "--n", "4", "--tau", "0.05", "--kappa", "3",
            "--shots", "1000000000000", "--seed", "0",
        )
        elapsed = time.perf_counter() - start
        assert code == 0 and elapsed < 1.0
        (row,) = _csv_rows(out)
        code, out, _ = _run(capsys, "analytic", "--model", "ising", "--n", "4", "--tau", "0.05",
                            "--K", "7")
        p_analytic = float(_csv_rows(out)[0]["p_wtilde"])
        assert abs(float(row["p_hat"]) - p_analytic) < 3 * float(row["stderr"])

    def test_state_file(self, capsys, tmp_path):
        psi = np.zeros(16)
        psi[3] = 1.0
        state = tmp_path / "state.txt"
        np.savetxt(state, np.column_stack([psi, np.zeros(16)]))
        code, out, _ = _run(
            capsys,
            "simulate", "--model", "ising", "--state", str(state),
            "--kappa", "1", "--shots", "50", "--seed", "1",
        )
        assert code == 0

    @pytest.mark.parametrize("K", ["2", "5", "6"])
    def test_wtilde_refuses_a_K_other_than_2_to_the_kappa_minus_1(self, capsys, monkeypatch, K):
        # W-tilde runs 2^kappa - 1 blocks: --K 5 would print the K = 7 row. Refused before a plan
        monkeypatch.setattr(cli, "build_w_tilde", lambda *args: pytest.fail("a plan was built"))
        code, out, err = _run(capsys, "simulate", "--model", "ising", "--K", K, "--tau", "0.2")
        assert (code, out) == (1, "")
        assert err == (f"usage error: --K {K}: --circuit wtilde takes --K 2^kappa - 1 "
                       "(1, 3, 7, ...) or --kappa kappa\n")

    def test_wtilde_K_2_to_the_kappa_minus_1_is_kappa(self, capsys):
        by_K = _run(capsys, "simulate", "--model", "ising", "--K", "7", "--tau", "0.2")
        assert by_K == _run(capsys, "simulate", "--model", "ising", "--kappa", "3", "--tau", "0.2")
        assert by_K[0] == 0 and _csv_rows(by_K[1])[0]["K"] == "7"


class TestAnalytic:
    def test_values_match_oracle(self, capsys):
        code, out, _ = _run(
            capsys, "analytic", "--model", "ising", "--tau", "0.05", "--kappa", "3"
        )
        assert code == 0
        (row,) = _csv_rows(out)
        H = build_ising(4, 1.0, 0.5)
        psi = np.zeros(16, dtype=complex)
        psi[0] = 1.0
        assert float(row["l1_norm"]) == 5.0
        assert float(row["p_wtilde"]) == pytest.approx(
            oracle.success_prob_wtilde(H, psi, 0.05, 7)
        )

    def test_hamiltonian_file(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        save_hamiltonian(build_ising(2, 1.0, 0.5), path)
        code, out, _ = _run(capsys, "analytic", "--hamiltonian", str(path), "--kappa", "1")
        assert code == 0
        (row,) = _csv_rows(out)
        assert float(row["l1_norm"]) == 2.0


class TestSweep:
    def test_rows_and_3sigma(self, capsys):
        code, out, _ = _run(
            capsys,
            "sweep", "--model", "ising", "--n", "4", "--J", "1.0", "--h", "0.5",
            "--tau", "0.05", "--kappa-max", "3", "--shots", "20000", "--seed", "7",
        )
        assert code == 0
        rows = _csv_rows(out)
        assert [r["kappa"] for r in rows] == ["1", "2", "3"]
        assert [r["K"] for r in rows] == ["1", "3", "7"]
        for r in rows:
            assert abs(float(r["p_hat"]) - float(r["p_analytic"])) < 3 * float(r["stderr"])

    @pytest.mark.parametrize("flag", [["--circuit", "wunary"], ["--K", "3"], ["--kappa", "2"]])
    def test_single_circuit_flags_are_usage_errors(self, capsys, flag):
        # a sweep runs W-tilde at every kappa up to --kappa-max
        code, out, err = _run(
            capsys, "sweep", "--model", "ising", "--kappa-max", "1", "--shots", "100", *flag
        )
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_row_k_equals_simulate_kappa_k(self, capsys):
        flags = ["--model", "ising", "--n", "4", "--tau", "0.3", "--seed", "2024",
                 "--shots", "5000", "--d-ctrl", "0.7", "--m", "0.1"]
        code, out, _ = _run(capsys, "sweep", "--kappa-max", "3", *flags)
        assert code == 0
        for row in _csv_rows(out):
            code, out, _ = _run(capsys, "simulate", "--kappa", row["kappa"], *flags)
            (single,) = _csv_rows(out)
            assert code == 0 and single["abort_histogram"]
            fields = ["K", "shots", "successes", "p_hat", "stderr", "abort_histogram", "mean_cost"]
            assert [single[f] for f in fields] == [row[f] for f in fields]

    def test_the_readme_sweep_takes_7_matvecs(self, capsys, monkeypatch):
        # the three plans' one shared Krylov pass of 7 matvecs (to the highest Taylor
        # degree, 7) gives both the shots' q's and p_analytic; three Horner passes took
        # 1 + 3 + 7 more
        calls = {"diagonals": 0, "sampler": 0, "oracle": 0}
        monkeypatch.setattr(hamiltonian, "_group_diagonals",
                            _counting(calls, "diagonals", hamiltonian._group_diagonals))
        monkeypatch.setattr(sampler, "apply_rescaled",
                            _counting(calls, "sampler", sampler.apply_rescaled))
        monkeypatch.setattr(oracle, "apply_rescaled",
                            _counting(calls, "oracle", oracle.apply_rescaled))
        argv = next(argv for argv in README_COMMANDS if argv.startswith("sweep"))
        code, out, _ = _run(capsys, *argv.split())
        assert (code, out) == (0, README_COMMANDS[argv])
        assert calls == {"diagonals": 1, "sampler": 7, "oracle": 0}

    def test_p_analytic_is_within_1e_12_of_the_horner_oracle(self, capsys):
        code, out, _ = _run(capsys, "sweep", "--model", "ising", "--tau", "0.3", "--kappa-max", "4",
                            "--shots", "10")
        H, psi = build_ising(4, 1.0, 0.5), np.eye(16)[0]
        for row in _csv_rows(out):
            horner = oracle.success_prob_wtilde(H, psi, 0.3, int(row["K"]))
            assert code == 0 and abs(float(row["p_analytic"]) - horner) <= 1e-12

    def test_shot_stream_is_pinned(self, capsys):
        # Rows of the binomial shot loop, one random.Random(seed) per plan; a change to
        # its draws shows here.
        code, out, _ = _run(
            capsys,
            "sweep", "--model", "ising", "--n", "4", "--tau", "0.05",
            "--kappa-max", "3", "--shots", "20000", "--seed", "7",
        )
        assert code == 0
        rows = {r["kappa"]: (r["successes"], r["abort_histogram"]) for r in _csv_rows(out)}
        assert rows == {
            "1": ("13113", "1:2376;2:4511"),
            "2": ("12268", "1:2337;2:309;3:113;4:4973"),
            "3": ("12006", "1:2337;2:309;3:113;4:6;6:1;8:5228"),
        }


class TestResources:
    def test_table(self, capsys):
        code, out, _ = _run(
            capsys, "resources", "--model", "ising", "--n", "3", "--K-max", "4"
        )
        assert code == 0
        rows = _csv_rows(out)
        assert len(rows) == 8  # two families per K
        wt = {int(r["K"]): r for r in rows if r["family"] == "wtilde"}
        # K = 2 and K = 3 share kappa = 2, hence identical compiled counts
        assert wt[2]["two_qubit"] == wt[3]["two_qubit"]
        wu = [int(r["two_qubit"]) for r in rows if r["family"] == "wunary"]
        assert wu[2] - wu[1] == wu[3] - wu[2]

    def test_readme_table_is_pinned(self, capsys):
        # (family, K, kappa, qubits, two_qubit, measurements) as printed when
        # every block of every plan was compiled gate by gate.
        pinned = [
            ("wtilde", 1, 1, 8, 260, 4), ("wunary", 1, 1, 8, 260, 4),
            ("wtilde", 2, 2, 9, 784, 11), ("wunary", 2, 2, 12, 524, 8),
            ("wtilde", 3, 2, 9, 784, 11), ("wunary", 3, 2, 16, 788, 12),
            ("wtilde", 4, 3, 10, 1832, 24), ("wunary", 4, 3, 20, 1052, 16),
            ("wtilde", 5, 3, 10, 1832, 24), ("wunary", 5, 3, 24, 1316, 20),
            ("wtilde", 6, 3, 10, 1832, 24), ("wunary", 6, 3, 28, 1580, 24),
            ("wtilde", 7, 3, 10, 1832, 24), ("wunary", 7, 3, 32, 1844, 28),
        ]
        keys = ("family", "K", "kappa", "qubits", "two_qubit", "measurements")
        expected = json.dumps([dict(zip(keys, row)) for row in pinned], sort_keys=True, indent=1)
        code, out, _ = _run(
            capsys, "resources", "--model", "ising", "--n", "4", "--K-max", "7", "--format", "json"
        )
        assert code == 0
        assert out == expected + "\n"

    def test_unary_rows_past_the_old_2_to_the_K_bound(self, capsys):
        # a unary plan holds K + 1 amplitudes, so K-max 64 prints every row: the staircase
        # and its adjoint, 2(K - 1) CX each, and K controlled blocks on 3-qubit l-registers
        code, out, _ = _run(capsys, "resources", "--model", "ising", "--n", "4", "--K-max", "64")
        assert code == 0
        rows = _csv_rows(out)
        assert len(rows) == 128
        block = 2 * (2**3 - 2) + 4 * (2 ** (3 + 1 + 2) - 2)
        unary = [(int(r["K"]), int(r["two_qubit"])) for r in rows if r["family"] == "wunary"]
        assert unary == [(K, 4 * (K - 1) + K * block) for K in range(1, 65)]

    @pytest.mark.parametrize(
        "flag",
        [["--state", "psi.txt"], ["--kappa", "2"], ["--K", "3"], ["--circuit", "wunary"],
         ["--tau", "0.05"]],
    )
    def test_circuit_flags_are_usage_errors(self, capsys, flag):
        # the counts read register widths, never tau
        code, out, err = _run(capsys, "resources", "--model", "ising", "--K-max", "2", *flag)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1


def _bundled_hubbard(capsys, *flags):
    import importlib.resources as res

    with res.as_file(res.files("lcusim.data") / "hubbard_4site.txt") as path:
        return _run(capsys, "bliss", "--fermion-file", str(path), *flags)


_BLISS_HEADER = "n_orb,n_electrons,l1_before,l1_after,L_before,L_after,p_before,p_after,xi0,converged\n"
_BLISS_HALF_FILLED = "8,4,22.0,14.0,25,17,0.13636363636363635,0.336734693877551,2.0,True\n"


class TestBliss:
    def test_bundled_hubbard(self, capsys):
        code, out, _ = _bundled_hubbard(capsys)
        assert code == 0
        (row,) = _csv_rows(out)
        assert float(row["l1_after"]) < float(row["l1_before"])
        assert float(row["p_after"]) > float(row["p_before"])
        assert float(row["l1_before"]) == pytest.approx(22.0)

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], _BLISS_HEADER + _BLISS_HALF_FILLED),
            (["--diagonal-only"], _BLISS_HEADER + _BLISS_HALF_FILLED),
            (
                ["--nelec", "2"],
                _BLISS_HEADER + "8,2,22.0,10.0,25,16,0.0371900826446281,0.18000000000000005,2.0,True\n",
            ),
            (
                ["--format", "json"],
                '[\n {\n  "L_after": 17,\n  "L_before": 25,\n  "converged": true,\n'
                '  "l1_after": 14.0,\n  "l1_before": 22.0,\n  "n_electrons": 4,\n  "n_orb": 8,\n'
                '  "p_after": 0.336734693877551,\n  "p_before": 0.13636363636363635,\n'
                '  "xi0": 2.0\n }\n]\n',
            ),
        ],
        ids=["defaults", "diagonal-only", "nelec-2", "json"],
    )
    def test_output_is_pinned(self, capsys, flags, expected):
        # bytes printed when B was built from one JW pass per unit shift
        code, out, _ = _bundled_hubbard(capsys, *flags)
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize(
        "flags, row",
        [
            ([], "4,2,4.875,3.375,11,8,0.19263642340565418,0.40192043895747587,1.0,True\n"),
            (["--diagonal-only"],
             "4,2,4.875,3.375,11,8,0.19263642340565418,0.40192043895747587,1.0,True\n"),
            (["--nelec", "1"],
             "4,1,4.875,2.375,11,14,0.06377383300460222,0.26869806094182824,1.0,True\n"),
        ],
        ids=["defaults", "diagonal-only", "nelec-1"],
    )
    def test_one_body_file_output_is_pinned(self, capsys, tmp_path, flags, row):
        # bytes printed while a file with no two-body line loaded as two_body=None; the
        # coefficients are dyadic, so no sum depends on the order of the shifted terms
        path = tmp_path / "one_body.txt"
        path.write_text("NORB=4 NELEC=2\n1.0 1 1 0 0\n1.0 2 2 0 0\n1.0 3 3 0 0\n0.5 4 4 0 0\n"
                        "-0.5 1 2 0 0\n-0.25 2 3 0 0\n-0.5 3 4 0 0\n0.125 0 0 0 0\n")
        code, out, _ = _run(capsys, "bliss", "--fermion-file", str(path), *flags)
        assert (code, out) == (0, _BLISS_HEADER + row)

    @pytest.mark.parametrize("nelec", ["99", "-1"])
    def test_electron_count_out_of_range_exit_2(self, capsys, nelec):
        code, out, err = _bundled_hubbard(capsys, "--nelec", nelec)
        assert code == 2
        assert out == ""
        assert err == f"error: n_electrons must be in 0..8, got {nelec}\n"

    def test_extra_fields_exit_2_with_one_line(self, capsys, tmp_path):
        # the fields past the fifth were ignored, and the row printed with exit 0
        path = tmp_path / "op.txt"
        path.write_text("NORB=2 NELEC=1\n1.0 1 1 0 0 9 9\n0.5 1 2 0 0\n")
        code, out, err = _run(capsys, "bliss", "--fermion-file", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: line 2: expected 'value i j k l'\n")

    @pytest.mark.parametrize("text, message", [
        ("NORB=2\n1.0 1 1 0 0\n", "header must read NORB=<int> NELEC=<int>"),
        ("NORB=25 NELEC=1\n", "NORB=25 is outside 1..24"),
        ("NORB=1 NELEC=1\n1e308 0 0 0 0\n1e308 0 0 0 0\n",
         "constant must be a finite real number, got inf"),
    ])
    def test_a_refused_file_is_named(self, capsys, tmp_path, text, message):
        # the header and NORB refusals did not say which file was at fault
        path = tmp_path / "op.txt"
        path.write_text(text)
        code, out, err = _run(capsys, "bliss", "--fermion-file", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize(
        "lines, message",
        [  # an l1 norm that overflows printed inf, inf and nan with exit 0
            (["1e308 1 1 0 0", "1e308 2 2 0 0", "1e308 1 2 0 0"], "l1 norm must be positive"),
            (["1e308 1 2 0 0", "-1e308 1 1 0 0"], "l1 norm must be positive"),
            # finite, but a line-search break overflowed with a warning
            (["1.7e308 1 1 0 0"], "BLISS optimization overflows"),
            # finite, but the shifted operator's one-body part overflowed with a warning
            (["9e307 2 2 0 0", "-1.7e308 1 2 2 1"], "BLISS optimization overflows"),
        ],
    )
    def test_overflowing_coefficients_exit_2_with_one_line(self, capsys, tmp_path, lines, message):
        path = tmp_path / "op.txt"
        path.write_text("\n".join(["NORB=2 NELEC=1"] + lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, "bliss", "--fermion-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


class TestOutput:
    def test_json_format(self, capsys):
        code, out, _ = _run(
            capsys, "analytic", "--model", "ising", "--kappa", "1", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert isinstance(rows, list) and rows[0]["K"] == 1

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "sweep", "--model", "ising", "--tau", "0.05", "--kappa-max", "2",
            "--shots", "500", "--seed", "11", "--format", "csv",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_writes_infinity_as_null(self, capsys, tmp_path):
        # H = Z0 + Z1 annihilates |01>, so W_{H^k} never succeeds and its runtime is infinite
        ham, state = tmp_path / "zz.json", tmp_path / "s1.txt"
        save_hamiltonian(canonicalize(2, [(1.0, "ZI"), (1.0, "IZ")]), ham)
        np.savetxt(state, np.column_stack([np.eye(4)[1], np.zeros(4)]))
        argv = ["analytic", "--hamiltonian", str(ham), "--state", str(state), "--K", "3"]
        code, out, _ = _run(capsys, *argv)
        assert code == 0 and _csv_rows(out)[0]["total_runtime_hk"] == "inf"
        code, out, err = _run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        (row,) = json.loads(out, parse_constant=_reject_constant)
        assert row["total_runtime_hk"] is None and row["p_hk"] == 0.0

    def test_json_refuses_nan(self, capsys, monkeypatch):
        commands = dict(cli._COMMANDS)
        commands["analytic"] = (*commands["analytic"][:2], lambda args: [{"K": 1, "p": math.nan}])
        monkeypatch.setattr(cli, "_COMMANDS", commands)
        code, out, err = _run(capsys, "analytic", "--model", "ising", "--format", "json")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_file_json(self, tmp_path):
        out = tmp_path / "r.json"
        assert (
            main(
                ["analytic", "--model", "ising", "--kappa", "1",
                 "--format", "json", "--out", str(out)]
            )
            == 0
        )
        assert json.loads(out.read_text())[0]["kappa"] == 1


class TestMatrixFreeAnalytic:
    def test_beyond_dense_cap_matches_sparse_reference(self, capsys, tmp_path):
        import scipy.sparse as sp

        n, tau, K = 14, 0.05, 3
        rng = np.random.default_rng(14)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        path = tmp_path / "psi.txt"
        np.savetxt(path, np.column_stack([psi.real, psi.imag]), fmt="%.17g")
        code, out, _ = _run(
            capsys, "analytic", "--model", "ising", "--n", str(n), "--tau", str(tau),
            "--K", str(K), "--state", str(path),
        )
        assert code == 0
        (row,) = _csv_rows(out)

        # Reference from Kronecker products of 2x2 matrices, qubit 0 rightmost;
        # it shares no code with the bit-mask kernel.
        paulis = {"I": sp.identity(2), "X": sp.csr_matrix([[0, 1], [1, 0]]),
                  "Z": sp.csr_matrix([[1, 0], [0, -1]])}
        H = build_ising(n, 1.0, 0.5)
        mat = sp.csr_matrix((1 << n, 1 << n), dtype=complex)
        for t in H.terms:
            term = sp.identity(1)
            for c in t.letters:
                term = sp.kron(paulis[c], term, format="csr")
            mat = mat + t.coefficient * term
        l1 = 0.5 * n + (n - 1)
        ht = (-1j / l1) * mat
        powers = [psi]
        for _ in range(K):
            powers.append(ht @ powers[-1])
        beta = [(tau * l1) ** k / math.factorial(k) for k in range(K + 1)]
        u_psi = sum(b * v for b, v in zip(beta, powers))
        p_hk = np.vdot(powers[-1], powers[-1]).real
        p_wtilde = np.vdot(u_psi, u_psi).real / sum(beta) ** 2
        assert float(row["p_hk"]) == pytest.approx(p_hk, rel=1e-10)
        assert float(row["p_wtilde"]) == pytest.approx(p_wtilde, rel=1e-12)


class TestErrors:
    def test_missing_hamiltonian(self, capsys):
        code, _, err = _run(capsys, "analytic", "--kappa", "1")
        assert code == 1
        assert err

    def test_both_sources(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        save_hamiltonian(build_ising(2, 1.0, 0.5), path)
        code, _, _ = _run(
            capsys, "analytic", "--model", "ising", "--hamiltonian", str(path)
        )
        assert code == 1

    def test_kappa_and_K_conflict(self, capsys):
        code, _, _ = _run(
            capsys, "analytic", "--model", "ising", "--kappa", "2", "--K", "3"
        )
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = _run(capsys, "analytic", "--model", "ising", "--frobnicate")
        assert code == 1

    @pytest.mark.parametrize("flags", [["--circuit", "wunary"], ["--m", "5"], ["--m", "ising"]])
    def test_analytic_rejects_flags_it_does_not_read(self, capsys, flags):
        # simulate's --circuit and --m; analytic takes no abbreviation, so --m is not --model
        code, out, err = _run(capsys, "analytic", "--model", "ising", "--K", "3", *flags)
        assert code == 1
        assert out == ""
        assert err == f"usage error: unrecognized arguments: {' '.join(flags)}\n"
        code, _, _ = _run(capsys, "simulate", "--model", "ising", "--K", "3", "--shots", "5", *flags)
        assert code == (1 if flags[1] == "ising" else 0)

    @pytest.mark.parametrize("argv", [["simulate", "--K", "3"], ["sweep", "--kappa-max", "2"]])
    def test_only_analytic_reads_d(self, capsys, argv):
        # d prices an uncontrolled block; the W-tilde and unary plans hold none
        code, out, err = _run(capsys, *argv, "--model", "ising", "--shots", "5", "--d", "1")
        assert (code, out) == (1, "")
        assert err == "usage error: unrecognized arguments: --d 1\n"

    def test_runtime_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1, "terms": []}')
        code, _, err = _run(capsys, "analytic", "--hamiltonian", str(bad), "--kappa", "1")
        assert code == 2
        assert err

    @pytest.mark.parametrize("flag", ["--tau", "--J", "--h", "--d"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_exit_2(self, capsys, flag, value):
        code, out, err = _run(capsys, "analytic", "--model", "ising", "--K", "3", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nan_after_an_overflowing_flag_exit_2(self, capsys):
        # parsing 1e999 leaves errno at ERANGE, and abs() of a NaN complex does not reset it,
        # so abs(nan) raised OverflowError and escaped as a traceback
        code, out, err = _run(capsys, "sweep", "--model", "ising", "--J", "nan", "--h", "1e999")
        assert (code, out) == (2, "")
        assert err == "error: J must be a finite real number, got nan\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["resources", "--model", "ising", "--K-max", "0"],
            ["sweep", "--model", "ising", "--kappa-max", "0"],
            ["simulate", "--model", "ising", "--seed", "-1"],
            ["sweep", "--model", "ising", "--seed", str(2**64)],
            ["simulate", "--model", "ising", "--shots", "0"],
            ["sweep", "--model", "ising", "--shots", "-5"],
        ],
    )
    def test_out_of_range_counts_are_usage_errors(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ")

    def test_width_checked_before_allocating_a_state(self, capsys):
        code, out, err = _run(capsys, "analytic", "--model", "ising", "--n", "25", "--K", "1")
        assert code == 2
        assert out == ""
        assert "25 qubits exceeds simulation cap 24" in err

    @pytest.mark.parametrize(
        "argv, width",
        [
            (["simulate", "--kappa", "43"], 47),
            (["simulate", "--circuit", "wunary", "--K", str(2**43 - 1)], 47),  # 4 + 43 bits of rows
            (["simulate", "--n", "20", "--circuit", "wunary", "--K", "31"], 25),
            (["sweep", "--kappa-max", "43"], 47),
        ],
    )
    def test_traced_width_checked_before_building_the_plan(self, capsys, argv, width):
        code, out, err = _run(capsys, *argv, "--model", "ising", "--shots", "10")
        assert code == 2
        assert out == ""
        assert err == f"error: {width} qubits exceeds simulation cap 24\n"

    @pytest.mark.parametrize(
        "argv, width",
        [
            (["analytic", "--kappa", "43"], 43),
            (["analytic", "--K", str(2**40)], 41),
            (["resources", "--K-max", str(2**24)], 25),
            (["resources", "--K-max", str(2**29)], 30),
            (["analytic", "--kappa", "1000000000"], 1000000000),
            (["simulate", "--kappa", "1000000000"], 1000000004),
        ],
    )
    def test_taylor_register_width_checked_before_allocating(self, capsys, argv, width):
        # 2^kappa Taylor coefficients, or a K whose binary Taylor register is kappa wide; the
        # (kappa + 1)-bit K = 2^kappa - 1 of a huge kappa is never formed
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, *argv, "--model", "ising")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err == f"error: {width} qubits exceeds simulation cap 24\n"
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "argv",
        [["analytic", "--K", "3"], ["simulate", "--shots", "10"], ["sweep", "--shots", "10"]],
    )
    @pytest.mark.parametrize(
        "text", ["", "1\n0\n", "nan 0\n" + "0 0\n" * 15], ids=["empty", "one-column", "nan"]
    )
    def test_bad_state_file_exit_2(self, capsys, tmp_path, argv, text):
        path = tmp_path / "psi.txt"
        path.write_text(text)
        code, out, err = _run(capsys, *argv, "--model", "ising", "--state", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analytic", "simulate", "sweep"])
    def test_ising_width_checked_before_building_the_chain(self, capsys, command):
        # 2n letter strings of n characters would take about 20 GB at n = 100000
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, command, "--model", "ising", "--n", "100000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", "error: 100000 qubits exceeds simulation cap 24\n")
        assert peak < 1 << 20

    def test_unary_K40_is_traceable(self, capsys):
        # 41 rows of the unary register on 4 sites; its 4 + 40 qubits were refused before
        code, out, _ = _run(
            capsys, "simulate", "--model", "ising", "--n", "4", "--circuit", "wunary", "--K", "40",
            "--tau", "0.8", "--shots", "2000", "--seed", "3",
        )
        assert code == 0
        (row,) = _csv_rows(out)
        assert row["K"] == "40"
        p = oracle.success_prob_wtilde(build_ising(4, 1.0, 0.5), np.eye(16)[0], 0.8, 40)
        assert abs(float(row["p_hat"]) - p) <= 3 * math.sqrt(p * (1 - p) / 2000)

    def test_unary_K7_is_traceable(self, capsys):
        # the 32-qubit unary layout traces on system + unary register, 11 qubits
        code, out, _ = _run(
            capsys, "simulate", "--model", "ising", "--circuit", "wunary", "--K", "7",
            "--shots", "2000", "--seed", "3",
        )
        assert code == 0
        (row,) = _csv_rows(out)
        assert row["K"] == "7"
        p = oracle.success_prob_wtilde(build_ising(4, 1.0, 0.5), np.eye(16)[0], 0.05, 7)
        assert abs(float(row["p_hat"]) - p) < 3 * float(row["stderr"])


# Bytes printed while every command's flags were built on each call; COLUMNS=80 fixes
# argparse's line width.
PARSER_PINS = {
    "--help": (0, """\
usage: lcusim [-h] {simulate,analytic,sweep,resources,bliss} ...

positional arguments:
  {simulate,analytic,sweep,resources,bliss}
    simulate            run shots of one circuit
    analytic            closed-form oracle values
    sweep               sampled vs analytic success per kappa
    resources           gate and qubit counts
    bliss               l1-norm optimization of a fermionic operator

options:
  -h, --help            show this help message and exit
""", ""),
    "simulate --help": (0, """\
usage: lcusim simulate [-h] [--hamiltonian HAMILTONIAN] [--model {ising}]
                       [--n N] [--J J] [--h H] [--tau TAU] [--kappa KAPPA]
                       [--K K] [--circuit {wtilde,wunary}] [--state STATE]
                       [--d-ctrl D_CTRL] [--m M] [--out OUT]
                       [--format {csv,json}] [--shots SHOTS] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --hamiltonian HAMILTONIAN
                        Hamiltonian JSON file
  --model {ising}       built-in model preset
  --n N                 ising sites
  --J J
  --h H
  --tau TAU
  --kappa KAPPA         Taylor register width (K = 2^kappa - 1)
  --K K                 truncation order
  --circuit {wtilde,wunary}
  --state STATE         file of 2^n system amplitudes, two reals per line
  --d-ctrl D_CTRL       cost per controlled select
  --m M                 cost per measurement
  --out OUT             output path (default stdout)
  --format {csv,json}
  --shots SHOTS
  --seed SEED
""", ""),
    "analytic --help": (0, """\
usage: lcusim analytic [-h] [--hamiltonian HAMILTONIAN] [--model {ising}]
                       [--n N] [--J J] [--h H] [--tau TAU] [--kappa KAPPA]
                       [--K K] [--state STATE] [--d D] [--d-ctrl D_CTRL]
                       [--out OUT] [--format {csv,json}]

options:
  -h, --help            show this help message and exit
  --hamiltonian HAMILTONIAN
                        Hamiltonian JSON file
  --model {ising}       built-in model preset
  --n N                 ising sites
  --J J
  --h H
  --tau TAU
  --kappa KAPPA         Taylor register width (K = 2^kappa - 1)
  --K K                 truncation order
  --state STATE         file of 2^n system amplitudes, two reals per line
  --d D                 cost per uncontrolled select
  --d-ctrl D_CTRL       cost per controlled select
  --out OUT             output path (default stdout)
  --format {csv,json}
""", ""),
    "sweep --help": (0, """\
usage: lcusim sweep [-h] [--hamiltonian HAMILTONIAN] [--model {ising}] [--n N]
                    [--J J] [--h H] [--tau TAU] [--state STATE]
                    [--d-ctrl D_CTRL] [--m M] [--out OUT]
                    [--format {csv,json}] [--kappa-max KAPPA_MAX]
                    [--shots SHOTS] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --hamiltonian HAMILTONIAN
                        Hamiltonian JSON file
  --model {ising}       built-in model preset
  --n N                 ising sites
  --J J
  --h H
  --tau TAU
  --state STATE         file of 2^n system amplitudes, two reals per line
  --d-ctrl D_CTRL       cost per controlled select
  --m M                 cost per measurement
  --out OUT             output path (default stdout)
  --format {csv,json}
  --kappa-max KAPPA_MAX
  --shots SHOTS
  --seed SEED
""", ""),
    "resources --help": (0, """\
usage: lcusim resources [-h] [--hamiltonian HAMILTONIAN] [--model {ising}]
                        [--n N] [--J J] [--h H] [--out OUT]
                        [--format {csv,json}] [--K-max K_MAX]

options:
  -h, --help            show this help message and exit
  --hamiltonian HAMILTONIAN
                        Hamiltonian JSON file
  --model {ising}       built-in model preset
  --n N                 ising sites
  --J J
  --h H
  --out OUT             output path (default stdout)
  --format {csv,json}
  --K-max K_MAX
""", ""),
    "bliss --help": (0, """\
usage: lcusim bliss [-h] --fermion-file FERMION_FILE [--nelec NELEC]
                    [--diagonal-only] [--out OUT] [--format {csv,json}]

options:
  -h, --help            show this help message and exit
  --fermion-file FERMION_FILE
                        FCIDUMP-like text file
  --nelec NELEC         electron count (default: file header)
  --diagonal-only       restrict xi to its diagonal
  --out OUT             output path (default stdout)
  --format {csv,json}
""", ""),
    "frobnicate": (
        1,
        "",
        "usage error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'simulate', 'analytic', 'sweep', 'resources', 'bliss')\n",
    ),
    "": (
        1,
        "",
        "usage error: the following arguments are required: command\n",
    ),
    "-5 simulate": (
        1,
        "",
        "usage error: argument command: invalid choice: '-5' "
        "(choose from 'simulate', 'analytic', 'sweep', 'resources', 'bliss')\n",
    ),
}


class TestParser:
    @pytest.mark.parametrize("argv", list(PARSER_PINS))
    def test_help_and_unknown_command_bytes_are_pinned(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(argv.split())
        except SystemExit as exc:  # argparse prints the help, then exits 0
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == PARSER_PINS[argv]

    def test_only_the_named_command_defines_flags(self, capsys, monkeypatch):
        built = []

        class Recording(str):  # a command's flag names, which the parser splits to add them
            def split(self, *args):
                built.append(self.command)
                return super().split(*args)

        def recording(name, flags):
            flags = Recording(flags)
            flags.command = name
            return flags

        commands = {
            name: (help_text, recording(name, flags), run)
            for name, (help_text, flags, run) in cli._COMMANDS.items()
        }
        monkeypatch.setattr(cli, "_COMMANDS", commands)
        cli._parser.cache_clear()
        try:
            argv = ("resources", "--model", "ising", "--n", "2", "--K-max", "1")
            code, _, _ = _run(capsys, *argv)
            assert code == 0
            assert built == ["resources"]
            code, _, _ = _run(capsys, *argv)  # the cached parser: nothing more is built
            assert code == 0
            assert built == ["resources"]
        finally:
            cli._parser.cache_clear()  # drop the parser built on the recording flags

    def test_a_seen_command_constructs_no_parser(self, capsys, monkeypatch):
        import argparse

        constructed = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            constructed.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        argv = ("analytic", "--model", "ising", "--n", "2", "--K", "1")
        assert _run(capsys, *argv)[0] == 0
        assert len(constructed) == 6  # the top level and five subparsers
        constructed.clear()
        assert _run(capsys, *argv)[0] == 0
        assert _run(capsys, "analytic", "--model", "ising", "--n", "3", "--K", "2")[0] == 0
        assert constructed == []

    def test_pinned_bytes_after_every_command_ran(self, capsys, monkeypatch):
        # each command's parser is cached before the help and usage errors are printed
        for argv in WARM_UP:
            assert _run(capsys, *argv)[0] == 0
        monkeypatch.setenv("COLUMNS", "80")
        for argv, pinned in PARSER_PINS.items():
            try:
                code = main(argv.split())
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            assert (code, out.out, out.err) == pinned, argv

    def test_no_value_leaks_into_the_next_call(self, capsys):
        first = ("simulate", "--model", "ising", "--n", "2", "--J", "2", "--h", "1",
                 "--kappa", "3", "--seed", "5", "--shots", "50", "--format", "json")
        assert _run(capsys, *first)[0] == 0
        code, out, err = _run(capsys, "simulate", "--model", "ising")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        fresh = subprocess.run(
            [sys.executable, "-m", "lcusim.cli", "simulate", "--model", "ising"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == 0 and out.startswith("circuit,K,tau,")


BUNDLED_HUBBARD = os.path.join(os.path.dirname(cli.__file__), "data", "hubbard_4site.txt")
WARM_UP = [
    ("simulate", "--model", "ising", "--n", "2", "--shots", "10"),
    ("analytic", "--model", "ising", "--n", "2", "--K", "1"),
    ("sweep", "--model", "ising", "--n", "2", "--kappa-max", "1", "--shots", "10"),
    ("resources", "--model", "ising", "--n", "2", "--K-max", "1"),
    ("bliss", "--fermion-file", BUNDLED_HUBBARD),
]


def _defined_flags(command):
    """The flags ``command``'s parser defines, in their help order."""
    return cli._COMMANDS[command][1].split()


DEFINED_FLAGS = [(command, flag) for command in cli._COMMANDS for flag in _defined_flags(command)]

# For each flag, the arguments of two accepted command lines that differ only in that flag's
# value or presence. {base} is the command's Hamiltonian source ("--model ising", or bliss's
# bundled file); the other names are files the test writes.
FLAG_PAIRS = {
    "--hamiltonian": ("--model ising", "--hamiltonian {ham}"),  # a 2-site chain, not 4
    "--model": ("--model ising", "--hamiltonian {ham}"),
    "--n": ("{base} --n 2", "{base} --n 3"),
    "--J": ("{base} --J 1.0", "{base} --J 0.0"),  # a nonzero J keeps every term: same counts
    "--h": ("{base} --h 0.5", "{base} --h 0.0"),
    "--tau": ("{base}", "{base} --tau 0.3"),
    "--kappa": ("{base}", "{base} --kappa 1"),
    "--K": ("{base}", "{base} --K 7"),
    "--circuit": ("{base}", "{base} --circuit wunary"),
    "--state": ("{base}", "{base} --state {state}"),
    "--d": ("{base}", "{base} --d 2"),
    "--d-ctrl": ("{base}", "{base} --d-ctrl 2"),
    "--m": ("{base}", "{base} --m 1"),
    "--out": ("{base}", "{base} --out {out}"),
    "--format": ("{base}", "{base} --format json"),
    "--shots": ("{base}", "{base} --shots 7"),
    "--seed": ("{base}", "{base} --seed 1"),
    "--kappa-max": ("{base}", "{base} --kappa-max 2"),
    "--K-max": ("{base}", "{base} --K-max 2"),
    "--fermion-file": ("{base}", "--fermion-file {fermions}"),
    "--nelec": ("{base}", "{base} --nelec 2"),
    # the bundled file's optimum is diagonal; on this one the off-diagonal shifts lower l1
    "--diagonal-only": ("--fermion-file {fermions}", "--fermion-file {fermions} --diagonal-only"),
}

# hopping 1 <-> 2 that also counts each orbital's electrons: l1_after is 1.5 with
# off-diagonal shifts and 2.0 without
_OFFDIAGONAL_FERMIONS = "NORB=3 NELEC=1\n1.0 1 1 0 0\n" + "".join(
    f"0.5 {i} {j} {k} {k}\n" for i, j in ((1, 2), (2, 1)) for k in (1, 2, 3)
)


class TestEveryFlagIsRead:
    def test_the_table_covers_exactly_the_defined_flags(self):
        assert sorted({flag for _, flag in DEFINED_FLAGS}) == sorted(FLAG_PAIRS)

    @pytest.mark.parametrize("command, flag", DEFINED_FLAGS)
    def test_the_pair_prints_different_output(self, capsys, tmp_path, command, flag):
        save_hamiltonian(build_ising(2, 1.0, 0.5), tmp_path / "h.json")
        np.savetxt(tmp_path / "psi.txt", [[0.6, 0.0], [0.0, 0.8]] + [[0.0, 0.0]] * 14)
        (tmp_path / "f.txt").write_text(_OFFDIAGONAL_FERMIONS)
        out_file = tmp_path / "out.txt"
        files = {"{ham}": tmp_path / "h.json", "{state}": tmp_path / "psi.txt",
                 "{fermions}": tmp_path / "f.txt", "{out}": out_file}
        base = ["--fermion-file", BUNDLED_HUBBARD] if command == "bliss" else ["--model", "ising"]
        outputs = []
        for args in FLAG_PAIRS[flag]:
            argv = [command]
            for token in args.split():
                argv += base if token == "{base}" else [str(files.get(token, token))]
            code, out, err = _run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            written = out_file.read_text() if out_file.exists() else None
            out_file.unlink(missing_ok=True)
            outputs.append((out, written))
        assert outputs[0] != outputs[1]


class TestIsingFlags:
    # --n, --J and --h set the --model ising chain; a Hamiltonian file has its own
    @pytest.mark.parametrize(
        "flags, named",
        [(["--n", "7"], "--n"), (["--J", "9"], "--J"), (["--h", "3"], "--h"),
         (["--h", "3", "--n", "7"], "--n --h")],
    )
    def test_refused_with_a_hamiltonian_file(self, capsys, tmp_path, flags, named):
        path = tmp_path / "h.json"
        save_hamiltonian(build_ising(2, 1.0, 0.5), path)
        code, out, err = _run(capsys, "analytic", "--hamiltonian", str(path), "--K", "3", *flags)
        assert (code, out) == (1, "")
        assert err == f"usage error: {named}: only --model ising reads these, not --hamiltonian\n"

    def test_ising_defaults_are_4_sites_J_1_h_half(self, capsys):
        _, implicit, _ = _run(capsys, "analytic", "--model", "ising", "--K", "3")
        code, explicit, _ = _run(
            capsys, "analytic", "--model", "ising", "--K", "3", "--n", "4", "--J", "1.0", "--h", "0.5"
        )
        assert code == 0 and explicit == implicit
        _, other, _ = _run(capsys, "analytic", "--model", "ising", "--K", "3", "--J", "2")
        assert other != implicit

    @pytest.mark.parametrize("command", [["analytic", "--K", "3"], ["simulate", "--kappa", "1"],
                                         ["sweep", "--kappa-max", "1"], ["resources"]])
    def test_an_l1_norm_that_overflows_is_refused_when_the_chain_is_built(self, capsys, command):
        # each weight is finite, but 3 * 1e308 + 4 * 1e308 is not
        code, out, err = _run(capsys, *command, "--model", "ising", "--J", "1e308", "--h", "1e308")
        assert (code, out) == (2, "")
        assert err == "error: the l1 norm must be positive and finite, got inf\n"


class TestPlanLength:
    # a unary plan of order K holds 2K + 3 instructions, a W-tilde plan of width kappa
    # 2^(kappa+1) + 1; past the limit a command exits 2 before building any unary plan, and
    # only the width cap bounds W-tilde plans
    def test_unary_plan_holds_2K_plus_3_instructions(self):
        from lcusim.circuits import build_w_unary

        H = build_ising(2, 1.0, 0.5)
        sizes = [len(build_w_unary(H, 0.05, K).instructions) for K in range(1, 9)]
        assert sizes == [2 * K + 3 for K in range(1, 9)]
        assert [sum(sizes[:k]) for k in range(1, 9)] == [k * (k + 4) for k in range(1, 9)]

    def test_wtilde_plan_holds_2_to_the_kappa_plus_1_plus_1_instructions(self):
        from lcusim.circuits import build_w_tilde

        H = build_ising(2, 1.0, 0.5)
        sizes = [len(build_w_tilde(H, 0.05, kappa).instructions) for kappa in range(1, 9)]
        assert sizes == [2 ** (kappa + 1) + 1 for kappa in range(1, 9)]
        assert [sum(sizes[:k]) for k in range(1, 9)] == [2 ** (k + 2) - 4 + k for k in range(1, 9)]

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["simulate", "--n", "2", "--circuit", "wunary", "--K", "349999"], 700001),
            (["simulate", "--n", "2", "--circuit", "wunary", "--K", str(2**22 - 1)], 2**23 + 1),
            (["resources", "--K-max", "835"], 700565),
            (["resources", "--K-max", str(2**24 - 1)], 2**48 + 2**25 - 3),
        ],
    )
    def test_past_the_limit_exit_2_before_building(self, capsys, argv, count):
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, *argv, "--model", "ising")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == (
            f"error: the plans would hold {count} instructions, over the limit of 700000\n"
        )
        assert peak < 1 << 20

    def test_the_limit_itself_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_INSTRUCTIONS", 2 * 40 + 3)
        unary = ("simulate", "--model", "ising", "--circuit", "wunary", "--shots", "10", "--K")
        assert _run(capsys, *unary, "40")[0] == 0
        assert _run(capsys, *unary, "41")[0] == 2
        monkeypatch.setattr(cli, "_MAX_INSTRUCTIONS", 7 * (7 + 4))
        code, out, _ = _run(capsys, "resources", "--model", "ising", "--K-max", "7")
        assert code == 0 and out == STDOUT_PINS["resources --model ising --K-max 7"]
        assert _run(capsys, "resources", "--model", "ising", "--K-max", "8")[0] == 2


class TestIsingSites:
    # resources holds no state, so only _MAX_ISING_SITES bounds its chain's n^2 letters
    @pytest.mark.parametrize("n", [10_001, 100_000])
    def test_past_the_limit_exit_2_before_building(self, capsys, n):
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, "resources", "--model", "ising", "--n", str(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == f"error: an Ising chain of {n} sites is over the limit of 10000\n"
        assert peak < 1 << 20

    def test_the_limit_itself_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_ISING_SITES", 4)
        code, out, _ = _run(capsys, "resources", "--model", "ising", "--n", "4", "--K-max", "7")
        assert code == 0 and out == STDOUT_PINS["resources --model ising --K-max 7"]
        assert _run(capsys, "resources", "--model", "ising", "--n", "5")[0] == 2


class TestAnalyticWork:
    # analytic's K matvecs read 2^max(n, 9) amplitudes once per distinct X mask and once
    # more; past _MAX_AMPLITUDE_READS it exits 2 before the first matvec
    @pytest.mark.parametrize(
        "argv, reads",
        [
            (["--n", "12", "--kappa", "18"], (2**18 - 1) * 14 << 12),
            (["--n", "2", "--kappa", "22"], (2**22 - 1) * 4 << 9),
            (["--n", "2", "--h", "0", "--kappa", "24"], (2**24 - 1) * 2 << 9),  # every q is 1
            (["--n", "24", "--K", "6"], 6 * 26 << 24),
        ],
    )
    def test_past_the_limit_exit_2_before_a_matvec(self, capsys, monkeypatch, argv, reads):
        monkeypatch.setattr(hamiltonian, "pauli_sum_apply", None)  # a matvec would raise
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, "analytic", "--model", "ising", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == (f"error: the moment pass would read {reads} amplitudes, "
                       "over the limit of 2500000000\n")
        assert peak < 1 << 20

    def test_the_limit_itself_is_accepted(self, capsys, monkeypatch):
        argv = "analytic --model ising --tau 0.05 --K 7".split()
        expected = _run(capsys, *argv)[1]
        monkeypatch.setattr(cli, "_MAX_AMPLITUDE_READS", 7 * (4 + 1 + 1) << 9)
        assert _run(capsys, *argv) == (0, expected, "")
        assert _run(capsys, *argv[:-1], "8")[0] == 2

    def test_diagonals_over_the_limit_exit_2_with_one_line(self, capsys, tmp_path):
        # five Z-carrying X masks at n = 24 would hold 5 * 256 MiB of diagonals
        path = tmp_path / "h.json"
        terms = [(1.0, "Z" + "".join("X" if j == k else "I" for j in range(1, 24)))
                 for k in range(5)]
        save_hamiltonian(canonicalize(24, terms), path)
        code, out, err = _run(capsys, "analytic", "--hamiltonian", str(path), "--K", "1")
        assert (code, out) == (2, "")
        assert err == ("error: the Hamiltonian's diagonals would take 1342177280 bytes, over the "
                       "limit of 1073741824\n")

    def test_a_file_counts_its_distinct_x_masks(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "h.json"
        save_hamiltonian(canonicalize(2, [(1.0, "XI"), (0.5, "YZ"), (0.3, "ZZ"), (0.2, "IX")]), path)
        monkeypatch.setattr(cli, "_MAX_AMPLITUDE_READS", 3 * (3 + 1) << 9)  # x = 1, 0, 2
        argv = ["analytic", "--hamiltonian", str(path), "--K", "3"]
        assert _run(capsys, *argv)[0] == 0
        assert _run(capsys, *argv[:-1], "4")[0] == 2


class TestHugeTau:
    # beta_k = (tau l1)^k / k! or ||beta||_1^2 overflows: one line and exit 2, never a
    # traceback or a NaN row
    @pytest.mark.parametrize("tau", ["1e100", "1e300", "1e308"])
    @pytest.mark.parametrize(
        "argv", [["analytic"], ["simulate", "--shots", "10"], ["sweep", "--shots", "10"]]
    )
    def test_exit_2_with_one_line(self, capsys, argv, tau):
        code, out, err = _run(capsys, *argv, "--model", "ising", "--tau", tau)
        assert code == 2
        assert out == ""
        assert err.startswith("error: Taylor weights overflow") and err.count("\n") == 1

    def test_only_the_weights_up_to_K_are_checked(self, capsys):
        # tau l1 = 5e25: beta_0..beta_5 and ||beta||_1^2 are finite; beta_6 and beta_7,
        # which a 3-qubit Taylor register could hold, are never used
        model = ("--model", "ising", "--n", "4", "--K", "5", "--tau", "1e25")
        code, out, err = _run(capsys, "analytic", *model)
        assert (code, err) == (0, "")
        (row,) = _csv_rows(out)
        # beta_5 H~^5 dominates the truncated series, so p_wtilde is p_hk
        assert float(row["p_wtilde"]) == pytest.approx(float(row["p_hk"]), rel=1e-12)
        code, out, err = _run(capsys, "simulate", "--circuit", "wunary", *model, "--shots", "100")
        assert (code, err) == (0, "")
        assert _csv_rows(out)[0]["K"] == "5"


class TestCostOverflow:
    # finite cost units whose runtimes or summed shot costs overflow: one line and exit 2,
    # no numpy warning; an infinite runtime on a zero branch stays (test_json_writes_...)
    @pytest.mark.parametrize(
        "argv",
        [
            ["analytic", "--K", "8", "--d-ctrl", "1e308"],  # runtime_upper_bound
            ["analytic", "--K", "3", "--d", "1e308"],  # total_runtime_hk
            ["simulate", "--kappa", "2", "--d-ctrl", "1e308", "--shots", "10"],  # one shot's cost
            ["simulate", "--kappa", "2", "--d-ctrl", "1e305", "--shots", "10000"],  # their sum
            ["sweep", "--m", "1e307", "--shots", "10"],
        ],
    )
    def test_exit_2_with_one_line(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, *argv, "--model", "ising")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "overflow" in err and err.count("\n") == 1

    def test_a_subnormal_p_hk_is_named_not_the_cost_units(self, capsys):
        # at unit costs p_hk ~ 2^-1030 sends 1 / p_hk shots past the float range; the error
        # blamed the cost units, as it still does for --d 1e308
        code, out, err = _run(capsys, "analytic", "--model", "ising", "--n", "2", "--K", "1030")
        assert (code, out) == (2, "")
        assert err == ("error: p_hk = 4.345847379897e-311 is too small: the W_H^k runtime "
                       "overflows the float range\n")
        code, out, err = _run(capsys, "analytic", "--model", "ising", "--n", "2", "--d", "1e308")
        assert (code, out) == (2, "")
        assert err == "error: a cost overflows the float range: the cost units are too large\n"

    def test_large_finite_costs_pass(self, capsys):
        code, out, _ = _run(
            capsys, "simulate", "--model", "ising", "--kappa", "2", "--d-ctrl", "1e300",
            "--shots", "10",
        )
        assert code == 0 and math.isfinite(float(_csv_rows(out)[0]["mean_cost"]))


class TestNoAbbreviations:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", "ising", "--sho", "10"],
            ["bliss", "--fermion", "src/lcusim/data/hubbard_4site.txt"],
            ["analytic", "--mod", "ising"],
            ["sweep", "--model", "ising", "--kappa-m", "2"],
            ["resources", "--model", "ising", "--K-m", "2"],
        ],
    )
    def test_every_command_refuses_a_prefix(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ")


class TestMalformedHamiltonianFile:
    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            '{"n": 2}',
            '{"n": 2, "terms": 5}',
            '{"n": 2, "terms": [{"coeff": 1.0}]}',
            "[1]",
            '{"n": 2, "terms": [{"coeff": null, "paulis": "ZZ"}]}',
            "[" * 100_000 + "]" * 100_000,  # json's RecursionError
            "{",
        ],
    )
    def test_exit_2_with_one_line(self, capsys, tmp_path, text):
        path = tmp_path / "h.json"
        path.write_text(text)
        code, out, err = _run(capsys, "analytic", "--hamiltonian", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ('{"n": 0, "terms": [{"coeff": 1.0, "paulis": "Z"}]}', InvalidModelError,
             "n must be at least 1, got 0"),
            ('{"n": 1, "terms": [{"coeff": 1.0, "paulis": "XX"}]}', InvalidHamiltonianError,
             "term 'XX' does not act on 1 qubits"),
        ],
        ids=["n=0", "XX on 1 qubit"],
    )
    def test_a_refused_content_names_its_file(self, capsys, tmp_path, text, error, message):
        path = tmp_path / "h.json"
        path.write_text(text)
        with pytest.raises(error) as info:
            load_hamiltonian(path)
        assert str(info.value) == f"{path}: {message}"
        code, out, err = _run(capsys, "analytic", "--hamiltonian", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


# ``analytic --model ising --n 9 --tau 0.05 --K 7`` on the seeded state of
# ``test_values_are_pinned``, as printed when every value had its own matvec passes; the
# runtime bound since it takes (K - 1), not K, blocks off at the first measurement
ANALYTIC_N9_PIN = {
    "K": 7,
    "expected_runtime_hk": 1.090254831438661,
    "kappa": 3,
    "l1_norm": 12.5,
    "p_hk": 7.575744433105355e-05,
    "p_wtilde": 0.2865049867228017,
    "runtime_upper_bound": 17.928526713711925,
    "tau": 0.05,
    "total_runtime_hk": 14391.388741604584,
}


class TestAnalyticPasses:
    ARGV = ["analytic", "--model", "ising", "--n", "9", "--tau", "0.05", "--K", "7"]

    def _state(self, tmp_path):
        rng = np.random.default_rng(2024)
        v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        v /= np.linalg.norm(v)
        path = tmp_path / "psi.txt"
        np.savetxt(path, np.column_stack([v.real, v.imag]), fmt="%.17g")
        return str(path)

    def test_values_are_pinned(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys, *self.ARGV, "--state", self._state(tmp_path), "--format", "json"
        )
        assert code == 0
        (row,) = json.loads(out)
        assert row.keys() == ANALYTIC_N9_PIN.keys()
        for key, pinned in ANALYTIC_N9_PIN.items():
            assert row[key] == pytest.approx(pinned, rel=1e-14, abs=0), key

    def test_each_value_is_computed_once(self, capsys, monkeypatch, tmp_path):
        # one moment pass of K matvecs gives p_wtilde, p1, p_hk and the runtimes; a Horner
        # pass and a chain pass took 2K
        calls = {"sampler": 0, "oracle": 0, "diagonals": 0}
        monkeypatch.setattr(sampler, "apply_rescaled",
                            _counting(calls, "sampler", sampler.apply_rescaled))
        monkeypatch.setattr(oracle, "apply_rescaled",
                            _counting(calls, "oracle", oracle.apply_rescaled))
        monkeypatch.setattr(hamiltonian, "_group_diagonals",
                            _counting(calls, "diagonals", hamiltonian._group_diagonals))
        code, _, _ = _run(capsys, *self.ARGV, "--state", self._state(tmp_path))
        assert code == 0
        assert calls == {"sampler": 7, "oracle": 0, "diagonals": 1}


def _analytic(H, psi, tau, K):
    """``analytic``'s p_wtilde, p1 and p_hk for H and psi, which no flag can name: the
    command with its Hamiltonian and state resolved to them, p1 read where the bound takes it."""
    argv = ["analytic", "--tau", repr(tau), "--K", str(K)]
    p1 = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_resolve_hamiltonian", lambda args: H)
        mp.setattr(cli, "_resolve_state", lambda args, n: psi)
        mp.setattr(cli, "runtime_bound", lambda p_w, p, *rest: p1.append(p) or 0.0)
        (row,) = cli.cmd_analytic(cli.build_parser(argv).parse_args(argv))
    return row["p_wtilde"], p1[0], row["p_hk"]


class TestAnalyticMomentPass:
    # the one moment pass against the two matrix-free passes of lcusim.oracle (Horner and the
    # normalized chain) and against dense matrices
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), L=st.integers(1, 6), hermitian=st.booleans(),
           x=st.floats(0.0, 2.0), K=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_p_wtilde_p1_and_p_hk_match_the_references(self, n, L, hermitian, x, K, seed):
        rng = np.random.default_rng(seed)
        H = random_hamiltonian(n, min(L, 4**n - 1), rng, hermitian=hermitian)
        psi, tau = random_state(n, rng), x / l1_norm(H)
        p_w, p1, p_hk = _analytic(H, psi, tau, K)
        assert all(type(p) is float for p in (p_w, p1, p_hk))  # repr prints no np.float64(...)
        chain = oracle.chain_probabilities(H, psi, K)
        assert p_w == pytest.approx(oracle.success_prob_wtilde(H, psi, tau, K), rel=1e-12)
        assert p1 == pytest.approx(chain[0], rel=1e-12)
        assert p_hk == pytest.approx(math.prod(chain), rel=1e-12)
        beta = taylor_weights(tau, l1_norm(H), K)
        u, ht = truncated_taylor_matrix(H, tau, K) @ psi, rescaled_matrix(H)
        v = np.linalg.matrix_power(ht, K) @ psi
        assert p_w == pytest.approx(np.vdot(u, u).real / beta.sum() ** 2, rel=1e-12)
        assert p1 == pytest.approx(np.linalg.norm(ht @ psi) ** 2, rel=1e-12)
        assert p_hk == pytest.approx(np.vdot(v, v).real, rel=1e-12)

    @pytest.mark.parametrize("K", [1030, 1061])
    def test_a_rescaled_pass_matches_the_chain(self, K):
        # nu_K near 2^-970: the pass rescales past 2^-900, and p_hk stays a normal float
        H, psi = build_ising(2, 1.0, 0.3), random_state(2, np.random.default_rng(K))
        p_w, p1, p_hk = _analytic(H, psi, 0.4, K)
        chain = oracle.chain_probabilities(H, psi, K)
        assert 2.0**-1022 < p_hk < 2.0**-900
        assert p_w == pytest.approx(oracle.success_prob_wtilde(H, psi, 0.4, K), rel=1e-12)
        assert p1 == pytest.approx(chain[0], rel=1e-12)
        assert p_hk == pytest.approx(math.prod(chain), rel=1e-12)

    # p_wtilde of Ising n = 4 from |0000>: ||sum_{k<=K} (-i tau)^k H^k psi / k!||^2 over
    # ||beta||_1^2, summed in 80-digit mpmath (mp.dps = 80) on the integer matrix of
    # reference.to_matrix and rounded to 17 digits
    EXACT_P_WTILDE = {(1, 74): 4.5399929762484852e-05, (5, 60): 1.9287498569841458e-22}

    @pytest.mark.parametrize("tau, K", list(EXACT_P_WTILDE))
    def test_p_wtilde_is_no_further_from_the_exact_value_than_horner(self, capsys, tau, K):
        code, out, _ = _run(capsys, "analytic", "--model", "ising", "--tau", str(tau), "--K", str(K))
        assert code == 0
        exact, p = self.EXACT_P_WTILDE[tau, K], float(_csv_rows(out)[0]["p_wtilde"])
        horner = oracle.success_prob_wtilde(build_ising(4, 1.0, 0.5), np.eye(16)[0], tau, K)
        assert abs(p - exact) <= abs(horner - exact)


# Full stdout of each command as printed while every LCU block was three plan
# instructions (Prepare, Select, AdjointPrepare): a change to the plan IR, the cost
# model or the emitter shows here.
STDOUT_PINS = {
    'simulate --model ising --circuit wunary --K 3 --d-ctrl 0.7 --m 0.1': (
        'circuit,K,tau,shots,successes,p_hat,stderr,abort_histogram,mean_cost\n'
        'wunary,3,0.05,10000,6065,0.6065,0.004885260996098366,1:1366;2:56;3:2;4:2511,2.45788\n'
    ),
    'simulate --model ising --circuit wunary --K 3 --d-ctrl 0.7 --m 0.1 --format json': (
        '[\n'
        ' {\n'
        '  "K": 3,\n'
        '  "abort_histogram": "1:1366;2:56;3:2;4:2511",\n'
        '  "circuit": "wunary",\n'
        '  "mean_cost": 2.45788,\n'
        '  "p_hat": 0.6065,\n'
        '  "shots": 10000,\n'
        '  "stderr": 0.004885260996098366,\n'
        '  "successes": 6065,\n'
        '  "tau": 0.05\n'
        ' }\n'
        ']\n'
    ),
    'simulate --model ising --kappa 2 --d-ctrl 0.7 --m 0.1': (
        'circuit,K,tau,shots,successes,p_hat,stderr,abort_histogram,mean_cost\n'
        'wtilde,3,0.05,10000,6005,0.6005,0.004897956206419163,1:1218;2:147;3:56;4:2574,2.27915\n'
    ),
    'simulate --model ising --kappa 2 --d-ctrl 0.7 --m 0.1 --format json': (
        '[\n'
        ' {\n'
        '  "K": 3,\n'
        '  "abort_histogram": "1:1218;2:147;3:56;4:2574",\n'
        '  "circuit": "wtilde",\n'
        '  "mean_cost": 2.27915,\n'
        '  "p_hat": 0.6005,\n'
        '  "shots": 10000,\n'
        '  "stderr": 0.004897956206419163,\n'
        '  "successes": 6005,\n'
        '  "tau": 0.05\n'
        ' }\n'
        ']\n'
    ),
    'sweep --model ising --m 0.25 --kappa-max 3': (
        'K,kappa,shots,successes,p_hat,stderr,abort_histogram,mean_cost,p_analytic\n'
        '1,1,10000,6542,0.6542,0.0047562838435063984,1:1237;2:2221,1.469075,0.6559999999999999\n'
        '3,2,10000,6005,0.6005,0.004897956206419163,1:1218;2:147;3:56;4:2574,3.6416,0.6066575788750417\n'
        '7,3,10000,5975,0.5975,0.004904016211229323,1:1218;2:147;3:56;8:2604,7.9311,0.6065306600635358\n'
    ),
    'analytic --model ising --n 6 --tau 0.3 --K 5 --d 0.3 --d-ctrl 0.7': (
        'K,kappa,tau,l1_norm,p_wtilde,p_hk,expected_runtime_hk,total_runtime_hk,runtime_upper_bound\n'
        '5,3,0.3,8.0,0.008919395373935537,0.019610645482316613,0.5198115617036818,26.506601334076855,350.8740529280384\n'
    ),
    'analytic --model ising --n 6 --tau 0.3 --K 5 --d 0.3 --d-ctrl 0.7 --format json': (
        '[\n'
        ' {\n'
        '  "K": 5,\n'
        '  "expected_runtime_hk": 0.5198115617036818,\n'
        '  "kappa": 3,\n'
        '  "l1_norm": 8.0,\n'
        '  "p_hk": 0.019610645482316613,\n'
        '  "p_wtilde": 0.008919395373935537,\n'
        '  "runtime_upper_bound": 350.8740529280384,\n'
        '  "tau": 0.3,\n'
        '  "total_runtime_hk": 26.506601334076855\n'
        ' }\n'
        ']\n'
    ),
    # at a d that is no dyadic fraction, K >= 15: a shot's cost is a running sum of d, as in
    # shot_costs, and both runtimes are the exact mean and its restart quotient
    'analytic --model ising --n 6 --tau 0.3 --K 15 --d 0.1 --d-ctrl 0.7': (
        'K,kappa,tau,l1_norm,p_wtilde,p_hk,expected_runtime_hk,total_runtime_hk,runtime_upper_bound\n'
        '15,4,0.3,8.0,0.008229747149530042,1.1286863068393427e-05,0.1769947283066592,15681.480960134713,1123.946219796296\n'
    ),
    'analytic --model ising --n 3 --tau 0.05 --K 15 --d 0.1 --d-ctrl 0.7': (
        'K,kappa,tau,l1_norm,p_wtilde,p_hk,expected_runtime_hk,total_runtime_hk,runtime_upper_bound\n'
        '15,4,0.05,3.5,0.7046880897187133,5.801810064685756e-06,0.16896443052545734,29122.70974775679,13.649400732786226\n'
    ),
    'resources --model ising --K-max 7': (
        'family,K,kappa,qubits,two_qubit,measurements\n'
        'wtilde,1,1,8,260,4\n'
        'wunary,1,1,8,260,4\n'
        'wtilde,2,2,9,784,11\n'
        'wunary,2,2,12,524,8\n'
        'wtilde,3,2,9,784,11\n'
        'wunary,3,2,16,788,12\n'
        'wtilde,4,3,10,1832,24\n'
        'wunary,4,3,20,1052,16\n'
        'wtilde,5,3,10,1832,24\n'
        'wunary,5,3,24,1316,20\n'
        'wtilde,6,3,10,1832,24\n'
        'wunary,6,3,28,1580,24\n'
        'wtilde,7,3,10,1832,24\n'
        'wunary,7,3,32,1844,28\n'
    ),
}


@pytest.mark.parametrize("argv", list(STDOUT_PINS))
def test_stdout_is_pinned(capsys, argv):
    code, out, err = _run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert out == STDOUT_PINS[argv]
