"""Tests of the benchmark's own logic: span arithmetic, tracer hygiene,
correctness checks and seeded inputs. Run with ``python3 -m pytest bench``."""
import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

import layers
import run
import workloads
from jw_reference import JordanWigner, bliss_reference, pauli_coefficients, read_fermion_file
from tracer import EXPECTED, LAYERS, Span, Tracer, covered_ns, self_times_ns

ROOT = Path(__file__).resolve().parent.parent
BLISS_PATH = ROOT / workloads.BLISS_FILE


# --- span arithmetic --------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        Span("bench.job", None, 0, 100, 1),
        Span("sampler.run_shots", 0, 10, 40, 1),
        Span("statevector.apply_select", 1, 15, 25, 1),
        Span("oracle.success_prob_hk", 0, 50, 90, 1),
        Span("hamiltonian.to_matrix", 3, 60, 70, 1),
        Span("oracle.rescaled_matrix", 3, 70, 80, 1),
    ]
    assert self_times_ns(spans) == [30, 20, 10, 20, 10, 10]
    assert sum(self_times_ns(spans)) == 100  # self times tile the root span


def test_covered_time_merges_overlaps_and_clips_to_parent():
    parent = Span("a.f", None, 10, 100, 1)
    kids = [Span("a.g", 0, 20, 50, 1), Span("a.h", 0, 40, 60, 1), Span("a.k", 0, 90, 130, 1)]
    assert covered_ns(parent, kids) == 40 + 10


def test_layer_metrics_sum_self_times_by_layer():
    spans = [
        Span("bench.job", None, 0, 1_000_000_000, 1),
        Span("sampler.run_shots", 0, 0, 600_000_000, 1, "wtilde", {"shots": 100, "successes": 25, "draws": 250}),
        Span("sampler.trace_plan", 1, 0, 200_000_000, 1, "wtilde"),
        Span("statevector.apply_select", 2, 0, 150_000_000, 1, "wtilde", {"bytes": 3_000_000_000}),
    ]
    m = layers.job_layer_metrics(spans, self_times_ns(spans), {"sampler.shot_rng": 100})
    assert m["statevector.self_s"] == pytest.approx(0.15)
    assert m["sampler.self_s"] == pytest.approx(0.45)
    assert m["sampler.shot_loop_s"] == pytest.approx(0.4)
    assert m["sampler.us_per_shot"] == pytest.approx(4000.0)
    assert m["sampler.success_frac"] == pytest.approx(0.25)
    assert m["sampler.draws_per_shot"] == pytest.approx(2.5)
    assert m["statevector.select_s.wtilde"] == pytest.approx(0.15)
    assert m["statevector.select_s.wunary"] == 0
    assert m["statevector.gb_per_s"] == pytest.approx(20.0)
    assert set(m) == {name for name, _ in layers.PER_LAYER}


# --- tracer hygiene ---------------------------------------------------------------


def _run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_traced_run_prints_the_same_bytes_and_restores_functions():
    import lcusim.cli as cli
    import lcusim.sampler as sampler

    argv = ["sweep", "--model", "ising", "--n", "3", "--kappa-max", "2", "--shots", "300", "--seed", "4"]
    original = sampler.apply_select
    plain = _run_cli(cli, argv)
    tracer = Tracer()
    idx = tracer.begin_job(7)
    traced = _run_cli(cli, argv)
    wall_s = tracer.end_job(idx)
    assert traced == plain
    assert sampler.apply_select is original
    assert tracer.absent == []
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "sampler.run_shots", "sampler.trace_plan", "statevector.apply_select"} <= names
    assert tracer.counts[7]["sampler.shot_rng"] == 600
    selfs = self_times_ns(tracer.spans)
    layer_sum = sum(st for s, st in zip(tracer.spans, selfs) if s.layer in LAYERS) / 1e9
    assert 0 < layer_sum <= wall_s


def test_missing_function_is_reported_absent(monkeypatch):
    pkg = types.ModuleType("fakelcu")
    sampler = types.ModuleType("fakelcu.sampler")
    exec("def trace_plan(plan, psi):\n    return 1\n", sampler.__dict__)
    monkeypatch.setitem(sys.modules, "fakelcu", pkg)
    monkeypatch.setitem(sys.modules, "fakelcu.sampler", sampler)
    tracer = Tracer("fakelcu")
    assert "sampler.run_shots" in tracer.absent
    assert "sampler.trace_plan" not in tracer.absent
    assert len(tracer.absent) == len(EXPECTED) - 1
    idx = tracer.begin_job(0)
    assert sampler.trace_plan(None, None) == 1
    tracer.end_job(idx)
    assert [s.name for s in tracer.spans] == ["bench.job", "sampler.trace_plan"]


def test_hook_that_no_longer_fits_records_nothing(monkeypatch):
    pkg = types.ModuleType("fakelcu")
    sampler = types.ModuleType("fakelcu.sampler")
    exec("def run_shots(plan):\n    return 'not a RunStats'\n", sampler.__dict__)
    monkeypatch.setitem(sys.modules, "fakelcu", pkg)
    monkeypatch.setitem(sys.modules, "fakelcu.sampler", sampler)
    tracer = Tracer("fakelcu")
    idx = tracer.begin_job(0)
    assert sampler.run_shots(None) == "not a RunStats"
    tracer.end_job(idx)
    assert tracer.spans[1].attrs is None


# --- correctness checks -----------------------------------------------------------


@pytest.fixture(scope="module")
def refs():
    return workloads.References(ROOT)


def _output(argv):
    import lcusim.cli as cli

    return {"rc": 0, "stdout": _run_cli(cli, argv), "stderr": ""}


def _csv_replace(text, column, fn, row=0):
    rows = workloads._csv_rows(text)
    rows[row][column] = fn(rows[row])
    buf = io.StringIO()
    header = list(rows[0])
    buf.write(",".join(header) + "\n")
    for r in rows:
        buf.write(",".join(str(r[h]) for h in header) + "\n")
    return buf.getvalue()


SWEEP = ["sweep", "--model", "ising", "--n", "4", "--J", "1.0", "--h", "0.5", "--tau", "0.05",
         "--kappa-max", "2", "--shots", "4000", "--seed", "3"]
SIMULATE = ["simulate", "--model", "ising", "--n", "4", "--tau", "0.05", "--K", "3",
            "--circuit", "wunary", "--shots", "4000", "--seed", "3"]
RESOURCES = ["resources", "--model", "ising", "--n", "4", "--K-max", "3", "--format", "json"]


def _move_6_sigma(row):
    return repr(float(row["p_hat"]) + 6 * float(row["stderr"]))


@pytest.mark.parametrize("argv", [SWEEP, SIMULATE], ids=["sweep", "simulate"])
def test_sampled_row_moved_by_6_sigma_is_rejected(argv, refs):
    good = _output(argv)
    assert workloads.check_command(argv, good, refs) == []
    bad = dict(good, stdout=_csv_replace(good["stdout"], "p_hat", _move_6_sigma))
    errors = workloads.check_command(argv, bad, refs)
    assert any("stderr" in e for e in errors)


def test_sweep_analytic_column_is_checked(refs):
    good = _output(SWEEP)
    bad = dict(good, stdout=_csv_replace(good["stdout"], "p_analytic", lambda r: repr(float(r["p_analytic"]) + 1e-6), 1))
    assert workloads.check_command(SWEEP, bad, refs)


def test_analytic_probabilities_are_checked(refs, tmp_path):
    state = tmp_path / "psi.txt"
    workloads.write_state(state, workloads.random_state(5, 0, 4))
    argv = ["analytic", "--model", "ising", "--n", "4", "--tau", "0.05", "--K", "7", "--state", str(state)]
    good = _output(argv)
    assert workloads.check_command(argv, good, refs) == []
    for column in ("p_wtilde", "p_hk"):
        bad = dict(good, stdout=_csv_replace(good["stdout"], column, lambda r: repr(float(r[column]) + 1e-8)))
        assert any(column in e for e in workloads.check_command(argv, bad, refs))


def test_off_by_one_qubit_count_is_rejected(refs):
    good = _output(RESOURCES)
    assert workloads.check_command(RESOURCES, good, refs) == []
    rows = json.loads(good["stdout"])
    rows[3]["qubits"] += 1
    bad = dict(good, stdout=json.dumps(rows))
    assert any("qubits" in e for e in workloads.check_command(RESOURCES, bad, refs))


def test_bliss_l1_after_must_match_the_linear_program(refs, monkeypatch):
    argv = ["bliss", "--fermion-file", workloads.BLISS_FILE]
    monkeypatch.chdir(ROOT)
    good = _output(argv)
    assert workloads.check_command(argv, good, refs) == []
    bad = dict(good, stdout=_csv_replace(good["stdout"], "l1_after", lambda r: repr(float(r["l1_after"]) + 1e-4)))
    assert any("l1_after" in e for e in workloads.check_command(argv, bad, refs))


def test_nonzero_exit_fails_the_command(refs):
    assert workloads.check_command(RESOURCES, {"rc": 2, "stdout": "", "stderr": "error: x"}, refs)


def test_jw_reference_matches_lcusim_encoding():
    from lcusim.bliss import jordan_wigner, load_fermionic

    H = jordan_wigner(load_fermionic(BLISS_PATH)[0])
    n, _, const, one, two = read_fermion_file(BLISS_PATH)
    mine = pauli_coefficients(JordanWigner(n).operator(const, one, two))
    letters = {}
    for (x, z), c in mine.items():
        if abs(c) > 1e-12:
            key = "".join("IXZY"[((x >> q) & 1) | (((z >> q) & 1) << 1)] for q in range(n))
            letters[key] = c
    theirs = {t.letters: t.coefficient for t in H.terms}
    assert letters.keys() == theirs.keys()
    assert max(abs(letters[k] - theirs[k]) for k in theirs) < 1e-12
    l1_before, l1_best = bliss_reference(BLISS_PATH)
    assert l1_before == pytest.approx(22.0)
    assert l1_best == pytest.approx(14.0, abs=1e-6)


# --- seeded inputs and the benchmark definition -----------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    make = workloads.WORKLOADS[name]

    def materialise(jobs, d):
        flat = json.dumps(jobs)
        files = {p.name: p.read_text() for p in sorted(d.iterdir())}
        return flat.replace(str(d), "<dir>"), files

    first = materialise(make(11, 30, a), a)
    assert first == materialise(make(11, 30, b), b)
    assert first != materialise(make(12, 30, c), c)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert 1 <= spec["run_seconds"] <= 60
