"""Smoke test of ``scripts/kernel_crossover.py``, the micro-benchmark of the two Pauli-sum
forms, at sizes that take well under a second."""
import importlib.util
import json
from pathlib import Path

from lcusim import hamiltonian

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "kernel_crossover.py"
_SPEC = importlib.util.spec_from_file_location("kernel_crossover", _PATH)
kernel_crossover = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(kernel_crossover)


def test_it_times_both_forms_of_both_models_and_restores_the_budget(capsys, tmp_path):
    budget = hamiltonian._MAX_STACK_ENTRIES
    out = tmp_path / "bench.json"
    out.write_text('{"kept": 1}\n')
    assert kernel_crossover.main(["--n-min", "4", "--n-max", "5", "--repeat", "1",
                                  "--json", str(out)]) == 0
    assert hamiltonian._MAX_STACK_ENTRIES == budget
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(kernel_crossover.COLUMNS)
    rows = [dict(zip(kernel_crossover.COLUMNS, line.split(","))) for line in lines[1:5]]
    assert [(r["model"], int(r["n"])) for r in rows] == [
        ("ising", 4), ("ising", 5), ("local3", 4), ("local3", 5)]
    for r in rows:
        assert int(r["entries"]) == int(r["groups"]) << int(r["n"])
        assert float(r["stack_us"]) > 0 and float(r["views_us"]) > 0
    assert rows[0]["groups"] == "5"  # Ising: x = 0 and one X mask per site
    assert [line.split(":")[0] for line in lines[5:]] == ["ising", "local3"]
    data = json.loads(out.read_text())
    assert data["kept"] == 1 and data["kernel_crossover"]["budget"] == budget
    assert len(data["kernel_crossover"]["rows"]) == 4
