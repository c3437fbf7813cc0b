"""What callers rely on in the package's records: value records compare and hash by their
fields, plans and Prepareds only by identity, the Hamiltonian's fields are read-only under
its cached masks, and each constructor keeps its signature and its refusals."""
import math
import re

import numpy as np
import pytest

from lcusim.bliss import BlissParams, BlissResult, FermionicOperator
from lcusim.circuits import CircuitPlan, Prepared, Run, build_w_tilde
from lcusim.errors import InvalidHamiltonianError, InvalidModelError, LayoutError
from lcusim.hamiltonian import HamiltonianLCU, PauliTerm, build_ising
from lcusim.resources import CostModel, GateCounts, count
from lcusim.sampler import PlanTrace, RunStats

H2 = build_ising(2, 1.0, 0.5)


@pytest.mark.parametrize("make,other", [
    (lambda: Run("l", 0, 2), lambda: Run("l", 0, 3)),
    (lambda: PauliTerm(0.5, 0.0, "XZ"), lambda: PauliTerm(0.5, math.pi, "XZ")),
    (lambda: build_ising(2, 1.0, 0.5), lambda: build_ising(2, 1.0, 0.25)),
    (lambda: GateCounts(5, 12, 3), lambda: GateCounts(5, 12, 4)),
    (lambda: CostModel(d=0.3), lambda: CostModel(d=0.4)),
])
def test_value_records_compare_and_hash_by_their_fields(make, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != other() and type(a) is type(other())


def test_plans_and_prepares_are_equal_only_to_themselves():
    amps = np.array([1.0, 0.0])
    assert Prepared("k", amps) != Prepared("k", amps)
    plan = build_w_tilde(H2, 0.1, 1)
    assert plan == plan and plan != build_w_tilde(H2, 0.1, 1)
    assert len({plan, build_w_tilde(H2, 0.1, 1)}) == 2


def test_constructor_signatures():
    amps = np.array([1.0, 0.0])
    assert Run() == Run(l_register="l", control=None, times=1)
    step = Prepared("k", amps, (Run("l", 0),), deferred=True)
    assert (step.register, step.runs, step.deferred) == ("k", (Run("l", 0),), True)
    assert Prepared("k", amps).runs == () and not Prepared("k", amps).deferred
    with pytest.raises(TypeError):
        Prepared("k", amps, (), True)  # deferred is keyword-only
    assert CostModel() == CostModel(1.0, 1.0, 0.0) == CostModel(m=0.0, d_ctrl=1.0)
    assert PauliTerm(letters="X", phase=0.0, weight=1.0) == PauliTerm(1.0, 0.0, "X")
    assert HamiltonianLCU(n=2, terms=H2.terms) == H2
    plan = CircuitPlan(widths={"l": 2, "k": 1}, hamiltonian=H2, steps=(Run(times=2), step))
    l_registers = {run.l_register for s in plan.steps for run in getattr(s, "runs", (s,))}
    assert (plan.select_count, plan.measure_count, l_registers) == (3, 4, {"l"})
    F = FermionicOperator(2, constant=0.5)
    assert F.one_body.shape == (2, 2) and F.two_body.shape == (2,) * 4 and F.constant == 0.5
    params = BlissParams(xi0=0.1, xi=np.eye(2), n_electrons=1)
    assert params.xi.dtype == complex and params.n_electrons == 1
    assert PlanTrace((1.0,), 1.0, None).final_system_state is None
    assert BlissResult(params, H2, (1.0,), True).converged


def test_gate_count_fields_keep_the_resources_column_order():
    c = count(build_w_tilde(H2, 0.0, 1))
    assert list(c._asdict()) == ["qubits", "two_qubit", "measurements"] == list(GateCounts._fields)


def test_hamiltonian_fields_are_read_only_and_its_masks_cached():
    H = build_ising(3, 1.0, 0.5)
    assert H.masks is H.masks
    for record, field in ((H, "n"), (H, "terms"), (H.terms[0], "weight"), (H.terms[0], "letters")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_run_stats_are_mutable_values_with_a_histogram_each():
    a, b = RunStats(), RunStats()
    assert a.abort_histogram is not b.abort_histogram
    a.abort_histogram[1] = 2
    a.shots += 2
    assert b == RunStats() and a == RunStats(2, 0, {1: 2}) and a != b


@pytest.mark.parametrize("error,make", [
    (InvalidHamiltonianError, lambda: PauliTerm(-1.0, 0.0, "X")),
    (InvalidHamiltonianError, lambda: PauliTerm(1.0, 0.0, "XQ")),
    (InvalidModelError, lambda: HamiltonianLCU(0, H2.terms)),
    (InvalidHamiltonianError, lambda: HamiltonianLCU(3, H2.terms)),
    (InvalidHamiltonianError, lambda: HamiltonianLCU(2, ())),
    (InvalidModelError, lambda: CostModel(d_ctrl=-1.0)),
    (LayoutError, lambda: CircuitPlan({"l": 2}, H2, (None,))),
    (LayoutError, lambda: CircuitPlan({"l": 2}, H2, (Run(times=0),))),
    (InvalidModelError, lambda: FermionicOperator(0)),
    (InvalidModelError, lambda: FermionicOperator(2, one_body=np.ones((3, 3)))),
    (InvalidModelError, lambda: BlissParams(0.0, np.array([[0.0, 1.0], [0.0, 0.0]]), 1)),
    (InvalidModelError, lambda: BlissParams(0.0, np.eye(2), 3)),
])
def test_each_record_refusal_keeps_its_type(error, make):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize("error,message,make", [
    (InvalidModelError, "n must be at least 1, got 0", lambda: H2._replace(n=0)),
    (InvalidHamiltonianError, "need at least one term", lambda: HamiltonianLCU._make((2, ()))),
    (InvalidModelError, "d must be at least 0, got -1.0", lambda: CostModel()._replace(d=-1.0)),
    (InvalidModelError, "m must be a finite real number, got nan",
     lambda: CostModel._make((1.0, 1.0, math.nan))),
    (InvalidHamiltonianError, "term 'X': bad weight or phase",
     lambda: PauliTerm(1.0, 0.0, "X")._replace(weight=-1.0)),
    (InvalidHamiltonianError, "bad Pauli letters 'Q'", lambda: PauliTerm._make((1.0, 0.0, "Q"))),
])
def test_replace_and_make_validate_as_the_constructor_does(error, message, make):
    # both skipped __new__: H2._replace(n=0) built a 0-qubit Hamiltonian and
    # CostModel()._replace(d=-1.0) a negative cost
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_replace_and_make_still_build_valid_records():
    assert H2._replace(n=2) == H2 and type(H2._replace(n=2)) is HamiltonianLCU
    assert CostModel()._replace(m=0.5) == CostModel(m=0.5)
    assert PauliTerm._make((0.5, 0.0, "XZ")) == PauliTerm(0.5, 0.0, "XZ")
    with pytest.raises(ValueError, match="unexpected field names"):
        CostModel()._replace(q=1.0)
