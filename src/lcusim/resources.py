"""Prices of a plan's parts, the sampled and exact mean price of a shot, the runtime bound, and
the qubit, CX and measurement counts of circuit plans.

A price is ``price(plan, part)`` of a part: a ``Run``, one of its blocks (controlled iff its
``control`` is not None); a register name, one measurement of it; or a ``Prepared``, its
preparation or the adjoint. ``shot_costs`` prices each part once, then sums run-length.

The counts are those of a compilation to a {single-qubit unitary, CX} basis, and
depend only on register widths. A uniformly controlled rotation with m controls
costs 2^m CX (Möttönen et al., PRL 93, 130502, 2004). Hence, per part:

* a binary preparation (2^w amplitudes) on w qubits, the multiplexed-Ry
  recursion (real, nonnegative amplitudes), costs 2^w - 2;
* a unary preparation (K + 1 amplitudes) on K qubits, a staircase of K - 1
  controlled Ry rotations, costs 2(K - 1);
* a block on a w-qubit term register costs its PREPARE and PREPARE^dag,
  2(2^w - 2), and a SELECT of n multiplexed single-qubit gates with
  m = w + [controlled] controls: three uniformly controlled rotations (ZYZ) and
  a diagonal on the controls (2^m - 2) each, so n(2^{m+2} - 2);
* a measurement costs no CX and measures its register's width.

So W-tilde costs 2(2^kappa - 2) + (2^kappa - 1) x block CX and the unary
circuit 4(K - 1) + K x block. ``compile_plan`` in ``tests/reference.py``
compiles the circuit gate by gate and is the check on these formulas.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable
from itertools import accumulate, chain, compress, repeat, zip_longest
from typing import NamedTuple

import numpy as np

from .circuits import CircuitPlan, Prepared, Run, _check_type, taylor_weights
from .errors import DomainError
from .hamiltonian import _check_real, _Validated
from .sampler import RunStats


class _CostFields(NamedTuple):
    d: float  # uncontrolled LCU block
    d_ctrl: float  # controlled LCU block
    m: float  # one register measurement


class CostModel(_Validated, _CostFields):
    """Cost units, a price as ``_cx_count`` is: an uncontrolled block costs ``d``, a
    controlled one ``d_ctrl``, a measurement ``m`` and a preparation nothing."""

    __slots__ = ()

    def __new__(cls, d: float = 1.0, d_ctrl: float = 1.0, m: float = 0.0):
        for name, unit in zip(cls._fields, (d, d_ctrl, m)):
            _check_real(unit, name, 0)
        return super().__new__(cls, d, d_ctrl, m)

    def __call__(self, plan: CircuitPlan, part: Run | str | Prepared) -> float:
        if isinstance(part, Run):
            return self.d if part.control is None else self.d_ctrl
        return self.m if isinstance(part, str) else 0.0


class GateCounts(NamedTuple):  # the field order is the resources CSV column order
    qubits: int
    two_qubit: int
    measurements: int


def _cx_count(plan: CircuitPlan, part: Run | str | Prepared) -> int:
    """CX gates of ``part`` of ``plan``."""
    if isinstance(part, str):
        return 0
    if isinstance(part, Run):
        w = plan.widths[part.l_register]
        m = w + (part.control is not None)
        return 2 * ((1 << w) - 2) + plan.hamiltonian.n * ((1 << (m + 2)) - 2)
    w = plan.widths[part.register]
    amps = np.asarray(part.amps)
    if amps.shape[0] != 1 << w:  # unary: the staircase
        return 2 * (w - 1)
    if np.abs(amps.imag).max() > 1e-12 or amps.real.min() < -1e-12:
        raise DomainError(f"{part.register}: dense amplitudes must be real and nonnegative")
    return (1 << w) - 2


def _pieces(plan: CircuitPlan) -> list[tuple[tuple, int]]:
    """``plan``'s parts in circuit order, run-length: (parts, times). A deferred ``Prepared``
    runs every block, the adjoint, then their measurements."""
    pieces = []
    for step in plan.steps:
        if isinstance(step, Run):
            pieces.append(((step, step.l_register), step.times))
        elif step.deferred:
            pieces.append(((step, *step.runs, step, *(run.l_register for run in step.runs),
                            step.register), 1))
        else:
            pieces += [((step,), 1), *(((run, run.l_register), run.times) for run in step.runs),
                       ((step, step.register), 1)]
    return pieces


def shot_costs(plan: CircuitPlan, price: Callable[..., float]) -> tuple[float, ...]:
    """The price of a shot that stops at each measurement: ``price(plan, part)`` of the
    parts up to and including it, summed one instruction at a time in circuit order. A run's
    parts are priced once, not once per repeat. A success pays the last."""
    _check_type(plan, (CircuitPlan,), "plan")
    _check_type(price, (Callable,), "price")
    pieces = _pieces(plan)

    def spelled(f):  # f of each part, each piece repeated
        return chain.from_iterable(chain.from_iterable(
            repeat(tuple(map(f, parts)), times) for parts, times in pieces))

    prices = spelled(lambda part: price(plan, part))
    return tuple(compress(accumulate(prices), spelled(lambda part: isinstance(part, str))))


def _finite(cost: float) -> float:
    """``cost``, or ``DomainError`` where a sum or product of finite costs overflowed."""
    if not math.isfinite(cost):
        raise DomainError("a cost overflows the float range: the cost units are too large")
    return cost


def _probability(p: float) -> float:
    """``p`` if it is a real number (not a ``Decimal``) in [0, 1], with 1e-9 of rounding
    above 1, else ``DomainError``. A float skips the ``numbers.Real`` ABC test."""
    if (isinstance(p, float) or isinstance(p, numbers.Real)) and 0.0 <= p <= 1.0 + 1e-9:
        return p
    raise DomainError("a probability must lie in [0, 1]")


def _mean(outcomes: Iterable[tuple[float, float]]) -> float:
    """The sum of weight x cost over the (weight, cost) outcomes, in order, refusing a cost
    that is not a real number (as ``_probability``), negative or NaN. An outcome of weight 0
    adds nothing: no 0 x inf."""
    total = 0.0
    for w, c in outcomes:
        if not ((isinstance(c, float) or isinstance(c, numbers.Real)) and c >= 0):
            raise DomainError("a shot cost must be a nonnegative number")
        total += w * c if w else 0.0
    return _finite(total)


def mean_cost(stats: RunStats, costs: tuple[float, ...]) -> float:
    """The mean price of the shots of ``stats``, each priced by ``costs`` (``shot_costs``):
    the aborts summed in measurement order, then the successes at the last entry."""
    _check_type(stats, (RunStats,), "stats")
    if stats.shots < 1:
        raise DomainError("no shots recorded")
    aborts = [(k, costs[j - 1]) for j, k in sorted(stats.abort_histogram.items())]
    return _mean(aborts + [(stats.successes, costs[-1] if costs else 0.0)]) / stats.shots


def expected_cost(cond_probs: Iterable[float], costs: Iterable[float]) -> float:
    """The exact mean price of one shot, ``mean_cost``'s twin: of the conditional
    zero-probabilities q_j of each measurement (``PlanTrace.cond_probs``) and ``costs``
    (``shot_costs``) of one length, sum_j (1 - q_j) prod_{i<j} q_i costs[j] + prod q costs[-1],
    each read once, in order, and not held."""
    _check_type(cond_probs, (Iterable,), "cond_probs")
    _check_type(costs, (Iterable,), "costs")

    def outcomes():
        surviving, cost, end = 1.0, 0.0, object()  # end pads the shorter input
        for q, cost in zip_longest(cond_probs, costs, fillvalue=end):
            if q is end or cost is end:
                raise DomainError("cond_probs and costs differ in length")
            yield surviving * (1.0 - _probability(q)), cost
            surviving *= q
        yield surviving, cost

    return _mean(outcomes())


def runtime_bound(p_w: float, p1: float, tau: float, l1: float, K: int, d_ctrl: float) -> float:
    """Upper bound on the mean cost per success of the shorter-width circuit,
    (d_ctrl / p_w) [K - (K - 1) (tau l1 / ||beta||_1) (1 - p1)], from p_w = p_wtilde and
    p1 = <psi| Htilde^dag Htilde |psi>; inf at p_w = 0. Every shot pays the first block and
    only those past the first measurement pay the other K - 1, and that measurement aborts
    with probability (sum_{k odd} beta_k / ||beta||_1)(1 - p1) >= (tau l1 / ||beta||_1)(1 - p1);
    exact at K = 1."""
    _check_real(d_ctrl, "d_ctrl", 0)
    p_w, p1 = _probability(p_w), _probability(p1)
    beta_norm = float(taylor_weights(tau, l1, K).sum())  # checks tau and l1 before their product
    saving = (K - 1) * (tau * l1 / beta_norm) * (1.0 - p1)
    return math.inf if p_w == 0.0 else _finite((d_ctrl / p_w) * (K - saving))


def count(plan: CircuitPlan) -> GateCounts:
    """Qubits (the system's and the ancillas'), a successful shot's CX and measured qubits."""
    cx = shot_costs(plan, _cx_count)  # refuses all but a plan
    return GateCounts(qubits=plan.hamiltonian.n + sum(plan.widths.values()),
                      two_qubit=cx[-1] if cx else 0,
                      measurements=sum(plan.widths[part] * times for parts, times in _pieces(plan)
                                       for part in parts if isinstance(part, str)))
