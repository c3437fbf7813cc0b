"""Circuit plans for the truncated-Taylor LCU time-evolution families: ``build_w_hk``, k
post-selected LCU blocks, the k-th power of the rescaled Hamiltonian; ``build_w_tilde``, the
shorter-width circuit, a binary Taylor register of width kappa controlling K = 2^kappa - 1
blocks, each followed by a mid-circuit measurement; and ``build_w_unary``, the unary
reference circuit, K l-registers and one terminal post-selection. Both Taylor builders take
their amplitudes from ``taylor_prepare_amplitudes``, and they and analytic's ||beta||_1 the
weights beta_0..beta_K from ``taylor_weights``, which builds and checks those K + 1 alone.

A plan is a sequence of steps: a ``Run``, ``times`` blocks each post-selected right after
it, or a ``Prepared``, a Prepare on a w-qubit register (2^w amplitudes binary, w + 1 unary:
``amplitude_values``), runs controlled by its bits, the adjoint and the Measures. The plan's
``instructions`` spell the steps out: ``Prepare`` and its adjoint; ``LcuBlock``, PREPARE,
SELECT and PREPARE^dag on an l-register, a block-encoding of H~ = (-i / l1) H (Berry et
al., PRL 114, 090502, 2015); and ``Measure``, an all-zero post-selection. Only the SELECT
carries the control: on the control-|0> branch PREPARE and its adjoint are the identity and
the l-measurement succeeds, so post-selected results match a fully controlled block.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidModelError, LayoutError
from .hamiltonian import HamiltonianLCU, _check_int, _check_real, check_norm, check_width, l1_norm


def taylor_weights(tau: float, alpha_norm: float, K: int) -> np.ndarray:
    """Truncated-Taylor weights beta_k = (tau * alpha_norm)^k / k! for k = 0..K, tau >= 0 and
    alpha_norm > 0, built in Python floats, which overflow to inf without a warning; refused
    where a weight or ||beta||_1^2 is not finite, or K's binary register is over the cap."""
    x = _check_real(tau, "tau", 0) * _check_real(alpha_norm, "alpha_norm", math.ulp(0.0))
    check_width(kappa_for(_check_int(K, "K", 1)))  # the binary Taylor register, before K + 1 floats
    beta = np.zeros(K + 1)
    beta[0] = b = 1.0
    for k in range(1, K + 1):
        b = b * x / k
        if not b:  # underflowed to 0: so does every later weight
            break
        beta[k] = b
    s = float(beta.sum())
    if not (np.isfinite(beta).all() and math.isfinite(s * s)):
        raise InvalidModelError(f"Taylor weights overflow at tau * alpha_norm = {x!r}")
    return beta


def kappa_for(K: int) -> int:
    """Taylor-register width of the binary encoding for order K >= 0: ceil(log2(K + 1)), min 1."""
    return max(1, _check_int(K, "K", 0).bit_length())


def taylor_prepare_amplitudes(tau: float, alpha_norm: float, K: int) -> np.ndarray:
    """The K + 1 Taylor amplitudes sqrt(beta_k / ||beta||_1), k = 0..K."""
    beta = taylor_weights(tau, alpha_norm, K)
    return np.sqrt(beta / beta.sum())


class Prepare:
    """PREPARE of ``amps`` (binary or unary, ``amplitude_values``) from |0..0>, or its adjoint.
    Equal only to itself."""

    __slots__ = ("register", "amps", "adjoint")

    def __init__(self, register: str, amps: np.ndarray, *, adjoint: bool = False):
        self.register, self.amps, self.adjoint = register, amps, adjoint


def amplitude_values(amps: np.ndarray, width: int) -> tuple[np.ndarray, list[int]]:
    """The nonzero amplitudes of a Prepare on a ``width``-qubit register and the value each
    sits on: of 2^width amplitudes (binary) k sits on k, of width + 1 (unary) on
    |1^k 0^(width-k)>, 2^k - 1. The readings coincide at width 1, the only shared count."""
    amps = np.asarray(amps)
    k = np.flatnonzero(amps)
    values = k.tolist() if amps.shape[0] == 1 << width else [(1 << j) - 1 for j in k.tolist()]
    return amps[k], values


class LcuBlock(NamedTuple):
    """PREPARE, SELECT and PREPARE^dag on ``l_register``, PREPARE holding sqrt(w_l / l1) on
    value l < L and 0 past it; ``control``, a (register, bit), gates the SELECT. Post-selected
    on |0>, the block is exactly H~ = (-i / l1) H on the system where the control bit is set."""

    l_register: str = "l"
    control: tuple[str, int] | None = None


class Measure(NamedTuple):
    """All-zero post-selection of a register."""

    register: str


Instruction = Prepare | LcuBlock | Measure


class Run(NamedTuple):
    """``times`` ``LcuBlock``s on ``l_register``, each measured next (deferred: after the
    adjoint); ``control``, None or a bit of the enclosing register, gates their SELECTs."""

    l_register: str = "l"
    control: int | None = None
    times: int = 1


class Prepared:
    """The Prepare of ``amps`` on ``register``, its ``runs``, the adjoint and the Measures:
    each block's right after it or, ``deferred`` (the unary circuit's terminal
    post-selection), all after the adjoint, in run order. Equal only to itself."""

    __slots__ = ("register", "amps", "runs", "deferred")

    def __init__(self, register: str, amps: np.ndarray, runs: tuple[Run, ...] = (), *,
                 deferred: bool = False):
        self.register, self.amps, self.runs, self.deferred = register, amps, runs, deferred


def _check_type(value, kinds: tuple[type, ...], what: str) -> None:
    if not isinstance(value, kinds):
        raise LayoutError(f"{what} is a {type(value).__name__}, not a "
                          + " or ".join(kind.__name__ for kind in kinds))


def _check_run(run, where: str, widths: dict[str, int], narrow: set[str],
               owner: str | None) -> None:
    """Refuse all but a ``Run`` of a named l-register wide enough for the terms, int ``times``
    >= 1 and a control None or an int bit of ``owner``, the enclosing register (or None)."""
    _check_type(run, (Run,), where)
    name, control, times = run
    if type(name) is not str or name not in widths:  # every name in widths is a str
        raise LayoutError(f"{where}: no register named {name!r}")
    if name in narrow:
        raise LayoutError(f"{where}: {name} is too narrow for the terms")
    if control is not None and (owner is None or type(control) is not int
                                or not 0 <= control < widths[owner]):
        raise LayoutError(f"{where}: control {control!r} is not a bit of {owner or 'a Prepared'}")
    if type(times) is not int or times < 1:
        raise LayoutError(f"{where}: times {times!r} is not a positive int")


def _instructions(steps: tuple[Run | Prepared, ...]) -> tuple[Instruction, ...]:
    """The circuit checked steps stand for, from one ``LcuBlock`` and ``Measure`` per run."""
    out: list[Instruction] = []
    for step in steps:
        if isinstance(step, Run):
            out += (LcuBlock(step.l_register), Measure(step.l_register)) * step.times
            continue
        reg, adjoint = step.register, Prepare(step.register, step.amps, adjoint=True)
        blocks = [LcuBlock(name, None if bit is None else (reg, bit)) for name, bit, _ in step.runs]
        measures = [Measure(name) for name, _, _ in step.runs]
        if step.deferred:  # every block, the adjoint, then the blocks' Measures
            out += [Prepare(reg, step.amps), *blocks, adjoint, *measures, Measure(reg)]
            continue
        out.append(Prepare(reg, step.amps))
        for block, measure, run in zip(blocks, measures, step.runs):
            out += (block, measure) * run.times
        out += [adjoint, Measure(reg)]
    return tuple(out)


class CircuitPlan:
    """A plan of ``steps``, each a ``Run`` or a ``Prepared``; any other raises ``LayoutError``
    (unnormalized amplitudes ``NormalizationError``), naming the offending step.

    ``widths`` (the plan keeps a copy) maps each ancilla register's name to a positive int
    width; the system is the Hamiltonian's n qubits, no register a step can name. A run's
    l-register is wide enough for the terms and never prepared, and only a run in a
    ``Prepared`` has a control. A ``Prepared`` holds 2^width or width + 1 normalized
    amplitudes; where ``deferred``, each run is one block on an l-register of its own. So a
    result depends on a Prepare only through its column on |0>: the form the moment trace
    runs (``sampler._walk``). A plan is equal only to itself.
    """

    __slots__ = ("widths", "hamiltonian", "steps", "instructions",
                 "l_registers", "select_count", "measure_count")  # the last four derived

    def __init__(self, widths: dict[str, int], hamiltonian: HamiltonianLCU,
                 steps: tuple[Run | Prepared, ...]):
        _check_type(widths, (dict,), "widths")
        _check_type(hamiltonian, (HamiltonianLCU,), "hamiltonian")
        _check_type(steps, (tuple, list), "steps")
        widths, steps = dict(widths), tuple(steps)
        for name, width in widths.items():
            if type(name) is not str:
                raise LayoutError(f"register {name!r}: its name is not a str")
            if type(width) is not int or width < 1:
                raise LayoutError(f"register {name!r}: width {width!r} is not a positive int")
        terms = (hamiltonian.num_terms - 1).bit_length()  # 2^width < num_terms below it
        narrow = {name for name, width in widths.items() if width < terms}
        runs, prepared = [], []  # every run, and (step, register) of each Prepared
        for i, step in enumerate(steps):
            _check_type(step, (Run, Prepared), f"step {i}")
            if isinstance(step, Run):
                _check_run(step, f"step {i}", widths, narrow, None)
                runs.append(step)
                continue
            reg, amps = step.register, step.amps
            if type(reg) is not str or reg not in widths:
                raise LayoutError(f"step {i}: no register named {reg!r}")
            width = widths[reg]
            if np.shape(amps) not in ((1 << width,), (width + 1,)):
                raise LayoutError(f"step {i}: needs 2^{width} or {width + 1} amplitudes")
            check_norm(np.linalg.norm(amps), f"step {i}: amplitudes are not normalized")
            _check_type(step.runs, (tuple,), f"step {i}: runs")  # immutable, as each Run is
            for j, run in enumerate(step.runs):
                _check_run(run, f"step {i} run {j}", widths, narrow, reg)
            if step.deferred and (len({run.l_register for run in step.runs}) < len(step.runs)
                                  or any(run.times > 1 for run in step.runs)):
                raise LayoutError(f"step {i}: a deferred run is one block on an l-register of "
                                  "its own")
            runs += step.runs
            prepared.append((i, reg))
        l_regs = frozenset(run.l_register for run in runs)
        for i, reg in prepared:
            if reg in l_regs:
                raise LayoutError(f"step {i}: {reg} is an l-register")
        self.widths, self.hamiltonian, self.steps = widths, hamiltonian, steps
        self.instructions, self.l_registers = _instructions(steps), l_regs
        self.select_count = sum(run.times for run in runs)
        self.measure_count = self.select_count + len(prepared)


def build_w_hk(H: HamiltonianLCU, k: int) -> CircuitPlan:
    """One run of k post-selected blocks on one l-register."""
    return CircuitPlan({"l": H.l_width}, H, (Run("l", None, _check_int(k, "k", 1)),))


def build_w_tilde(H: HamiltonianLCU, tau: float, kappa: int) -> CircuitPlan:
    """Shorter-width plan: kappa + ceil(log2 L) + n qubits, K = 2^kappa - 1 blocks, run i the
    2^i blocks controlled by Taylor bit i. A Taylor register over the simulation cap is
    refused before its 2^kappa amplitudes are built."""
    check_width(_check_int(kappa, "kappa", 1))
    k_amps = taylor_prepare_amplitudes(tau, l1_norm(H), (1 << kappa) - 1)
    runs = tuple(Run("l", i, 1 << i) for i in range(kappa))
    return CircuitPlan({"l": H.l_width, "k": kappa}, H, (Prepared("k", k_amps, runs),))


def build_w_unary(H: HamiltonianLCU, tau: float, K: int) -> CircuitPlan:
    """Unary-encoded reference plan with deferred (terminal) measurements: a K-qubit unary
    Taylor register whose K + 1 amplitudes sqrt(beta_k/||beta||_1) sit on the one-hot-prefix
    states |1^k 0^{K-k}>, and block j on its own l-register l{j}, controlled by bit j. The
    K blocks all come before the measurements."""
    unary_amps = taylor_prepare_amplitudes(tau, l1_norm(H), K)  # refuses K < 1
    runs = tuple(Run(f"l{j}", j) for j in range(K))
    return CircuitPlan({f"l{j}": H.l_width for j in range(K)} | {"unary": K}, H,
                       (Prepared("unary", unary_amps, runs, deferred=True),))
