"""Circuit plans for the truncated-Taylor LCU time-evolution families.

Three builders are provided:

* ``build_w_hk``   -- k post-selected LCU blocks implementing the k-th power
  of the rescaled Hamiltonian.
* ``build_w_tilde`` -- the shorter-width circuit: binary-encoded Taylor
  register of width kappa, K = 2^kappa - 1 singly-controlled LCU blocks,
  each followed by a mid-circuit measurement of the l-register.
* ``build_w_unary`` -- the unary-encoded reference circuit with K separate
  l-registers and a single terminal post-selection.

Both Taylor-weighted builders take their amplitudes from ``taylor_prepare_amplitudes``,
and they and analytic's ||beta||_1 take the weights beta_0..beta_K from
``taylor_weights``, which builds and overflow-checks those K + 1 and no more.

A plan is a sequence of three instruction kinds: ``Prepare`` on a w-qubit register,
whose amplitude count names the encoding, 2^w binary and w + 1 unary
(``amplitude_values``), and its adjoint, which closes the register; ``LcuBlock``,
PREPARE, SELECT and PREPARE^dag on an l-register, a block-encoding of H~ = (-i / l1) H
(Berry et al., PRL 114, 090502, 2015); and ``Measure``, an all-zero post-selection. Only
the SELECT of a block carries the control: on the control-|0> branch Prepare followed by
its adjoint is the identity and the l-measurement succeeds with certainty, so
post-selected results match a fully controlled block at lower cost.
"""
from __future__ import annotations

import math
from collections import deque
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
    value l < L and 0 past it; ``control``, a (register, bit), gates the SELECT. With the
    amplitudes zero-padded and the l-register post-selected on |0>, the block is exactly
    H~ = (-i / l1) H on the system, where the control bit is set."""

    l_register: str = "l"
    control: tuple[str, int] | None = None


class Measure(NamedTuple):
    """All-zero post-selection of a register."""

    register: str


Instruction = Prepare | LcuBlock | Measure


class CircuitPlan:
    """A plan that every consumer can run; any other raises ``LayoutError`` (unnormalized
    Prepare amplitudes ``NormalizationError``), naming the first offending instruction.

    ``widths`` (the plan keeps a copy) maps each ancilla register's name to its width, a
    positive int; the system is the Hamiltonian's n qubits, no register an instruction can
    name. An l-register (one an ``LcuBlock`` uses) is never prepared, and is measured after
    each of its blocks and before the next; pending blocks are measured in block order and
    before any other register. A control is None or a tuple (register, int bit) of a register
    other than an l-register. Any other register is opened by a Prepare of 2^width (binary) or
    width + 1 (unary) normalized amplitudes, closed by the adjoint of those same amplitudes
    and then measured, with only the Measures of l-registers between its adjoint and its
    Measure. One register at a time is open, from its Prepare to its Measure. So a post-selected result depends on
    a Prepare only through the column it puts on |0>, not on the unitary that completes it:
    the form the moment trace runs (``sampler._walk``). A plan is equal only to itself.
    """

    __slots__ = ("widths", "hamiltonian", "instructions",
                 "l_registers", "select_count", "measure_count")  # the last three derived

    def __init__(self, widths: dict[str, int], hamiltonian: HamiltonianLCU,
                 instructions: tuple[Instruction, ...]):
        widths, instructions = dict(widths), tuple(instructions)
        for name, width in widths.items():
            if type(name) is not str:
                raise LayoutError(f"register {name!r}: its name is not a str")
            if type(width) is not int or width < 1:
                raise LayoutError(f"register {name!r}: width {width!r} is not a positive int")
        terms = (hamiltonian.num_terms - 1).bit_length()  # 2^width < num_terms below it
        narrow = {name for name, width in widths.items() if width < terms}
        l_regs = frozenset(ins.l_register for ins in instructions  # a non-str is refused below
                           if isinstance(ins, LcuBlock) and type(ins.l_register) is str)
        pending: deque[str] = deque()  # l-registers of the blocks awaiting their measurement
        unmeasured: set[str] = set()  # the same names, for the membership test
        live = opening = None  # the open register and its Prepare's amplitudes
        closed, selects, measures = False, 0, 0  # closed: live's adjoint came
        for i, ins in enumerate(instructions):
            if not isinstance(ins, Instruction):
                raise LayoutError(f"instruction {i}: {ins!r} is not a Prepare, LcuBlock or Measure")
            block = isinstance(ins, LcuBlock)
            control = ins.control if block else None
            if control is not None and not (type(control) is tuple and len(control) == 2):
                raise LayoutError(f"instruction {i}: control {control!r} is not a (register, bit)")
            name = ins.l_register if block else ins.register  # and a block's control register
            # every name in widths is a str, so a name of another type is none of them
            if (type(name) is not str or name not in widths
                    or control and (type(name := control[0]) is not str or name not in widths)):
                raise LayoutError(f"instruction {i}: no register named {name!r}")
            if closed and not (
                isinstance(ins, Measure) and (ins.register == live or ins.register in l_regs)
            ):
                raise LayoutError(f"instruction {i}: only term-register Measures may come between "
                                  f"{live}'s adjoint and its Measure")
            if block:
                name = ins.l_register
                if name in narrow:
                    raise LayoutError(f"instruction {i}: {name} is too narrow for the terms")
                if control is not None and (control[0] in l_regs or type(control[1]) is not int
                                            or not 0 <= control[1] < widths[control[0]]):
                    raise LayoutError(f"instruction {i}: control {control} is an l-register bit "
                                      "or out of range")
                if name in unmeasured:
                    raise LayoutError(f"instruction {i}: {name} still holds an unmeasured block")
                pending.append(name)
                unmeasured.add(name)
                selects += 1
            elif isinstance(ins, Measure):
                name = ins.register
                if (pending[0] if pending else None) != (name if name in l_regs else None):
                    raise LayoutError(f"instruction {i}: {name} measured, pending: {list(pending)}")
                if pending:
                    unmeasured.remove(pending.popleft())
                elif name == live and closed:
                    live, closed = None, False
                else:
                    raise LayoutError(f"instruction {i}: {name} is measured before its adjoint")
                measures += 1
            else:
                reg, width = ins.register, widths[ins.register]
                if reg in l_regs:
                    raise LayoutError(f"instruction {i}: {reg} is an l-register")
                if live not in (None, reg):
                    raise LayoutError(f"instruction {i}: {reg} prepared while {live} is live")
                if live == reg:  # closes it
                    if not ins.adjoint:
                        raise LayoutError(f"instruction {i}: {reg} is reopened before its adjoint")
                    if not (ins.amps is opening or np.array_equal(ins.amps, opening)):
                        raise LayoutError(f"instruction {i}: {reg}'s adjoint has other amplitudes")
                    closed = True
                elif ins.adjoint:
                    raise LayoutError(f"instruction {i}: {reg} is opened by an adjoint")
                elif np.shape(ins.amps) not in ((1 << width,), (width + 1,)):
                    raise LayoutError(f"instruction {i}: needs 2^{width} or {width + 1} amplitudes")
                else:
                    check_norm(np.linalg.norm(ins.amps),
                               f"instruction {i}: amplitudes are not normalized")
                    live, opening = reg, ins.amps
        if pending or live:
            raise LayoutError(f"{pending[0] if pending else live} is never measured after its "
                              "last block or Prepare")
        self.widths, self.hamiltonian, self.instructions = widths, hamiltonian, instructions
        self.l_registers, self.select_count, self.measure_count = l_regs, selects, measures


def build_w_hk(H: HamiltonianLCU, k: int) -> CircuitPlan:
    """k repetitions of [LcuBlock, Measure] on one l-register."""
    return CircuitPlan({"l": H.l_width}, H, (LcuBlock("l"), Measure("l")) * _check_int(k, "k", 1))


def build_w_tilde(H: HamiltonianLCU, tau: float, kappa: int) -> CircuitPlan:
    """Shorter-width plan: kappa + ceil(log2 L) + n qubits, K = 2^kappa - 1 blocks. A Taylor
    register over the simulation cap is refused before its 2^kappa amplitudes are built."""
    check_width(_check_int(kappa, "kappa", 1))
    k_amps = taylor_prepare_amplitudes(tau, l1_norm(H), (1 << kappa) - 1)
    instructions: list[Instruction] = [Prepare("k", k_amps)]
    for i in range(kappa):  # run i: 2^i blocks controlled by k-qubit i
        instructions += [LcuBlock("l", ("k", i)), Measure("l")] * (1 << i)
    instructions += [Prepare("k", k_amps, adjoint=True), Measure("k")]
    return CircuitPlan({"l": H.l_width, "k": kappa}, H, tuple(instructions))


def build_w_unary(H: HamiltonianLCU, tau: float, K: int) -> CircuitPlan:
    """Unary-encoded reference plan with deferred (terminal) measurements: K l-registers, then
    a K-qubit unary Taylor register whose K + 1 amplitudes sqrt(beta_k/||beta||_1) sit on the
    one-hot-prefix states |1^k 0^{K-k}>. The K blocks act on distinct l-registers and all
    come before the measurements."""
    unary_amps = taylor_prepare_amplitudes(tau, l1_norm(H), K)  # refuses K < 1
    instructions: list[Instruction] = [Prepare("unary", unary_amps)]
    instructions += [LcuBlock(f"l{j}", ("unary", j)) for j in range(K)]
    instructions.append(Prepare("unary", unary_amps, adjoint=True))
    instructions += [Measure(f"l{j}") for j in range(K)]
    instructions.append(Measure("unary"))
    return CircuitPlan({f"l{j}": H.l_width for j in range(K)} | {"unary": K}, H, tuple(instructions))
