"""Slow, independent references for the package's fast paths.

Each function here is the obvious dense or register-level construction of
something the package computes another way: full registers, or a state per
register value, instead of the moment trace, and a small W-tilde chain in exact
Gaussian-rational arithmetic; dense matrices instead of Pauli-mask matvecs, gate-by-gate
compilation and execution instead of closed-form counts, the builders' circuits one
instruction at a time instead of runs of steps, one Bernoulli draw per
shot and measurement from numpy's Philox generator instead of one binomial draw
per measurement, and a BLISS line search that sorts and sums its weights afresh on
every call. None of them imports the fast
path it checks (``test_reference_imports_no_fast_path`` enforces that).
"""
import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from lcusim.bliss import FermionicOperator
from lcusim.circuits import CircuitPlan, Run, amplitude_values, taylor_prepare_amplitudes
from lcusim.errors import (
    DomainError,
    InvalidHamiltonianError,
    InvalidModelError,
    LayoutError,
    LcusimError,
    NormalizationError,
    ResourceLimitError,
)
from lcusim.hamiltonian import (HamiltonianLCU, _check_int, check_norm, check_state, check_width,
                                l1_norm)
from lcusim.resources import GateCounts
from lcusim.sampler import PlanTrace

DENSE_QUBIT_CAP = 12
FERMION_DENSE_CAP = 12

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# --- Pauli strings and Hamiltonians ---------------------------------------------------


def apply_pauli(v: np.ndarray, x: int, z: int, factor: complex) -> np.ndarray:
    """``factor * X^x Z^z`` applied along the last axis of ``v``, one gather per call."""
    src = np.arange(v.shape[-1]) ^ x
    return v[..., src] * np.where(np.bitwise_count(src & z) & 1, -factor, factor)


def pauli_string_matrix(letters: str) -> np.ndarray:
    """Dense matrix of a Pauli string; letter 0 acts on the least-significant qubit."""
    mat = np.array([[1]], dtype=complex)
    for c in letters:  # qubit 0 is LSB, so it goes rightmost in the kron chain
        mat = np.kron(PAULI_MATRICES[c], mat)
    return mat


def to_matrix(H: HamiltonianLCU, *, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the Hamiltonian."""
    if H.n > cap:
        raise ResourceLimitError(f"{H.n} qubits exceeds dense cap {cap}")
    dim = 1 << H.n
    mat = np.zeros((dim, dim), dtype=complex)
    for t in H.terms:
        mat += t.coefficient * pauli_string_matrix(t.letters)
    return mat


def prepare_amplitudes(H: HamiltonianLCU, width: int | None = None) -> np.ndarray:
    """sqrt(weight / l1) amplitude vector for PREPARE, zero-padded to 2^width."""
    if width is None:
        width = H.l_width
    if (1 << width) < H.num_terms:
        raise InvalidHamiltonianError("register too narrow for the term count")
    amps = np.zeros(1 << width)
    norm = l1_norm(H)
    for i, t in enumerate(H.terms):
        amps[i] = math.sqrt(t.weight / norm)
    return amps


# --- dense oracle ---------------------------------------------------------------------


def rescaled_matrix(H: HamiltonianLCU, *, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """(-i / l1) times the dense Hamiltonian matrix."""
    return (-1j / l1_norm(H)) * to_matrix(H, cap=cap)


def truncated_taylor_matrix(
    H: HamiltonianLCU, tau: float, K: int, *, cap: int = DENSE_QUBIT_CAP
) -> np.ndarray:
    """sum_{k<=K} beta_k * Htilde^k; converges to exp(-i H tau) as K grows."""
    ht = rescaled_matrix(H, cap=cap)
    x = tau * l1_norm(H)
    out = np.eye(ht.shape[0], dtype=complex)
    power = np.eye(ht.shape[0], dtype=complex)
    coeff = 1.0
    for k in range(1, K + 1):
        power = power @ ht
        coeff *= x / k
        out += coeff * power
    return out


def spectral_lower_bound(H: HamiltonianLCU, k: int) -> float:
    """(lambda0 / l1)^{2k} with lambda0 the smallest-magnitude eigenvalue of H."""
    mat = to_matrix(H)
    if np.linalg.norm(mat - mat.conj().T) > 1e-10:
        raise DomainError("spectral bound requires a Hermitian Hamiltonian")
    eigs = np.linalg.eigvalsh(mat)
    # magnitude ordering, ties broken toward the nonnegative eigenvalue
    lam0 = float(min(eigs, key=lambda e: (abs(e), e < 0)))
    return (abs(lam0) / l1_norm(H)) ** (2 * k)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 of two states, each of which must have unit norm."""
    for v in (a, b):
        check_norm(np.linalg.norm(v), "state is not normalized")
    return float(abs(np.vdot(a, b)) ** 2)


# --- register-level statevector -------------------------------------------------------


@dataclass(frozen=True)
class Register:
    name: str
    width: int
    offset: int  # global index of the register's least-significant qubit


class RegisterLayout:
    """Named registers stacked from qubit 0 in the order of the ``(name, width)`` pairs given;
    qubit ``offset + i`` of a register is bit ``i`` of its value."""

    def __init__(self, widths):
        self._by_name: dict[str, Register] = {}
        self.total = 0
        for name, width in widths:
            if width < 1 or name in self._by_name:
                raise LayoutError(f"register {name!r}: widths must be positive, names unique")
            self._by_name[name] = Register(name, width, self.total)
            self.total += width
        self.registers = tuple(self._by_name.values())

    def register(self, name: str) -> Register:
        if name not in self._by_name:
            raise LayoutError(f"no register named {name!r}")
        return self._by_name[name]

    @property
    def n(self) -> int:
        return self.register("system").width


def plan_layout(plan: CircuitPlan) -> RegisterLayout:
    """A plan's qubits: the system at 0 .. n - 1, then each ancilla in ``plan.widths`` order."""
    return RegisterLayout([("system", plan.hamiltonian.n), *plan.widths.items()])


@dataclass
class StateVector:
    """A flat array of 2^total amplitudes over a layout's registers."""

    layout: RegisterLayout
    amplitudes: np.ndarray = field(repr=False)

    def system_state(self) -> np.ndarray:
        """System-register amplitudes, assuming all ancillas are in |0..0>."""
        n = self.layout.n
        if np.linalg.norm(self.amplitudes[1 << n :]) > 1e-9:
            raise LayoutError("ancilla registers are not in the all-zero state")
        return self.amplitudes[: 1 << n].copy()


def init_state(layout: RegisterLayout, psi: np.ndarray) -> StateVector:
    """All-zero ancillas with the system register carrying psi."""
    check_width(layout.total)
    psi = check_state(psi, layout.n)
    amps = np.zeros(1 << layout.total, dtype=complex)
    amps[: 1 << layout.n] = psi
    return StateVector(layout, amps)


def register_probabilities(state: StateVector, register: str) -> np.ndarray:
    """Marginal Born probabilities over one register's basis values."""
    reg = state.layout.register(register)
    block = state.amplitudes.reshape(-1, 1 << reg.width, 1 << reg.offset)
    return (np.abs(block) ** 2).sum(axis=(0, 2))


def project_zero(state: StateVector, register: str) -> float:
    """Project a register onto all-zero, renormalize, return the branch probability.

    A vanishing branch leaves the state untouched and returns 0.0.
    """
    probs = register_probabilities(state, register)
    p0 = float(probs[0])
    if p0 < 1e-14:
        return 0.0
    offset = state.layout.register(register).offset
    state.amplitudes.reshape(-1, probs.shape[0], 1 << offset)[:, 1:, :] = 0
    state.amplitudes /= math.sqrt(p0)
    return p0


def completion_unitary(amps: np.ndarray) -> np.ndarray:
    """Dense unitary whose first column is ``amps``: (I - 2 v v^dag) diag(d) with, for
    theta = arg a0, v ~ a + e^{i theta} e0 and d = (-e^{i theta}, 1, ..., 1)."""
    a = np.asarray(amps, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(a) - 1.0) <= 1e-10:  # NaN fails too
        raise NormalizationError("prepare amplitudes are not normalized")
    phase = np.exp(1j * np.angle(a[0]))
    v = a.copy()
    v[0] += phase
    v /= np.linalg.norm(v)
    d = np.ones(a.shape[0], dtype=complex)
    d[0] = -phase
    return (np.eye(a.shape[0], dtype=complex) - 2.0 * np.outer(v, v.conj())) * d[np.newaxis, :]


def apply_register_unitary(state: StateVector, register: str, U: np.ndarray) -> StateVector:
    """Apply a 2^w x 2^w unitary to one register, in place."""
    reg = state.layout.register(register)
    dim = 1 << reg.width
    if U.shape != (dim, dim):
        raise LayoutError("unitary dimension does not match register width")
    block = state.amplitudes.reshape(-1, dim, 1 << reg.offset)
    state.amplitudes = np.einsum("ab,ibj->iaj", U, block).reshape(-1)
    return state


def apply_select(
    state: StateVector, H: HamiltonianLCU, l_register: str = "l", control: int | None = None
) -> StateVector:
    """Multiplexed (-i) * exp(i phase_l) * Pauli_l on the system register, one term at a time.

    For l-register values >= L the map is the identity. If ``control`` is a
    global qubit index, the whole map acts only on that qubit's |1> branch.
    """
    layout = state.layout
    n = layout.n
    reg = layout.register(l_register)
    if reg.width < H.l_width:
        raise LayoutError("l-register too narrow for the Hamiltonian")
    if control is not None and control < n:
        raise LayoutError("control qubit must lie outside the system register")
    view = state.amplitudes.reshape(-1, 1 << n)
    rows = np.arange(view.shape[0])
    row_l = (rows >> (reg.offset - n)) & ((1 << reg.width) - 1)
    if control is not None:
        row_l[(rows >> (control - n)) & 1 == 0] = -1  # control off: identity
    for li, (x, z, u) in enumerate(H.masks):
        sel = row_l == li
        if sel.any():
            view[sel] = apply_pauli(view[sel], x, z, -1j * u)
    return state


class MeasurementDegenerateError(LcusimError, ValueError):
    """All measurement branches have numerically vanishing probability."""


def measure_register(state: StateVector, register: str, rng) -> tuple[int, StateVector]:
    """Sample one register's outcome by the Born rule, project, renormalize."""
    probs = register_probabilities(state, register)
    total = probs.sum()
    if total < 1e-14:
        raise MeasurementDegenerateError("all branches have vanishing probability")
    outcome = int(np.searchsorted(np.cumsum(probs / total), rng.random(), side="right"))
    outcome = min(outcome, probs.shape[0] - 1)
    reg = state.layout.register(register)
    block = state.amplitudes.reshape(-1, 1 << reg.width, 1 << reg.offset)
    keep = block[:, outcome, :].copy()
    block[:] = 0
    block[:, outcome, :] = keep
    state.amplitudes /= np.sqrt(probs[outcome])
    return outcome, state


def apply_1q(state: StateVector, qubit: int, U: np.ndarray) -> StateVector:
    """Apply a single-qubit unitary to one global qubit, in place."""
    block = state.amplitudes.reshape(-1, 2, 1 << qubit)
    state.amplitudes = np.einsum("ab,ibj->iaj", U, block).reshape(-1)
    return state


def apply_cx(state: StateVector, control: int, target: int) -> StateVector:
    """Apply a CNOT between two global qubits, in place."""
    idx = np.arange(state.amplitudes.shape[0])
    src = idx.copy()
    src[((idx >> control) & 1) == 1] ^= 1 << target
    state.amplitudes = state.amplitudes[src]
    return state


def dense_amplitudes(amps: np.ndarray, width: int) -> np.ndarray:
    """A Prepare's amplitudes over all 2^width register values: w + 1 unary amplitudes
    move to the values |1^k 0^(w-k)> = 2^k - 1, and 2^w are already dense."""
    amps = np.asarray(amps)
    if amps.shape[0] == 1 << width:
        return amps
    out = np.zeros(1 << width, dtype=amps.dtype)
    for k, a in enumerate(amps):
        out[(1 << k) - 1] = a
    return out


def register_trace(plan: CircuitPlan, psi: np.ndarray) -> PlanTrace:
    """The success path with every register simulated and measurements projected in plan
    order: the independent reference for ``sampler.trace_plan``.

    Each run of consecutive ``LcuBlock``s is expanded in the paper's deferred order: the
    PREPAREs of all its l-registers (dense completion unitaries), then its SELECTs, then
    the adjoint PREPAREs. A ``Prepare`` is the dense completion unitary of its amplitudes
    over all 2^width values (``dense_amplitudes``), or its adjoint.
    """
    H, layout = plan.hamiltonian, plan_layout(plan)
    state = init_state(layout, psi)
    cond = []
    dead = False
    runs = itertools.groupby(spell(plan), key=lambda ins: isinstance(ins, LcuBlock))
    for is_block, run in runs:
        run = list(run)
        if is_block:
            if dead:
                continue
            U = {
                ins.l_register: completion_unitary(
                    prepare_amplitudes(H, plan.widths[ins.l_register])
                )
                for ins in run
            }
            for ins in run:
                apply_register_unitary(state, ins.l_register, U[ins.l_register])
            for ins in run:
                control = None
                if ins.control is not None:
                    register, bit = ins.control
                    control = layout.register(register).offset + bit
                apply_select(state, H, ins.l_register, control)
            for ins in run:
                apply_register_unitary(state, ins.l_register, U[ins.l_register].conj().T)
            continue
        for ins in run:
            if isinstance(ins, Measure):
                cond.append(0.0 if dead else project_zero(state, ins.register))
                dead = cond[-1] == 0.0
            elif not dead:
                U = completion_unitary(dense_amplitudes(ins.amps, plan.widths[ins.register]))
                apply_register_unitary(state, ins.register, U.conj().T if ins.adjoint else U)
    return PlanTrace(
        cond_probs=tuple(cond),
        success_prob=float(np.prod(cond)) if cond else 1.0,
        final_system_state=None if dead else state.system_state(),
    )


def householder(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, d) with completion unitary (I - 2 v v^dag) diag(d): for theta = arg a0,
    v ~ a + e^{i theta} e0 reflects a to -e^{i theta} e0 and d = (-e^{i theta}, 1, ..).
    The unitary is the identity off e0 and the support of a, so the (v, d) of the
    entries on any index set holding both is that unitary restricted to the set."""
    a = np.asarray(amps, dtype=complex).reshape(-1)
    check_norm(np.linalg.norm(a), "prepare amplitudes are not normalized")
    theta = math.atan2(a[0].imag, a[0].real)
    v = a.copy()
    v[0] += np.exp(1j * theta)
    d = np.ones(a.shape[0], dtype=complex)
    d[0] = -np.exp(1j * theta)
    return v / np.linalg.norm(v), d


def rescaled_apply(H: HamiltonianLCU, v: np.ndarray) -> np.ndarray:
    """H~ v = (-i / l1) H v along the last axis of ``v``, one gather per Pauli term."""
    out = np.zeros(v.shape, dtype=complex)
    for t, (x, z, u) in zip(H.terms, H.masks):
        out += apply_pauli(v, x, z, -1j * u * t.weight / l1_norm(H))
    return out


def _rows(state: np.ndarray, axes: dict, control: tuple[str, int] | None):
    """(array, index) of the rows a block's control selects: all of them, a strided view
    where the control register holds all its 2^width values, else a gather of its values."""
    if control is None:
        return state, ...
    axis, values, width = axes[control[0]]
    if values.shape[0] == 1 << width:
        inner = math.prod(state.shape[axis + 1 : -1]) << control[1]
        return state.reshape(-1, 2, inner, state.shape[-1]), (slice(None), 1)
    return state, (slice(None),) * axis + (np.flatnonzero(values >> control[1] & 1),)


def _renormalize(state: np.ndarray) -> float:
    """The squared norm p of ``state``, which is then renormalized; below 1e-14, 0.0 and
    the state left as it is (a dead branch)."""
    p = float(np.vdot(state, state).real)
    if p < 1e-14:
        return 0.0
    state /= math.sqrt(p)
    return p


def array_trace(plan: CircuitPlan, psi: np.ndarray) -> PlanTrace:
    """The success path on one array over the values each register can hold: a second
    reference for ``sampler.trace_plan``, with no l-registers but a state per row.

    The state has an axis per register that is neither the system nor an l-register, over
    the sorted values it can hold (0 and those of its Prepares' nonzero amplitudes), then
    the system axis. A block is H~ on the rows its control selects, a Prepare the matrix of
    one reflection (``householder``) along its register's axis, a Measure keeps row 0 of
    that axis, and the final system state is row 0 of them all. The matrix's (0, 0) entry
    is a_0 itself, not the rounded difference that forms it, so an a_0 below 1e-16 (at
    large tau l1) keeps its digits.
    """
    H, instructions = plan.hamiltonian, spell(plan)
    l_regs = {ins.l_register for ins in instructions if isinstance(ins, LcuBlock)}
    psi = check_state(psi, H.n)
    regs = [name for name in plan.widths if name not in l_regs]
    support = {name: {0} for name in regs}
    for ins in instructions:
        if isinstance(ins, Prepare):
            width = plan.widths[ins.register]
            support[ins.register].update(amplitude_values(ins.amps, width)[1])
    axes = {}
    for i, name in enumerate(regs):  # a unary value 2^k - 1 past 63 bits stays a Python int
        width = plan.widths[name]
        values = np.array(sorted(support[name]), dtype=object if width > 62 else np.int64)
        axes[name] = (i, values, width)
    shape = [len(support[name]) for name in regs]
    check_width(H.n + (math.prod(shape) - 1).bit_length())
    state = np.zeros(shape + [1 << H.n], dtype=complex)
    state[(0,) * len(regs)] = psi
    pending: list[float] = []  # block probabilities awaiting their measurement
    cond: list[float] = []
    dead = False
    for ins in instructions:
        if isinstance(ins, LcuBlock):
            if not dead:
                target, index = _rows(state, axes, ins.control)
                target[index] = rescaled_apply(H, target[index])
            pending.append(0.0 if dead else _renormalize(state))
            dead = pending[-1] == 0.0
        elif isinstance(ins, Measure):
            if ins.register in l_regs:
                cond.append(pending.pop(0))
                continue
            if not dead:
                a = axes[ins.register][0]
                state.reshape(-1, shape[a], math.prod(state.shape[a + 1 :]))[:, 1:] = 0
            cond.append(0.0 if dead else _renormalize(state))
            dead = cond[-1] == 0.0
        elif not dead:
            a, values, width = axes[ins.register]
            amps, at = amplitude_values(ins.amps, width)
            full = np.zeros(values.shape[0], dtype=complex)
            full[np.searchsorted(values, at)] = amps  # nonzero only: a zero may sit off the rows
            v, d = householder(full)
            U = (np.eye(v.shape[0]) - 2.0 * np.outer(v, v.conj())) * d
            U[0, 0] = full[0]  # = d_0 (1 - 2 |v_0|^2), a difference of numbers near 1
            block = state.reshape(-1, shape[a], math.prod(state.shape[a + 1 :]))
            block[...] = (U.conj().T if ins.adjoint else U) @ block
    return PlanTrace(
        cond_probs=tuple(cond),
        success_prob=float(np.prod(cond)) if cond else 1.0,
        final_system_state=None if dead else state[(0,) * len(regs)].copy(),
    )


def _exact_pauli_sum(raw: list, v: list) -> list:
    """sum_t c_t P_t v on Gaussian rationals (pairs of ``Fraction``), P_t from its letters:
    letter j acts on bit j of the index, X|b> = |1-b>, Y|0> = i|1>, Y|1> = -i|0>, Z|b> = (-1)^b|b>."""
    out = [(Fraction(0), Fraction(0))] * len(v)
    for c, letters in raw:
        for b, (re, im) in enumerate(v):
            target, phase = b, 0  # the factor i^phase
            for j, letter in enumerate(letters):
                bit = b >> j & 1
                if letter in "XY":
                    target ^= 1 << j
                phase += {"I": 0, "X": 0, "Y": 3 if bit else 1, "Z": 2 * bit}[letter]
            re, im = {0: (re, im), 1: (-im, re), 2: (-re, -im), 3: (im, -re)}[phase % 4]
            out[target] = (out[target][0] + c * re, out[target][1] + c * im)
    return out


def exact_wtilde_chain(raw: list, n: int, x: Fraction, kappa: int, psi: list) -> list[Fraction]:
    """The W-tilde chain q_1 .. q_{2^kappa} in exact arithmetic, for H = sum_t c_t P_t with
    rational c_t, tau l1 = x and a Gaussian-rational psi (unnormalized: each q is a ratio).

    Row k of the Taylor register holds sqrt(w_k) H~^{m_k} psi, w_k = beta_k / ||beta||_1; a
    block of run i applies H~ = (-i / l1) H to the rows with bit i of k set, its q is the
    ratio of sum_k w_k ||row_k||^2 after and before, and the adjoint Prepare then keeps
    sum_k conj(sqrt(w_k)) sqrt(w_k) H~^{m_k} psi on |0>. Each H~^m psi is built once."""
    l1 = sum(abs(c) for c, _ in raw)
    K = (1 << kappa) - 1
    beta = [Fraction(1)]
    for k in range(1, K + 1):
        beta.append(beta[-1] * x / k)
    w = [b / sum(beta) for b in beta]
    powers = [[(Fraction(re), Fraction(im)) for re, im in psi]]

    def power(m):  # H~^m psi, H~ v = (-i / l1) H v
        while len(powers) <= m:
            hv = _exact_pauli_sum(raw, powers[-1])
            powers.append([(im / l1, -re / l1) for re, im in hv])
        return powers[m]

    def norm2(v):
        return sum(re * re + im * im for re, im in v)

    m, q = [0] * (K + 1), []
    total = sum(w[k] * norm2(power(m[k])) for k in range(K + 1))
    for i in range(kappa):
        for _ in range(1 << i):
            m = [mk + (k >> i & 1) for k, mk in enumerate(m)]
            new = sum(w[k] * norm2(power(m[k])) for k in range(K + 1))
            q.append(new / total)
            total = new
    collapsed = [(sum(w[k] * power(m[k])[b][0] for k in range(K + 1)),
                  sum(w[k] * power(m[k])[b][1] for k in range(K + 1))) for b in range(1 << n)]
    return q + [norm2(collapsed) / total]


def shot_outcomes(trace: PlanTrace, costs: tuple[float, ...]) -> list[tuple[float, float]]:
    """(probability, cost) of each outcome of one shot, from the traced chain and
    ``resources.shot_costs``: an abort at each measurement in turn, then success, which
    pays the last cost."""
    out, surviving = [], 1.0
    for q, c in zip(trace.cond_probs, costs):
        out.append((surviving * (1.0 - q), c))
        surviving *= q
    return out + [(surviving, costs[-1] if costs else 0.0)]


def exact_mean_cost(trace: PlanTrace, costs: tuple[float, ...]) -> float:
    """Exact mean cost of one shot under abort-and-restart."""
    return sum(w * c for w, c in shot_outcomes(trace, costs))


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    """Shot ``shot_index``'s stream, Philox keyed by (seed, shot index), for the per-shot
    reference loop of the sampler tests."""
    key = np.array([seed, shot_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# --- flat circuits -------------------------------------------------------------------


class Prepare:
    """PREPARE of ``amps`` (binary or unary, ``amplitude_values``) from |0..0>, or its adjoint.
    Equal only to itself."""

    __slots__ = ("register", "amps", "adjoint")

    def __init__(self, register: str, amps: np.ndarray, *, adjoint: bool = False):
        self.register, self.amps, self.adjoint = register, amps, adjoint


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


def spell(plan: CircuitPlan) -> tuple[Instruction, ...]:
    """The circuit a plan's steps stand for, one instruction at a time: each run's
    ``LcuBlock`` and ``Measure`` ``times`` over, a ``Prepared``'s Prepare, runs, adjoint and
    Measure (where deferred, every block, the adjoint, then the blocks' Measures)."""
    out: list[Instruction] = []
    for step in plan.steps:
        if isinstance(step, Run):
            out += (LcuBlock(step.l_register), Measure(step.l_register)) * step.times
            continue
        reg, adjoint = step.register, Prepare(step.register, step.amps, adjoint=True)
        blocks = [LcuBlock(name, None if bit is None else (reg, bit)) for name, bit, _ in step.runs]
        measures = [Measure(name) for name, _, _ in step.runs]
        if step.deferred:
            out += [Prepare(reg, step.amps), *blocks, adjoint, *measures, Measure(reg)]
            continue
        out.append(Prepare(reg, step.amps))
        for block, measure, run in zip(blocks, measures, step.runs):
            out += (block, measure) * run.times
        out += [adjoint, Measure(reg)]
    return tuple(out)


def flat_shot_costs(plan: CircuitPlan, units) -> tuple[float, ...]:
    """``resources.shot_costs(plan, units)`` one instruction at a time: the running sum of
    the cost units ``units`` (d, d_ctrl, m) over ``spell(plan)``, a block d or d_ctrl, a
    Measure m and a Prepare 0.0, read at each Measure."""
    instructions = spell(plan)
    prices = (units.m if isinstance(ins, Measure) else 0.0 if isinstance(ins, Prepare)
              else units.d if ins.control is None else units.d_ctrl for ins in instructions)
    running = itertools.accumulate(prices)
    return tuple(c for c, ins in zip(running, instructions) if isinstance(ins, Measure))


def flat_w_hk(H: HamiltonianLCU, k: int) -> tuple[Instruction, ...]:
    """k repetitions of [LcuBlock, Measure] on one l-register."""
    return (LcuBlock("l"), Measure("l")) * _check_int(k, "k", 1)


def flat_w_tilde(H: HamiltonianLCU, tau: float, kappa: int) -> tuple[Instruction, ...]:
    """The W-tilde circuit in the paper's order, one instruction at a time."""
    check_width(_check_int(kappa, "kappa", 1))
    k_amps = taylor_prepare_amplitudes(tau, l1_norm(H), (1 << kappa) - 1)
    instructions: list[Instruction] = [Prepare("k", k_amps)]
    for i in range(kappa):  # run i: 2^i blocks controlled by k-qubit i
        instructions += [LcuBlock("l", ("k", i)), Measure("l")] * (1 << i)
    instructions += [Prepare("k", k_amps, adjoint=True), Measure("k")]
    return tuple(instructions)


def flat_w_unary(H: HamiltonianLCU, tau: float, K: int) -> tuple[Instruction, ...]:
    """The unary circuit: K blocks on distinct l-registers, all before the measurements."""
    unary_amps = taylor_prepare_amplitudes(tau, l1_norm(H), K)  # refuses K < 1
    instructions: list[Instruction] = [Prepare("unary", unary_amps)]
    instructions += [LcuBlock(f"l{j}", ("unary", j)) for j in range(K)]
    instructions.append(Prepare("unary", unary_amps, adjoint=True))
    instructions += [Measure(f"l{j}") for j in range(K)]
    instructions.append(Measure("unary"))
    return tuple(instructions)


# --- gate-level compilation -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Gate1Q:
    qubit: int
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class GateCX:
    control: int
    target: int


CompiledOp = Gate1Q | GateCX | Measure  # a measurement compiles to itself


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]], dtype=complex
    )


def _phase_gate(phi: float) -> np.ndarray:
    return cmath.exp(1j * phi) * np.eye(2, dtype=complex)


def zyz_decompose(U: np.ndarray) -> tuple[float, float, float, float]:
    """(delta, alpha, beta, gamma) with U = e^{i delta} Rz(alpha) Ry(beta) Rz(gamma)."""
    det = U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
    delta = cmath.phase(det) / 2.0
    V = U * cmath.exp(-1j * delta)
    beta = 2.0 * math.atan2(abs(V[1, 0]), abs(V[0, 0]))
    if abs(V[1, 0]) < 1e-12:
        alpha = 2.0 * cmath.phase(V[1, 1])
        gamma = 0.0
    elif abs(V[0, 0]) < 1e-12:
        alpha = 2.0 * cmath.phase(V[1, 0])
        gamma = 0.0
    else:
        s = cmath.phase(V[1, 1])  # (alpha + gamma) / 2
        t = cmath.phase(V[1, 0])  # (alpha - gamma) / 2
        alpha = s + t
        gamma = s - t
    return delta, alpha, beta, gamma


def _gray(k: int) -> int:
    return k ^ (k >> 1)


def _uc_rotation(
    controls: list[int], target: int, angles: np.ndarray, make_gate
) -> list[CompiledOp]:
    """Gray-code uniformly controlled rotation: 2^m rotations and 2^m CX gates.

    ``angles[v]`` is applied when the controls (bit i of v = controls[i])
    read value v. Works for any rotation family with X R(t) X = R(-t).
    """
    m = len(controls)
    if m == 0:
        return [Gate1Q(target, make_gate(float(angles[0])))]
    size = 1 << m
    # sign matrix A[v, k] = (-1)^{popcount(v & gray(k))}; A A^T = size * I
    v_idx = np.arange(size)[:, None]
    g_idx = np.array([_gray(k) for k in range(size)])[None, :]
    signs = 1 - 2 * (np.bitwise_count(v_idx & g_idx) & 1).astype(np.int64)
    transformed = signs.T @ np.asarray(angles, dtype=float) / size
    ops: list[CompiledOp] = []
    for k in range(size):
        ops.append(Gate1Q(target, make_gate(float(transformed[k]))))
        ctz = (k + 1 & -(k + 1)).bit_length() - 1 if k + 1 < size else m - 1
        ops.append(GateCX(controls[min(ctz, m - 1)], target))
    return ops


def uc_ry(controls: list[int], target: int, angles: np.ndarray) -> list[CompiledOp]:
    return _uc_rotation(controls, target, angles, _ry)


def uc_rz(controls: list[int], target: int, angles: np.ndarray) -> list[CompiledOp]:
    return _uc_rotation(controls, target, angles, _rz)


def diagonal_gates(qubits: list[int], phases: np.ndarray) -> list[CompiledOp]:
    """Diagonal phase gate diag(e^{i phases[v]}) over the given qubits.

    Recursion: uc-Rz on the lowest qubit absorbs pair differences, the pair
    averages form a smaller diagonal; the residual global phase is emitted
    on qubits[0].
    """
    phases = np.asarray(phases, dtype=float)
    if len(qubits) == 1:
        ops: list[CompiledOp] = [Gate1Q(qubits[0], _rz(float(phases[1] - phases[0])))]
        mean = float(phases[0] + phases[1]) / 2.0
        if abs(mean) > 0:
            ops.append(Gate1Q(qubits[0], _phase_gate(mean)))
        return ops
    low = phases.reshape(-1, 2)  # row = value of qubits[1:], col = bit on qubits[0]
    diff = low[:, 1] - low[:, 0]
    mean = (low[:, 1] + low[:, 0]) / 2.0
    ops = uc_rz(qubits[1:], qubits[0], diff)
    ops += diagonal_gates(qubits[1:], mean)
    return ops


def uc_single_qubit(
    controls: list[int], target: int, mats: list[np.ndarray]
) -> list[CompiledOp]:
    """Multiplexed single-qubit unitary: apply mats[v] when controls read v."""
    m = len(controls)
    if m == 0:
        return [Gate1Q(target, mats[0])]
    deltas, alphas, betas, gammas = zip(*(zyz_decompose(U) for U in mats))
    ops = uc_rz(controls, target, np.array(gammas))
    ops += uc_ry(controls, target, np.array(betas))
    ops += uc_rz(controls, target, np.array(alphas))
    ops += diagonal_gates(controls, np.array(deltas))
    return ops


def _prep_dense_gates(reg: Register, amps: np.ndarray) -> list[CompiledOp]:
    """Multiplexed-Ry state preparation for real, nonnegative amplitudes.

    Exactly 2^w - 2 CX gates for a width-w register.
    """
    raw = np.asarray(amps)
    if np.iscomplexobj(raw) and np.max(np.abs(raw.imag)) > 1e-12:
        raise ValueError("dense prepare compilation expects real amplitudes")
    a = raw.real.astype(float)
    if np.any(a < -1e-12):
        raise ValueError("dense prepare compilation expects nonnegative amplitudes")
    w = reg.width
    ops: list[CompiledOp] = []
    for level in range(w):
        b = w - 1 - level  # register bit being rotated, MSB first
        controls = [reg.offset + b + 1 + i for i in range(w - 1 - b)]
        n_ctrl_vals = 1 << len(controls)
        angles = np.zeros(n_ctrl_vals)
        block = a.reshape(n_ctrl_vals, 2, 1 << b)  # (high bits, bit b, low bits)
        for v in range(n_ctrl_vals):
            s0 = math.sqrt(float((block[v, 0] ** 2).sum()))
            s1 = math.sqrt(float((block[v, 1] ** 2).sum()))
            angles[v] = 2.0 * math.atan2(s1, s0)
        ops += _uc_rotation(controls, reg.offset + b, angles, _ry)
    return ops


def _prep_unary_gates(reg: Register, amps: np.ndarray) -> list[CompiledOp]:
    """Staircase of controlled Ry rotations preparing sum_k c_k |1^k 0^{K-k}>."""
    a = np.asarray(amps, dtype=float)
    K = reg.width
    c = np.array([a[(1 << k) - 1] for k in range(K + 1)])
    tail = np.sqrt(np.maximum(np.cumsum((c**2)[::-1])[::-1], 0.0))  # tail[k] = ||c_{>=k}||
    ops: list[CompiledOp] = []
    for k in range(K):
        s_next = tail[k + 1]
        theta = 2.0 * math.atan2(s_next, c[k]) if tail[k] > 1e-300 else 0.0
        q = reg.offset + k
        if k == 0:
            ops.append(Gate1Q(q, _ry(theta)))
        else:  # controlled Ry = Ry(t/2) CX Ry(-t/2) CX
            ctrl = reg.offset + k - 1
            ops.append(Gate1Q(q, _ry(theta / 2)))
            ops.append(GateCX(ctrl, q))
            ops.append(Gate1Q(q, _ry(-theta / 2)))
            ops.append(GateCX(ctrl, q))
    return ops


def _dagger(ops: list[CompiledOp]) -> list[CompiledOp]:
    out: list[CompiledOp] = []
    for op in reversed(ops):
        if isinstance(op, Gate1Q):
            out.append(Gate1Q(op.qubit, op.matrix.conj().T))
        else:
            out.append(op)
    return out


def _select_gates(plan: CircuitPlan, layout: RegisterLayout, ins: LcuBlock) -> list[CompiledOp]:
    """One multiplexed single-qubit gate per system qubit.

    The multiplex controls are the l-register qubits plus, when present, the
    single control qubit as the most significant bit; branches with control
    0 or l >= L act as the identity. The scalar (-i) e^{i phase} is folded
    into the system-qubit-0 gate.
    """
    H = plan.hamiltonian
    reg = layout.register(ins.l_register)
    controls = [reg.offset + i for i in range(reg.width)]
    if ins.control is not None:
        register, bit = ins.control
        controls.append(layout.register(register).offset + bit)
    size = 1 << len(controls)
    identity = np.eye(2, dtype=complex)
    ops: list[CompiledOp] = []
    for j in range(layout.n):
        mats = []
        for v in range(size):
            if ins.control is not None and not (v >> reg.width) & 1:
                mats.append(identity)
                continue
            li = v & ((1 << reg.width) - 1)
            if li >= H.num_terms:
                mats.append(identity)
                continue
            term = H.terms[li]
            mat = PAULI_MATRICES[term.letters[j]].copy()
            if j == 0:
                mat = (-1j) * cmath.exp(1j * term.phase) * mat
            mats.append(mat)
        ops += uc_single_qubit(controls, j, mats)
    return ops


def _compile_instruction(plan: CircuitPlan, layout: RegisterLayout, ins) -> list[CompiledOp]:
    """{1q unitary, CX} gates or the measurement event of one instruction."""
    if isinstance(ins, Measure):
        return [ins]
    if isinstance(ins, LcuBlock):
        reg = layout.register(ins.l_register)
        prep = _prep_dense_gates(reg, prepare_amplitudes(plan.hamiltonian, reg.width))
        return prep + _select_gates(plan, layout, ins) + _dagger(prep)
    reg = layout.register(ins.register)
    unary = len(ins.amps) != 1 << reg.width  # w + 1 amplitudes: the staircase
    amps = dense_amplitudes(ins.amps, reg.width)
    gates = (_prep_unary_gates if unary else _prep_dense_gates)(reg, amps)
    return _dagger(gates) if ins.adjoint else gates


class CompiledCircuit:
    """Every instruction of a plan compiled to {1q unitary, CX} gates and measurements."""

    def __init__(self, plan: CircuitPlan, layout: RegisterLayout, ops: tuple):
        self.plan = plan
        self.layout = layout
        self.ops = ops

    def counts(self) -> GateCounts:
        return GateCounts(
            qubits=self.layout.total,
            two_qubit=sum(1 for op in self.ops if isinstance(op, GateCX)),
            measurements=sum(
                self.layout.register(op.register).width
                for op in self.ops if isinstance(op, Measure)
            ),
        )


def compile_plan(plan: CircuitPlan) -> CompiledCircuit:
    """Compile every instruction, one at a time."""
    layout = plan_layout(plan)
    ops = tuple(op for ins in spell(plan) for op in _compile_instruction(plan, layout, ins))
    return CompiledCircuit(plan, layout, ops)


def simulate_compiled(circ: CompiledCircuit, psi: np.ndarray) -> tuple[np.ndarray, float]:
    """Post-selected execution of the compiled gates: (final system state, overall
    all-zero probability), to check compilation against the uncompiled plan."""
    state = init_state(circ.layout, psi)
    prob = 1.0
    for op in circ.ops:
        if isinstance(op, Gate1Q):
            apply_1q(state, op.qubit, op.matrix)
        elif isinstance(op, GateCX):
            apply_cx(state, op.control, op.target)
        else:
            p0 = project_zero(state, op.register)
            prob *= p0
            if p0 == 0.0:
                return np.zeros(1 << circ.layout.n, dtype=complex), 0.0
    return state.system_state(), prob


# --- fermions -------------------------------------------------------------------------


def fock_matrix(F: FermionicOperator) -> np.ndarray:
    """Dense matrix on the occupation-number basis, built directly from
    ladder-operator matrix elements (independent of the Pauli encoding)."""
    n = F.n_orb
    if n > FERMION_DENSE_CAP:
        raise ResourceLimitError(f"{n} orbitals exceeds cap {FERMION_DENSE_CAP}")
    dim = 1 << n
    ann = []
    for j in range(n):
        mat = np.zeros((dim, dim))
        for s in range(dim):
            if (s >> j) & 1:
                sign = (-1) ** (bin(s & ((1 << j) - 1)).count("1"))
                mat[s ^ (1 << j), s] = sign
        ann.append(mat)
    out = np.eye(dim, dtype=complex) * F.constant
    for i in range(n):
        for j in range(n):
            if F.one_body[i, j] != 0:
                out += F.one_body[i, j] * (ann[i].T @ ann[j])
    for idx in np.argwhere(np.abs(F.two_body) > 0):
        i, j, k, l = (int(x) for x in idx)
        out += F.two_body[i, j, k, l] * (ann[i].T @ ann[j] @ ann[k].T @ ann[l])
    return out


def sector_spectrum(op, n_electrons: int) -> np.ndarray:
    """Ascending eigenvalues restricted to the fixed-particle-number sector."""
    if isinstance(op, FermionicOperator):
        mat, n = fock_matrix(op), op.n_orb
    else:
        mat, n = to_matrix(op), op.n
    if n_electrons < 0 or n_electrons > n:
        raise InvalidModelError("n_electrons out of range")
    idx = [s for s in range(1 << n) if bin(s).count("1") == n_electrons]
    return np.sort(np.linalg.eigvalsh(mat[np.ix_(idx, idx)]))


def bliss_line_search(a: np.ndarray, cols: list, tol: float, max_sweeps: int):
    """``(x, history, resid)`` of coordinate descent on ||a - B x||_1, B given as sparse
    columns ``(rows, values)``: per coordinate, the |values|-weighted median of the breaks
    partial / values, sorted and summed afresh on every call; ``history`` holds the
    objective before the first sweep and after each, a sweep that lowers it by less
    than ``tol`` ends the descent, and ``resid`` is the final a - B x, updated in place, or
    a and x = 0 where the descent lowered the objective by less than ``tol`` in all; then
    ``history`` ends with the objective of a once more."""
    x = np.zeros(len(cols))
    resid = a.copy()
    history = [float(np.abs(resid).sum())]
    for _ in range(max_sweeps):
        for m, (rows, vals) in enumerate(cols):
            if not len(vals):
                continue
            partial = resid[rows] + vals * x[m]
            order = np.argsort(partial / vals)
            b, w = (partial / vals)[order], np.abs(vals)[order]
            t = float(b[np.searchsorted(np.cumsum(w), w.sum() / 2.0)])
            if t != x[m]:
                resid[rows] += vals * (x[m] - t)
                x[m] = t
        history.append(float(np.abs(resid).sum()))
        if history[-2] - history[-1] < tol:
            break
    if history[0] - history[-1] < tol:  # no lower objective: the unshifted operator
        x, resid = np.zeros(len(cols)), a.copy()
        history.append(history[0])
    return x, history, resid
