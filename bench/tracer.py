"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each lcusim layer module at every
name a caller resolves them by (``lcusim.sampler.apply_select``,
``lcusim.oracle.to_matrix``, ...), so calls between modules and calls inside
one module both pass through a wrapper. Each wrapped call records a span
(name, parent span, start, end, job id, circuit family, attributes); calls
made once per shot or per Pauli term only bump a counter. Spans stay in
memory until the run ends.

Wrappers are installed around one job and removed after it, so untraced jobs
in the same process run the unmodified functions.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "hamiltonian", "circuits", "statevector", "sampler", "oracle", "resources", "bliss")

# Called once per shot, per Pauli-string product or per compiled gate:
# a span each would cost more than the work it measures.
COUNT_ONLY = frozenset(
    {
        "sampler.shot_rng",
        "hamiltonian.pauli_mul",
        "hamiltonian.l1_norm",
        "hamiltonian.pauli_string_matrix",
        "resources.zyz_decompose",
    }
)

# The functions the per-layer metrics are computed from. One that is missing
# or renamed is reported as absent instead of failing the run.
EXPECTED = (
    "cli.main",
    "hamiltonian.to_matrix",
    "hamiltonian.pauli_mul",
    "circuits.build_w_tilde",
    "circuits.build_w_unary",
    "circuits.build_w_hk",
    "statevector.init_state",
    "statevector.apply_register_unitary",
    "statevector.apply_select",
    "statevector.project_zero",
    "sampler.run_shots",
    "sampler.trace_plan",
    "sampler.shot_rng",
    "oracle.truncated_taylor_matrix",
    "oracle.success_prob_hk",
    "resources.compile_plan",
    "bliss.fermionic_to_pauli_dict",
    "bliss.optimize_bliss",
)

# Spans whose first argument is a circuit plan carry its family; the spans
# below them inherit it.
FAMILY_FROM_PLAN = frozenset({"sampler.run_shots", "sampler.trace_plan"})

KERNELS = ("statevector.apply_register_unitary", "statevector.apply_select", "statevector.project_zero")

COMPLEX_MADD_FLOP = 8  # real flops in one complex multiply-add


def _state_bytes(a, kw, out):
    return {"bytes": 2 * a[0].amplitudes.nbytes}  # computed: one full read and one full write


def _init_state(a, kw, out):
    return {"qubits": out.layout.total, "bytes": out.amplitudes.nbytes}


def _run_shots(a, kw, out):
    plan = a[0]
    aborted_draws = sum(step * n for step, n in out.abort_histogram.items())
    return {
        "shots": out.shots,
        "successes": out.successes,
        "draws": aborted_draws + out.successes * plan.measure_count,
    }


def _to_matrix(a, kw, out):
    return {"dim": out.shape[0]}


def _dim(H):
    return 1 << H.n


def _taylor_flop(a, kw, out):
    d = _dim(a[0])
    return {"flop": a[2] * COMPLEX_MADD_FLOP * d**3}


def _matvec_chain_flop(a, kw, out):
    return {"flop": a[2] * COMPLEX_MADD_FLOP * _dim(a[0]) ** 2}


def _one_matvec_flop(a, kw, out):
    return {"flop": COMPLEX_MADD_FLOP * _dim(a[0]) ** 2}


def _bliss_sweeps(a, kw, out):
    return {"sweeps": len(out.objective_history) - 1}


def _pauli_terms(a, kw, out):
    return {"terms": len(out)}


def _compiled_ops(a, kw, out):
    return {"ops": len(out.ops)}


# Attributes read from a call's arguments and result. A hook that no longer
# fits the program's API records nothing; the call itself is unaffected.
HOOKS = {
    "statevector.apply_register_unitary": _state_bytes,
    "statevector.apply_select": _state_bytes,
    "statevector.project_zero": _state_bytes,
    "statevector.init_state": _init_state,
    "sampler.run_shots": _run_shots,
    "hamiltonian.to_matrix": _to_matrix,
    "oracle.truncated_taylor_matrix": _taylor_flop,
    "oracle.success_prob_hk": _matvec_chain_flop,
    "oracle.chain_probabilities": _matvec_chain_flop,
    "oracle.success_prob_wtilde": _one_matvec_flop,
    "oracle.runtime_upper_bound": _one_matvec_flop,
    "bliss.optimize_bliss": _bliss_sweeps,
    "bliss.fermionic_to_pauli_dict": _pauli_terms,
    "resources.compile_plan": _compiled_ops,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "job", "family", "attrs")

    def __init__(self, name, parent, start, end, job, family=None, attrs=None):
        self.name = name
        self.parent = parent  # index into the span list, or None
        self.start = start  # perf_counter_ns
        self.end = end
        self.job = job
        self.family = family
        self.attrs = attrs

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Records spans and counts for calls into the lcusim layers."""

    def __init__(self, package: str = "lcusim"):
        self.spans: list[Span] = []
        self.counts: dict = {}  # job -> {qualified name: calls}
        self.job = None
        self._stack: list[int] = []
        self._plan = self._patch_plan(package)
        wrapped = {qual for _, _, _, _, qual in self._plan}
        self.absent = [q for q in EXPECTED if q not in wrapped]

    def _patch_plan(self, package):
        sites = [m for name, m in sorted(sys.modules.items()) if name == package or name.startswith(package + ".")]
        plan = []
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{attr}"
                wrapper = self._wrap(qual, fn)
                for site in sites:
                    for name, val in list(vars(site).items()):
                        if val is fn:
                            plan.append((site, name, fn, wrapper, qual))
        return plan

    def install(self) -> None:
        for site, name, _, wrapper, _ in self._plan:
            setattr(site, name, wrapper)

    def uninstall(self) -> None:
        for site, name, fn, _, _ in self._plan:
            setattr(site, name, fn)

    def begin_job(self, job) -> int:
        """Install the wrappers and open the job's root span; returns its index."""
        self.job = job
        self.counts.setdefault(job, {})
        self.install()
        idx = len(self.spans)
        self.spans.append(Span("bench.job", None, 0, 0, job))
        self._stack = [idx]
        self.spans[idx].start = time.perf_counter_ns()
        return idx

    def end_job(self, idx: int) -> float:
        """Close the job's root span, remove the wrappers; returns the job's seconds."""
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        self._stack = []
        self.uninstall()
        return (span.end - span.start) / 1e9

    def _wrap(self, qual, fn):
        if qual in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls = self.counts[self.job]
                calls[qual] = calls.get(qual, 0) + 1
                return fn(*args, **kwargs)

            return counted

        hook = HOOKS.get(qual)
        takes_family = qual in FAMILY_FROM_PLAN

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            family = self.spans[parent].family if parent is not None else None
            if takes_family and args:
                family = getattr(args[0], "family", family)
            span = Span(qual, parent, 0, 0, self.job, family)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if hook is not None:
                try:
                    span.attrs = hook(args, kwargs, out)
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass
            return out

        return spanned


def covered_ns(parent: Span, children: list[Span]) -> int:
    """Length of the union of the children's intervals, clipped to the parent."""
    total = 0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda s: s.start):
        s, e = max(c.start, parent.start), min(c.end, parent.end)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return [
        (s.end - s.start) - covered_ns(s, children.get(i, [])) for i, s in enumerate(spans)
    ]
