"""Per-layer metrics of one traced job, computed from its spans and counts.

Values labelled "computed" in PER_LAYER come from array sizes and operation
formulas, not from hardware counters.
"""
from __future__ import annotations

from tracer import KERNELS, LAYERS, Span

FAMILIES = (("", None), (".wtilde", "wtilde"), (".wunary", "wunary"))

_STATEVECTOR = (
    ("register_unitary_s", "s"),
    ("select_s", "s"),
    ("project_s", "s"),
    ("kernel_calls", "count"),
    ("qubits", "count"),
    ("state_mb", "MB"),
    ("bytes_moved_gb", "GB"),  # computed
    ("gb_per_s", "GB/s"),  # computed
)

# (name, unit) of every per-layer metric the traced run reports.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("sampler.shot_loop_s", "s"),
        ("sampler.us_per_shot", "us"),
        ("sampler.trace_s", "s"),
        ("sampler.shots", "count"),
        ("sampler.success_frac", "ratio"),
        ("sampler.draws_per_shot", "count"),
        ("sampler.shot_rng_calls", "count"),
    ]
    + [(f"statevector.{name}{suffix}", unit) for suffix, _ in FAMILIES for name, unit in _STATEVECTOR]
    + [
        ("oracle.dense_dim", "count"),
        ("oracle.matmul_gflop", "GFLOP"),  # computed
        ("hamiltonian.to_matrix_s", "s"),
        ("hamiltonian.to_matrix_calls", "count"),
        ("hamiltonian.pauli_mul_calls", "count"),
        ("bliss.jw_s", "s"),
        ("bliss.optimize_s", "s"),
        ("bliss.sweeps", "count"),
        ("bliss.pauli_terms", "count"),
        ("resources.compiled_ops", "count"),
        ("resources.us_per_op", "us"),
        ("circuits.plans", "count"),
    ]
)


def _attr(spans, name, key):
    return [s.attrs[key] for s in spans if s.name == name and s.attrs and key in s.attrs]


def _dur_s(spans, name):
    return sum(s.end - s.start for s in spans if s.name == name) / 1e9


def job_layer_metrics(spans: list[Span], self_ns: list[int], calls: dict) -> dict:
    """Per-layer metrics of one job: ``spans`` are the job's spans and
    ``self_ns`` their self times, in the same order."""
    m = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for s, st in zip(spans, self_ns):
        if s.layer in layer_self:
            layer_self[s.layer] += st
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / 1e9

    shots = sum(_attr(spans, "sampler.run_shots", "shots"))
    loop_ns = sum(st for s, st in zip(spans, self_ns) if s.name == "sampler.run_shots")
    m["sampler.shot_loop_s"] = loop_ns / 1e9
    m["sampler.us_per_shot"] = loop_ns / 1e3 / shots if shots else 0.0
    m["sampler.trace_s"] = _dur_s(spans, "sampler.trace_plan")
    m["sampler.shots"] = shots
    m["sampler.success_frac"] = sum(_attr(spans, "sampler.run_shots", "successes")) / shots if shots else 0.0
    m["sampler.draws_per_shot"] = sum(_attr(spans, "sampler.run_shots", "draws")) / shots if shots else 0.0
    m["sampler.shot_rng_calls"] = calls.get("sampler.shot_rng", 0)

    for suffix, family in FAMILIES:
        sv = [s for s in spans if s.layer == "statevector" and (family is None or s.family == family)]
        kernel_s = {k: _dur_s(sv, k) for k in KERNELS}
        moved_gb = sum(b for k in KERNELS for b in _attr(sv, k, "bytes")) / 1e9
        busy_s = sum(kernel_s.values())
        p = f"statevector.{{}}{suffix}"
        m[p.format("register_unitary_s")] = kernel_s["statevector.apply_register_unitary"]
        m[p.format("select_s")] = kernel_s["statevector.apply_select"]
        m[p.format("project_s")] = kernel_s["statevector.project_zero"]
        m[p.format("kernel_calls")] = sum(1 for s in sv if s.name in KERNELS)
        m[p.format("qubits")] = max(_attr(sv, "statevector.init_state", "qubits"), default=0)
        m[p.format("state_mb")] = max(_attr(sv, "statevector.init_state", "bytes"), default=0) / 1e6
        m[p.format("bytes_moved_gb")] = moved_gb
        m[p.format("gb_per_s")] = moved_gb / busy_s if busy_s else 0.0

    m["oracle.dense_dim"] = max(_attr(spans, "hamiltonian.to_matrix", "dim"), default=0)
    m["oracle.matmul_gflop"] = (
        sum(s.attrs.get("flop", 0) for s in spans if s.layer == "oracle" and s.attrs) / 1e9
    )
    m["hamiltonian.to_matrix_s"] = _dur_s(spans, "hamiltonian.to_matrix")
    m["hamiltonian.to_matrix_calls"] = sum(1 for s in spans if s.name == "hamiltonian.to_matrix")
    m["hamiltonian.pauli_mul_calls"] = calls.get("hamiltonian.pauli_mul", 0)
    m["bliss.jw_s"] = _dur_s(spans, "bliss.fermionic_to_pauli_dict")
    m["bliss.optimize_s"] = _dur_s(spans, "bliss.optimize_bliss")
    m["bliss.sweeps"] = sum(_attr(spans, "bliss.optimize_bliss", "sweeps"))
    m["bliss.pauli_terms"] = sum(_attr(spans, "bliss.fermionic_to_pauli_dict", "terms"))
    ops = sum(_attr(spans, "resources.compile_plan", "ops"))
    m["resources.compiled_ops"] = ops
    m["resources.us_per_op"] = m["resources.self_s"] * 1e6 / ops if ops else 0.0
    m["circuits.plans"] = sum(1 for s in spans if s.name.startswith("circuits.build_"))
    return m
