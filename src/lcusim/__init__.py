"""Shorter-width truncated-Taylor LCU time evolution.

Statevector simulation of the binary-encoded mid-circuit-measurement
circuit and its unary-encoded reference, closed-form success probabilities
and runtimes from one moment pass, closed-form gate counts, and BLISS l1-norm
optimization of Jordan-Wigner-encoded fermionic Hamiltonians. Each name
is imported from its module, e.g. ``from lcusim.sampler import run_shots``.
"""

__version__ = "0.1.0"
