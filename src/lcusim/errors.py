"""Exception types shared across the package.

One count rule: every public count is a Python ``int`` (not a ``bool``) in its range, or
``InvalidModelError`` naming it, as ``hamiltonian._check_int`` alone checks. The counts are
the order K (``taylor_weights``, ``kappa_for``, ``build_w_unary``, ``success_prob_wtilde``,
``runtime_bound``), k (``build_w_hk``, ``success_prob_hk``, ``chain_probabilities``), kappa
(``build_w_tilde``), n (``HamiltonianLCU``, ``canonicalize``), ``build_ising``'s and
``build_hubbard_chain``'s n_sites, ``FermionicOperator``'s n_orb, n_electrons (``BlissParams``,
``optimize_bliss``), and ``run_shots``'s N and seed. A value of another type reads
``"{name} must be an int, got {value!r}"``, one out of range ``"{name} must be at least {lo},
got {value!r}"`` or ``"{name} must be in {lo}..{hi}, got {value!r}"``.
"""


class LcusimError(Exception):
    """Base class for all library errors."""


class InvalidModelError(LcusimError, ValueError):
    """Model-builder or run parameters (costs, shots, seed) are out of range."""


class InvalidHamiltonianError(LcusimError, ValueError):
    """Hamiltonian construction would violate an invariant (e.g. all-zero coefficients)."""


class ResourceLimitError(LcusimError, ValueError):
    """A command would exceed the qubit cap or one of its size limits."""


class NormalizationError(LcusimError, ValueError):
    """A state or amplitude vector is not normalized."""


class LayoutError(LcusimError, ValueError):
    """Register layout does not match the operation's requirements."""


class DomainError(LcusimError, ValueError):
    """Analytic formula evaluated outside its domain of validity."""
