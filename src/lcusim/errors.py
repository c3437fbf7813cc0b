"""Exception types shared across the package.

Two argument rules in ``hamiltonian`` share one range test. ``_check_int`` alone checks a public
count, a Python ``int`` (not a ``bool``): the order K (``taylor_weights``, ``kappa_for``,
``build_w_unary``, ``success_prob_wtilde``, ``runtime_bound``), k (``build_w_hk``,
``success_prob_hk``, ``chain_probabilities``), kappa (``build_w_tilde``), n (``HamiltonianLCU``,
``canonicalize``), n_sites (``build_ising``, ``build_hubbard_chain``), ``FermionicOperator``'s
n_orb, n_electrons (``BlissParams``, ``optimize_bliss``), and ``run_shots``'s N and seed.
``_check_real`` alone checks a public real, a finite real number (not a ``bool``; numpy reals and
``Fraction`` pass unchanged): tau >= 0 and alpha_norm >= 5e-324 (``taylor_weights``, so the
builders, ``success_prob_wtilde`` and ``runtime_bound``), the cost units d, d_ctrl, m >= 0
(``CostModel``, ``runtime_bound``), J, h, t, U, ``FermionicOperator``'s constant and
``BlissParams``' xi0. Either refuses with ``InvalidModelError``: ``"{name} must be an int, got
{value!r}"`` or ``"{name} must be a finite real number, got {value!r}"``, and out of range
``"{name} must be at least {lo}, got {value!r}"`` or ``"{name} must be in {lo}..{hi}, got ..."``.
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
