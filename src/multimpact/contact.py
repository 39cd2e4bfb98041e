"""Frictional contact problem data for planar multibody impacts.

An :class:`ImpactProblem` bundles the generalized mass matrix, the normal
and tangential contact Jacobians (one row per contact each), and
per-contact friction coefficients.  It derives the doubled Jacobian
``jd`` of the linearized friction cone, rows ``jt_i`` and ``-jt_i`` for
contact ``i``, so frictional impulses decompose into nonnegative parts.

Velocities are plain 1-D numpy arrays over the generalized coordinates;
the helpers here evaluate kinetic energy, the kinetic metric norm, the
impact-activity test, and a feasibility audit for post-impact states.
The test and the audit take one state or a stack of them (one per row),
and each condition holds only when its comparison does, so a NaN fails
it.  Both sum every product in ``lcp.ordered_sum``'s order, so one
state reads the verdict of a row of a stack, as the compiled kernel
(``resolution._step`` and the sequential sweep) reads it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .lcp import ordered_matvec, ordered_sum

__all__ = [
    "ImpactProblem",
    "kinetic_energy",
    "mass_norm",
    "is_impacting",
    "in_linear_cone",
]

# Relative approach speed below which a contact does not count as impacting.
APPROACH_TOL = 1e-10
# Absolute slack allowed in each condition of the friction-cone audit.
CONE_TOL = 1e-8
# Largest ``|M - M^T|`` entry of a mass matrix, in units of ``1 + max |M|``.
MASS_SYMMETRY_TOL = 1e-12


@dataclass(eq=False, frozen=True)
class ImpactProblem:
    """Mass matrix, contact Jacobians and friction data for one pose.

    Attributes
    ----------
    mass : (n_v, n_v) symmetric positive definite generalized mass matrix.
    jn : (m, n_v) normal contact Jacobian; row i maps generalized velocity
        to the separation rate of contact i (positive = separating).
    jt : (m, n_v) tangential contact Jacobian; row i maps generalized
        velocity to the slip rate of contact i.
    mu : (m,) positive friction coefficients; m is at least 1.
    labels : distinct human-readable contact names, one per contact.
    jd : (2m, n_v) derived, not passed: rows 2i and 2i+1 are jt_i and -jt_i.

    The problem is frozen and keeps read-only copies of its arrays, so
    per-problem caches built from them (the step LCP blocks) cannot go
    stale.
    """

    mass: np.ndarray
    jn: np.ndarray
    jt: np.ndarray
    mu: np.ndarray
    labels: tuple[str, ...] = field(default=())
    jd: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        set_field = functools.partial(object.__setattr__, self)
        set_field("mass", _frozen(self.mass))
        set_field("jn", np.atleast_2d(_frozen(self.jn)))
        set_field("jt", np.atleast_2d(_frozen(self.jt)))
        set_field("mu", np.atleast_1d(_frozen(self.mu)))

        if not np.isfinite(self.mass).all():
            raise ValueError("mass matrix must be finite")
        n_v = self.mass.shape[0]
        if self.mass.shape != (n_v, n_v):
            raise ValueError("mass matrix must be square")
        atol = MASS_SYMMETRY_TOL * (1 + abs(self.mass).max())
        with np.errstate(over="ignore"):
            # An overflowing difference is inf, so it fails the test.
            symmetric = np.abs(self.mass - self.mass.T).max() <= atol
        if not symmetric:
            raise ValueError("mass matrix must be symmetric")
        try:
            np.linalg.cholesky(self.mass)
            # ``mass_solve``'s LU can still meet a zero pivot where rounding
            # let Cholesky through (a linkage with parallel legs).
            np.linalg.inv(self.mass)
        except np.linalg.LinAlgError as exc:
            raise ValueError("mass matrix must be positive definite") from exc

        m = self.jn.shape[0]
        if self.jn.shape != (m, n_v):
            raise ValueError("jn must have shape (m, n_v)")
        if not m:
            raise ValueError("a problem needs at least one contact")
        if np.any(np.linalg.norm(self.jn, axis=1) == 0.0):
            raise ValueError("every normal Jacobian row must be nonzero")
        if self.jt.shape != (m, n_v):
            raise ValueError("jt must have shape (m, n_v)")
        set_field("jd", _frozen(np.stack([self.jt, -self.jt], axis=1).reshape(2 * m, n_v)))
        if self.mu.shape != (m,):
            raise ValueError("mu must have one entry per contact")
        for name in ("jn", "jt", "mu"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.any(self.mu <= 0.0):
            raise ValueError("friction coefficients must be positive")
        default = (chr(ord("A") + i) if m <= 26 else f"c{i}" for i in range(m))
        set_field("labels", tuple(self.labels or default))
        if len(self.labels) != m:
            raise ValueError("labels must have one entry per contact")
        if len(set(self.labels)) != m:
            raise ValueError(f"contact labels must be distinct, got {self.labels}")

    @property
    def n_v(self) -> int:
        return self.mass.shape[0]

    @property
    def n_contacts(self) -> int:
        return self.jn.shape[0]

    @property
    def jbar(self) -> np.ndarray:
        """Stacked contact Jacobian [jn; jd], shape (3m, n_v)."""
        return np.vstack([self.jn, self.jd])

    def mass_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the inverse mass matrix to a vector or stack of columns."""
        return np.linalg.solve(self.mass, rhs)


def _frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def kinetic_energy(problem: ImpactProblem, v: np.ndarray) -> float:
    """Kinetic energy ``v . M v / 2`` of a generalized velocity."""
    v = np.asarray(v, dtype=float)
    return 0.5 * float(v @ problem.mass @ v)


def mass_norm(problem: ImpactProblem, v: np.ndarray) -> float:
    """Kinetic-metric norm ``sqrt(v . M v)``."""
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(max(0.0, float(v @ problem.mass @ v))))


def is_impacting(problem: ImpactProblem, v: np.ndarray) -> bool | np.ndarray:
    """True when some contact is approaching: ``min_i jn_i . v`` is below
    ``-APPROACH_TOL * (1 + |v|)``.  The relative term keeps the test
    meaningful across velocity scales.  For a stack of velocities (one
    per row) returns one flag per row; one state is tested as a row and
    gets a ``bool``.  The rates and ``|v|`` sum in ``ordered_sum``'s
    order.

    A state counts as settled only when the threshold is finite and every
    rate is at or above it, so a state holding a NaN or an infinity (or
    whose ``|v|`` overflows) reads as impacting."""
    v = np.asarray(v, dtype=float)
    rates = ordered_matvec(problem.jn, v)
    with np.errstate(over="ignore"):  # an overflowing |v| reads as impacting
        limit = -APPROACH_TOL * (1.0 + np.sqrt(ordered_sum(v * v)))
    impacting = ~((rates.min(axis=-1) >= limit) & (limit > -np.inf))
    return bool(impacting) if v.ndim == 1 else impacting


def in_linear_cone(
    problem: ImpactProblem,
    v_plus: np.ndarray,
    lambda_n: np.ndarray,
    beta: np.ndarray,
) -> np.bool_ | np.ndarray:
    """Audit a post-impact velocity and impulse pair against the linearized
    friction-cone feasibility conditions.

    Checks, per contact i (with the canonical tangential slack
    ``gamma_i = max(0, -min_k jd_{i,k} . v_plus)`` and ``tol = CONE_TOL``):

    - nonnegative impulses: ``lambda_n_i >= -tol`` and ``beta >= -tol``;
    - no impulse at a separating contact: ``lambda_n_i * (jn_i . v_plus) <= tol``;
    - doubled friction weights only on non-increasing tangent directions:
      ``beta_{i,k} * ((jd_{i,k} . v_plus) + gamma_i) <= tol``;
    - cone budget: ``mu_i * lambda_n_i - sum_k beta_{i,k} >= -tol``;
    - slipping contacts exhaust the budget:
      ``gamma_i * (mu_i lambda_n_i - sum_k beta_{i,k}) <= tol``.

    Each condition passes only when its comparison holds, so a NaN
    anywhere fails the audit.  For stacks (one state per row of
    ``v_plus``, ``lambda_n`` and ``beta``) returns one verdict per row;
    one state gets the verdict it would get as a row.
    """
    v_plus = np.asarray(v_plus, dtype=float)
    stack = v_plus.shape[:-1]
    m = problem.n_contacts
    lambda_n = np.asarray(lambda_n, dtype=float).reshape(*stack, -1)
    beta = np.asarray(beta, dtype=float).reshape(*stack, -1)
    if lambda_n.shape[-1] != m or beta.shape[-1] != 2 * m:
        raise ValueError("impulse vectors do not match the contact count")
    jn_v = ordered_matvec(problem.jn, v_plus)
    jd_v = ordered_matvec(problem.jd, v_plus).reshape(*stack, m, 2)
    beta2 = beta.reshape(*stack, m, 2)
    gamma = np.maximum(0.0, -jd_v.min(axis=-1))
    budget = problem.mu * lambda_n - (beta2[..., 0] + beta2[..., 1])
    return (
        (lambda_n >= -CONE_TOL).all(axis=-1)
        & (beta >= -CONE_TOL).all(axis=-1)
        & (lambda_n * jn_v <= CONE_TOL).all(axis=-1)
        & (beta2 * (jd_v + gamma[..., None]) <= CONE_TOL).all(axis=(-2, -1))
        & (budget >= -CONE_TOL).all(axis=-1)
        & (gamma * budget <= CONE_TOL).all(axis=-1)
    )

