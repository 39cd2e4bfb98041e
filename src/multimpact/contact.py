"""Frictional contact problem data for planar multibody impacts.

An :class:`ImpactProblem` bundles the generalized mass matrix, the normal
and tangential contact Jacobians, and per-contact friction coefficients.
Tangential directions are carried in doubled form: for contact ``i`` the
rows ``2i`` and ``2i+1`` of ``jd`` are the two opposite tangent directions,
so frictional impulses decompose into nonnegative coordinates.

Velocities are plain 1-D numpy arrays over the generalized coordinates;
the helpers here evaluate kinetic energy, the kinetic metric norm, the
impact-activity test, and a feasibility audit for post-impact states.
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


@dataclass(eq=False, frozen=True)
class ImpactProblem:
    """Mass matrix, contact Jacobians and friction data for one pose.

    Attributes
    ----------
    mass : (n_v, n_v) symmetric positive definite generalized mass matrix.
    jn : (m, n_v) normal contact Jacobian; row i maps generalized velocity
        to the separation rate of contact i (positive = separating).
    jd : (2m, n_v) doubled tangential Jacobian; rows 2i and 2i+1 are exact
        opposites and span the tangent line of contact i.
    mu : (m,) positive friction coefficients.
    labels : distinct human-readable contact names, one per contact.

    The problem is frozen and keeps read-only copies of its arrays, so
    per-problem caches built from them (the step LCP blocks) cannot go
    stale.
    """

    mass: np.ndarray
    jn: np.ndarray
    jd: np.ndarray
    mu: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        set_field = functools.partial(object.__setattr__, self)
        set_field("mass", _frozen(self.mass))
        set_field("jn", np.atleast_2d(_frozen(self.jn)))
        set_field("jd", np.atleast_2d(_frozen(self.jd)))
        set_field("mu", np.atleast_1d(_frozen(self.mu)))

        if not np.isfinite(self.mass).all():
            raise ValueError("mass matrix must be finite")
        n_v = self.mass.shape[0]
        if self.mass.shape != (n_v, n_v):
            raise ValueError("mass matrix must be square")
        if not np.allclose(self.mass, self.mass.T, atol=1e-12 * (1 + abs(self.mass).max())):
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
        if np.any(np.linalg.norm(self.jn, axis=1) == 0.0):
            raise ValueError("every normal Jacobian row must be nonzero")
        if self.jd.shape != (2 * m, n_v):
            raise ValueError("jd must have shape (2m, n_v)")
        pair_gap = self.jd[0::2] + self.jd[1::2]
        if not np.allclose(pair_gap, 0.0, atol=1e-12 * (1 + abs(self.jd).max())):
            raise ValueError("jd rows must come in opposite-direction pairs")
        if self.mu.shape != (m,):
            raise ValueError("mu must have one entry per contact")
        if np.any(self.mu <= 0.0):
            raise ValueError("friction coefficients must be positive")
        if not self.labels:
            default = (chr(ord("A") + i) if m <= 26 else f"c{i}" for i in range(m))
            set_field("labels", tuple(default))
        if len(self.labels) != m:
            raise ValueError("labels must have one entry per contact")
        set_field("labels", tuple(self.labels))
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
    per row) returns one flag per row."""
    v = np.asarray(v, dtype=float)
    rates = ordered_matvec(problem.jn, v)
    speed = np.sqrt(ordered_sum(v * v))
    out = rates.min(axis=-1) < -APPROACH_TOL * (1.0 + speed)
    return bool(out) if v.ndim == 1 else out


def in_linear_cone(
    problem: ImpactProblem,
    v_plus: np.ndarray,
    lambda_n: np.ndarray,
    beta: np.ndarray,
) -> bool:
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

    For stacks (one state per row of ``v_plus``, ``lambda_n`` and
    ``beta``) returns one verdict per row.
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

    bad = (
        (lambda_n < -CONE_TOL).any(axis=-1)
        | (beta < -CONE_TOL).any(axis=-1)
        | (lambda_n * jn_v > CONE_TOL).any(axis=-1)
        | (beta2 * (jd_v + gamma[..., None]) > CONE_TOL).any(axis=(-2, -1))
        | (budget < -CONE_TOL).any(axis=-1)
        | (gamma * budget > CONE_TOL).any(axis=-1)
    )
    return bool(~bad) if v_plus.ndim == 1 else ~bad
