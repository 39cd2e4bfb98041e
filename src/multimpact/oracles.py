"""Independent reference computations used to audit the main pipeline.

Two oracles live here, both deliberately implemented with different
numerics than the code they check:

- :func:`brute_force_lcp` enumerates every complementary support set of a
  small LCP and returns all solutions, so pivoting results can be compared
  against an exhaustive ground truth;
- :func:`routh_dense_reference` computes Routh's path of a single
  frictional contact through impulse space in closed form (a slide, then
  stick or the reversed slide) and samples it on a fine grid, the
  classical construction the capped stepping scheme discretizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contact import ImpactProblem
from .lcp import LcpInstance
from .resolution import compute_r

__all__ = [
    "brute_force_lcp",
    "DenseTrajectory",
    "routh_dense_reference",
    "MAX_GRID_ROWS",
]

_BRUTE_FORCE_MAX = 14
# Feasibility slack of ``brute_force_lcp``: on ``z``, on ``w``, on the support
# system (relative to ``1 + max |q|``), and between two solutions kept apart.
BRUTE_FORCE_TOL = 1e-8
MAX_GRID_ROWS = 10**7  # largest dense grid; a finer one would not fit in memory


def brute_force_lcp(lcp: LcpInstance) -> list[np.ndarray]:
    """All solutions of a small LCP by support enumeration.

    For every subset S of indices, solves ``M[S,S] z_S = -q[S]`` and keeps
    the candidate when it is feasible (``z`` and ``w`` at least
    ``-BRUTE_FORCE_TOL``).  Solutions within ``BRUTE_FORCE_TOL`` of an
    already-found one are dropped.
    Limited to n <= 14 (2^n subsets).
    """
    n = lcp.n
    if n > _BRUTE_FORCE_MAX:
        raise ValueError(f"brute force supports n <= {_BRUTE_FORCE_MAX}, got {n}")
    scale = 1.0 + float(np.abs(lcp.q).max(initial=0.0))
    solutions: list[np.ndarray] = []
    for mask in range(1 << n):
        support = [i for i in range(n) if mask >> i & 1]
        z = np.zeros(n)
        if support:
            sub = lcp.m[np.ix_(support, support)]
            rhs = -lcp.q[support]
            z_s, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
            if np.abs(sub @ z_s - rhs).max() > BRUTE_FORCE_TOL * scale:
                continue  # support system inconsistent
            z[support] = z_s
        if z.min(initial=0.0) < -BRUTE_FORCE_TOL:
            continue
        w = lcp.m @ z + lcp.q
        if w.min(initial=0.0) < -BRUTE_FORCE_TOL:
            continue
        if any(np.abs(z - known).max() <= BRUTE_FORCE_TOL for known in solutions):
            continue
        solutions.append(z)
    return solutions


@dataclass(eq=False)
class DenseTrajectory:
    """A finely resolved single-contact resolution path.

    ``s_grid`` is accumulated normal impulse; ``v_grid[k]`` the velocity
    after impulse ``s_grid[k]``.  ``modes`` records the friction phase used
    on each segment ("slide+", "slide-", or "stick")."""

    s_grid: np.ndarray
    v_grid: np.ndarray
    modes: list[str]

    @property
    def v_final(self) -> np.ndarray:
        return self.v_grid[-1]


def routh_dense_reference(
    problem: ImpactProblem, v0: np.ndarray, ds: float
) -> DenseTrajectory:
    """Routh's path of a single contact's impact through impulse space.

    Velocity evolves as ``dv/ds = M^-1 (jn + f jt)``.  While the contact
    slides, ``f = -mu sign(slip)``.  At zero slip ``f`` is the ``eta`` that
    holds the slip at zero when ``|eta| <= mu`` (stick); otherwise sliding
    restarts the way its own slip rate goes, ``f = mu sign(eta)``.  Each
    mode has a constant acceleration, so the path is at most two straight
    segments: a slide that ends where the slip or the approach rate reaches
    zero, then stick or the reversed slide until the approach rate reaches
    zero.  Each segment is sampled from its start every ``ds`` and at its
    exact end.

    Raises ``ValueError`` when that grid would hold more than
    ``MAX_GRID_ROWS`` rows, and :class:`NonDegeneracyViolation` for contact
    geometry that can jam.
    """
    if problem.n_contacts != 1:
        raise ValueError("the dense reference handles exactly one contact")
    if not ds > 0.0:
        raise ValueError("impulse increment ds must be positive")
    compute_r(problem)  # raises NonDegeneracyViolation on jamming geometry
    jn, jt, mu = problem.jn[0], problem.jt[0], float(problem.mu[0])
    minv_jn = problem.mass_solve(jn)
    minv_jt = problem.mass_solve(jt)
    a_tt = float(jt @ minv_jt)
    # Tangential force per unit normal impulse that holds the slip at zero;
    # a degenerate tangent (frictionless) takes none.
    eta = -float(jt @ minv_jn) / a_tt if a_tt > 0.0 else 0.0
    if abs(eta) <= mu:
        at_zero_slip = ("stick", eta)
    else:
        at_zero_slip = ("slide+", -mu) if eta < 0.0 else ("slide-", mu)

    pieces = []  # (mode, start velocity, acceleration, length)
    v = v0 = np.array(v0, dtype=float)
    slip = float(jt @ v)
    while (rate := float(jn @ v)) < 0.0:
        if slip == 0.0:
            mode, f = at_zero_slip
        else:
            mode, f = ("slide+", -mu) if slip > 0.0 else ("slide-", mu)
        accel = minv_jn + f * minv_jt
        climb = float(jn @ accel)
        length = -rate / climb if climb > 0.0 else math.inf
        slip_rate = float(jt @ accel)
        # A slide against its own slip rate may stop slipping first; the
        # next segment then starts from zero slip and cannot end on it.
        slip_ends = slip * slip_rate < 0.0 and -slip / slip_rate < length
        if slip_ends:
            length = -slip / slip_rate
        pieces.append((mode, v, accel, length))
        if not slip_ends:
            break
        v, slip = v + length * accel, 0.0

    counts = np.ceil(np.array([p[3] for p in pieces]) / ds)
    rows = 1.0 + counts.sum()
    if rows > MAX_GRID_ROWS:
        raise ValueError(
            f"an impulse grid at ds = {ds!r} would hold {rows:.3g} rows, "
            f"more than {MAX_GRID_ROWS}"
        )
    s = 0.0
    s_parts = [np.zeros(1)]
    v_parts = [v0[None, :]]
    modes: list[str] = []
    for (mode, v_start, accel, length), count in zip(pieces, counts.astype(int)):
        offsets = np.append(ds * np.arange(1, count), length)
        s_parts.append(s + offsets)
        v_parts.append(v_start + offsets[:, None] * accel)
        modes += [mode] * count
        s += length
    return DenseTrajectory(
        s_grid=np.concatenate(s_parts), v_grid=np.concatenate(v_parts), modes=modes
    )
