"""Dense linear complementarity problems and a lexicographic Lemke solver.

An LCP asks for ``z >= 0`` with ``w = M z + q >= 0`` and ``z . w = 0``.
The solver implements complementary pivoting with the all-ones covering
vector and a lexicographic ratio test, so degenerate ties never cycle.
Problems here are small and dense (at most a few dozen rows), so the
tableau is carried explicitly and updated with rank-one row operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LcpInstance",
    "LcpSolution",
    "lemke_solve",
    "residuals",
    "copositivity_sample_check",
]

# Pivot elements at or below this count as zero (assembled matrices are O(1)).
PIVOT_TOL = 1e-11
# Relative width within which lexicographic ratios count as tied.
LEX_TIE_TOL = 1e-11
# Pivot budget; a solve that exhausts it ends with status "max_pivots".
MAX_PIVOTS = 5000
# Certification bound on the residuals of a solved LCP (see ``residuals``).
RESIDUAL_TOL = 1e-9


@dataclass(eq=False)
class LcpInstance:
    """A square complementarity problem ``w = M z + q``."""

    m: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        self.m = np.asarray(self.m, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        if self.m.ndim != 2 or self.m.shape[0] != self.m.shape[1]:
            raise ValueError(f"M must be square, got shape {self.m.shape}")
        if self.q.shape != (self.m.shape[0],):
            raise ValueError(
                f"q has shape {self.q.shape}, expected ({self.m.shape[0]},)"
            )
        if not (np.isfinite(self.m).all() and np.isfinite(self.q).all()):
            raise ValueError("M and q must be finite")

    @property
    def n(self) -> int:
        return self.m.shape[0]


@dataclass(eq=False)
class LcpSolution:
    """A candidate solution with the pivot count and termination status."""

    z: np.ndarray
    w: np.ndarray
    pivot_count: int
    status: str  # "solved" | "ray_termination" | "max_pivots"


def _lex_argmin(table: np.ndarray, cand: np.ndarray, d: np.ndarray) -> int:
    """Among candidate rows pick the one minimizing ``table[r] / d[r]``
    lexicographically (column by column, narrowing ties)."""
    for col in range(table.shape[1]):
        vals = table[cand, col] / d[cand]
        best = vals.min()
        cand = cand[vals <= best + LEX_TIE_TOL * (1.0 + abs(best))]
        if cand.size == 1:
            break
    return int(cand[0])


def lemke_solve(lcp: LcpInstance) -> LcpSolution:
    """Solve an LCP by Lemke complementary pivoting.

    Uses the all-ones covering vector; ties in the ratio test are broken
    lexicographically against the running basis inverse, which rules out
    cycling. For the copositive matrices produced by the impact assembly
    (whose homogeneous solutions satisfy the required feasibility side
    condition) termination with ``status="solved"`` is guaranteed up to
    floating-point degeneracy; instances outside that class may end in
    ``ray_termination``.
    """
    n = lcp.n
    q = lcp.q
    if np.all(q >= 0.0):
        return LcpSolution(z=np.zeros(n), w=q.copy(), pivot_count=0, status="solved")

    z0_id = 2 * n  # ids: 0..n-1 -> w_i, n..2n-1 -> z_i, 2n -> covering var

    # Column of each variable in the homogeneous system  w - M z - 1 z0 = q.
    def column(var: int) -> np.ndarray:
        if var < n:
            col = np.zeros(n)
            col[var] = 1.0
            return col
        if var < z0_id:
            return -lcp.m[:, var - n]
        return -np.ones(n)

    basis = np.arange(n)  # start with all w_i basic
    # Lexicographic tableau [q_bar | B^-1]; column 0 holds basic values.
    table = np.concatenate([q[:, None], np.eye(n)], axis=1)

    # First pivot: the covering variable enters and every ratio-test
    # denominator is the same, so the blocking row is the lexicographic
    # minimum of the raw tableau rows (most negative q wins, identity
    # columns settle ties).  This choice keeps every other row
    # lexicographically positive after the pivot.
    row = _lex_argmin(table, np.arange(n), np.ones(n))
    entering = z0_id
    pivot_count = 0

    while True:
        d = table[:, 1:] @ column(entering)
        if entering != z0_id:
            eligible = np.flatnonzero(d > PIVOT_TOL)
            if eligible.size == 0:
                return _extract(lcp, basis, table, pivot_count, "ray_termination")
            row = _lex_argmin(table, eligible, d)

        piv = d[row]
        pivot_row = table[row] / piv
        table = table - np.outer(d, pivot_row)
        table[row] = pivot_row
        leaving = int(basis[row])
        basis[row] = entering
        pivot_count += 1

        if leaving == z0_id:
            return _extract(lcp, basis, table, pivot_count, "solved")
        if pivot_count >= MAX_PIVOTS:
            return _extract(lcp, basis, table, pivot_count, "max_pivots")
        # Complementary rule: the partner of the leaving variable enters.
        entering = leaving + n if leaving < n else leaving - n


def _extract(
    lcp: LcpInstance,
    basis: np.ndarray,
    table: np.ndarray,
    pivot_count: int,
    status: str,
) -> LcpSolution:
    n = lcp.n
    z = np.zeros(n)
    values = table[:, 0]
    for row_idx, var in enumerate(basis):
        if n <= var < 2 * n:
            z[var - n] = values[row_idx]
    # Recompute w from z so the reported pair is exactly consistent with
    # the problem data rather than with the drifted tableau.
    w = lcp.m @ z + lcp.q
    return LcpSolution(z=z, w=w, pivot_count=pivot_count, status=status)


def residuals(lcp: LcpInstance, z: np.ndarray) -> tuple[float, float, float]:
    """Audit a candidate ``z``: returns (complementarity gap, worst negative
    z entry, worst negative w entry), all as nonnegative magnitudes."""
    z = np.asarray(z, dtype=float)
    w = lcp.m @ z + lcp.q
    comp_gap = abs(float(z @ w))
    neg_z = float(max(0.0, -(z.min(initial=0.0))))
    neg_w = float(max(0.0, -(w.min(initial=0.0))))
    return comp_gap, neg_z, neg_w


def copositivity_sample_check(
    m: np.ndarray, trials: int = 1000, rng_seed: int = 0
) -> bool:
    """Randomized copositivity audit: draws nonnegative vectors and checks
    ``x^T M x >= -tol`` for each.  A False return is a certificate that M
    is not copositive; True means no violation was found."""
    m = np.asarray(m, dtype=float)
    rng = np.random.default_rng(rng_seed)
    scale = float(np.linalg.norm(m)) + 1.0
    x = rng.random((trials, m.shape[0]))
    vals = np.einsum("ij,jk,ik->i", x, m, x)
    tol = 1e-12 * scale * (1.0 + (x * x).sum(axis=1))
    return bool(np.all(vals >= -tol))
