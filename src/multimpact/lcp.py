"""Dense linear complementarity problems and a lexicographic Lemke solver.

An LCP asks for ``z >= 0`` with ``w = M z + q >= 0`` and ``z . w = 0``.
There is one solver: Lemke complementary pivoting with the all-ones
covering vector and a lexicographic ratio test, so degenerate ties never
cycle.  Problems here are small and dense (at most a few dozen rows), so
each instance carries its full tableau ``[q | I | -M | -1]`` and updates
it by an elementwise rank-one row operation per pivot.

``lemke_many`` runs it on a stack of instances that share ``M``, in
lockstep, one pivot of every unfinished row per pass.  It changes the
tableau only by elementwise operations and sums with
:func:`ordered_sum`, so a row's bits never depend on the other rows of
the stack or on its height.  ``lemke_solve`` runs the same arithmetic on
one row without the stack, so a solve gives the same ``z``, pivot count
and status whichever of the two runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LcpInstance",
    "LcpSolution",
    "lemke_solve",
    "lemke_many",
    "ordered_sum",
    "ordered_matvec",
    "residuals",
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
    """A square complementarity problem ``w = M z + q``, or a stack of
    them sharing ``M`` when ``q`` has shape (k, n)."""

    m: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        self.m = np.asarray(self.m, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        if self.m.ndim != 2 or self.m.shape[0] != self.m.shape[1]:
            raise ValueError(f"M must be square, got shape {self.m.shape}")
        if self.q.ndim not in (1, 2) or self.q.shape[-1] != self.m.shape[0]:
            raise ValueError(
                f"q has shape {self.q.shape}, expected ({self.m.shape[0]},) "
                f"or (k, {self.m.shape[0]})"
            )
        if not (np.isfinite(self.m).all() and np.isfinite(self.q).all()):
            raise ValueError("M and q must be finite")

    @property
    def n(self) -> int:
        return self.m.shape[0]


@dataclass(eq=False)
class LcpSolution:
    """A candidate solution with the pivot count and termination status.
    For a stack, ``z`` and ``w`` have one row per instance, and
    ``pivot_count`` and ``status`` are arrays with one entry per row."""

    z: np.ndarray
    w: np.ndarray
    pivot_count: int | np.ndarray
    status: str | np.ndarray  # "solved" | "ray_termination" | "max_pivots"


def ordered_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis.  For a stack (``x.ndim > 1``) the terms are
    grouped by index alone: each round adds the second half of the axis
    onto the first.  numpy reductions and BLAS products may group a sum
    by the shape of the whole array, so one row's bits could depend on
    its neighbours; here they cannot.  A single vector has no neighbours
    and is summed by numpy."""
    if x.ndim == 1:
        return x.sum()
    while x.shape[-1] > 1:
        half = x.shape[-1] // 2
        total = x[..., :half] + x[..., half : 2 * half]
        if x.shape[-1] % 2:
            total[..., :1] += x[..., 2 * half :]
        x = total
    return x[..., 0]


def ordered_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a vector ``x``, or for each row of a stack ``x`` with
    the row's sums taken by :func:`ordered_sum`."""
    if x.ndim == 1:
        return a @ x
    return ordered_sum(x[..., None, :] * a)


def _tableau(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The full tableau ``[q | I | -M | -1]`` of each row of a stack ``q``
    (k, n) of the homogeneous system ``w - M z - 1 z0 = q``.  Column 0
    holds the basic values, columns 1..n the basis inverse (the
    lexicographic key) and column 1 + id the variable with that id: ids
    0..n-1 are the w_i, n..2n-1 the z_i and 2n the covering variable."""
    k, n = q.shape
    table = np.empty((k, n, 2 * n + 2))
    table[:, :, 0] = q
    table[:, :, 1 : n + 1] = np.eye(n)
    table[:, :, n + 1 : 2 * n + 1] = -m
    table[:, :, 2 * n + 1] = -1.0
    return table


def _basic_z(values: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``z`` of each row of a stack from its basic values and the ids of
    its basic variables (both (k, n)): a basic z_i takes its row's value,
    every other z_i is 0."""
    k, n = values.shape
    by_id = np.zeros((k, 2 * n + 1))
    by_id[np.arange(k)[:, None], basis] = values
    return by_id[:, n : 2 * n]


def _tie_limit(x: np.ndarray) -> np.ndarray:
    """Largest value that ties ``x`` in the lexicographic ratio test."""
    return x + LEX_TIE_TOL * (1.0 + np.abs(x))


def _lex_argmin(table: np.ndarray, cand: np.ndarray, d: np.ndarray) -> int:
    """Among candidate rows pick the one minimizing ``table[r, :n + 1] /
    d[r]`` lexicographically: column by column, keep the rows that tie
    with the column's minimum; the lowest surviving row wins.  This is the
    single-row form of :func:`_lex_argmin_many`, which picks the same row
    while skipping the columns that cannot narrow a tie."""
    for col in range(table.shape[0] + 1):
        if cand.size == 1:
            break
        vals = table[cand, col] / d[cand]
        cand = cand[vals <= _tie_limit(np.minimum.reduce(vals))]
    return int(cand[0])


def _lex_argmin_many(table: np.ndarray, cand: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``_lex_argmin`` for every row of a stack of tableaux: ``cand``
    (k, n) marks each row's candidate rows and ``d`` (k, n) their ratio
    denominators; returns one tableau row per stack row.

    Rows still tied after column 0 walk the basis-inverse columns with
    one key row per candidate, grouped by stack row.  The walk visits
    only columns where some group's keys do not all tie with their
    smallest value: such a column keeps every candidate of that group,
    now and after any later narrowing, so skipping it picks the same row."""
    n = cand.shape[1]
    d = np.where(cand, d, 1.0)
    vals = np.where(cand, table[:, :, 0] / d, np.inf)
    cand = vals <= _tie_limit(vals.min(axis=1, keepdims=True))
    choice = cand.argmax(axis=1)
    tied = np.flatnonzero(cand.sum(axis=1) > 1)
    if tied.size:
        group, row = np.nonzero(cand[tied])
        stack_row = tied[group]
        keys = table[stack_row, row, 1 : n + 1] / d[stack_row, row][:, None]
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        low = np.minimum.reduceat(keys, starts)
        high = np.maximum.reduceat(keys, starts)
        alive = np.ones(group.size, dtype=bool)
        for col in np.flatnonzero((high > _tie_limit(low)).any(axis=0)):
            vals = np.where(alive, keys[:, col], np.inf)
            alive = vals <= _tie_limit(np.minimum.reduceat(vals, starts))[group]
            if alive.sum() == tied.size:
                break
        # Each group's first survivor: its lowest tableau row.
        survivors = np.flatnonzero(alive)
        first = survivors[np.diff(group[survivors], prepend=-1) > 0]
        choice[tied] = row[first]
    return choice


def lemke_many(m: np.ndarray, q: np.ndarray) -> LcpSolution:
    """Solve the stack of LCPs ``w = M z + q[i]`` that share ``M``.

    Each row pivots on a full tableau of its own (see ``_tableau``) with
    the all-ones covering vector, the lexicographic ratio test,
    ``PIVOT_TOL`` and ``MAX_PIVOTS``.  All unfinished rows pivot together; a row leaves the stack when it ends,
    with its own status and pivot count.  Returns an
    :class:`LcpSolution` with one row (or entry) per instance.
    """
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    k, n = q.shape
    z = np.zeros((k, n))
    pivot_count = np.zeros(k, dtype=int)
    status = np.full(k, "solved", dtype="<U15")
    z0_id = 2 * n  # the covering variable's id (see ``_tableau``)

    rows = np.flatnonzero(~np.all(q >= 0.0, axis=1))
    table = _tableau(m, q[rows])
    basis = np.tile(np.arange(n), (rows.size, 1))
    entering = np.full(rows.size, z0_id)
    at = np.arange(rows.size)
    count = 0

    def finish(done: np.ndarray, why: str) -> None:
        nonlocal table, basis, entering, rows, at
        z[rows[done]] = _basic_z(table[done, :, 0], basis[done])
        pivot_count[rows[done]] = count
        status[rows[done]] = why
        keep = ~done
        table, basis, entering, rows = table[keep], basis[keep], entering[keep], rows[keep]
        at = at[: rows.size]

    while rows.size:
        d = table[at, :, entering + 1]
        if count:
            eligible = d > PIVOT_TOL
            ray = ~eligible.any(axis=1)
            if ray.any():
                finish(ray, "ray_termination")
                if not rows.size:
                    break
                d, eligible = d[~ray], eligible[~ray]
            row = _lex_argmin_many(table, eligible, d)
        else:
            # The covering variable enters first: its column is all -1, so
            # every row is a candidate with denominator 1 and the blocking
            # row is the raw lexicographic minimum.
            row = _lex_argmin_many(table, d < 0.0, -d)

        pivot_row = table[at, row] / d[at, row][:, None]
        table -= d[:, :, None] * pivot_row[:, None, :]
        table[at, row] = pivot_row
        leaving = basis[at, row]
        basis[at, row] = entering
        count += 1
        # Complementary rule: the partner of the leaving variable enters
        # (the covering variable, id 2n, leaves only as its row finishes).
        entering = (leaving + n) % z0_id

        solved = leaving == z0_id
        if solved.any():
            finish(solved, "solved")
        if count >= MAX_PIVOTS and rows.size:
            finish(np.ones(rows.size, dtype=bool), "max_pivots")

    w = ordered_matvec(m, z) + q
    return LcpSolution(z=z, w=w, pivot_count=pivot_count, status=status)


def lemke_solve(lcp: LcpInstance) -> LcpSolution:
    """Solve one LCP by Lemke complementary pivoting.

    This is :func:`lemke_many` for a stack of one, run without the stack:
    the same tableau, covering vector, lexicographic ratio test,
    elementwise rank-one update, tolerances, pivot budget and status
    order, so ``z``, ``pivot_count`` and ``status`` are bitwise those of
    ``lemke_many(lcp.m, lcp.q[None])``.  For the copositive matrices
    produced by the impact assembly (whose homogeneous solutions satisfy
    the required feasibility side condition) termination with
    ``status="solved"`` is guaranteed up to floating-point degeneracy;
    instances outside that class may end in ``ray_termination``.
    """
    if lcp.q.ndim != 1:
        raise ValueError("lemke_solve takes one instance; solve a stack with lemke_many")
    n = lcp.n
    q = lcp.q
    if (q >= 0.0).all():
        return LcpSolution(z=np.zeros(n), w=q.copy(), pivot_count=0, status="solved")

    z0_id = 2 * n
    table = _tableau(lcp.m, q[None])[0]
    basis = list(range(n))
    entering = z0_id
    pivot_count = 0
    while True:
        d = table[:, entering + 1]
        if pivot_count:
            eligible = (d > PIVOT_TOL).nonzero()[0]
            if eligible.size == 0:
                status = "ray_termination"
                break
            row = _lex_argmin(table, eligible, d)
        else:
            # The covering variable's column is all -1 (see lemke_many).
            row = _lex_argmin(table, np.arange(n), -d)

        pivot_row = table[row] / d[row]
        table -= d[:, None] * pivot_row
        table[row] = pivot_row
        leaving = basis[row]
        basis[row] = entering
        pivot_count += 1
        if leaving == z0_id:
            status = "solved"
            break
        if pivot_count >= MAX_PIVOTS:
            status = "max_pivots"
            break
        entering = (leaving + n) % z0_id

    z = _basic_z(table[None, :, 0], np.array([basis]))[0]
    return LcpSolution(z=z, w=lcp.m @ z + q, pivot_count=pivot_count, status=status)


def residuals(lcp: LcpInstance, z: np.ndarray) -> tuple:
    """Audit a candidate ``z``: returns (complementarity gap, worst negative
    z entry, worst negative w entry), all as nonnegative magnitudes.  For
    a stack (``z`` and ``lcp.q`` of shape (k, n)) each is an array with
    one entry per row."""
    z = np.asarray(z, dtype=float)
    w = ordered_matvec(lcp.m, z) + lcp.q
    comp_gap = np.abs(ordered_sum(z * w))
    neg_z = np.maximum(0.0, -z.min(axis=-1, initial=0.0))
    neg_w = np.maximum(0.0, -w.min(axis=-1, initial=0.0))
    if z.ndim == 1:
        return float(comp_gap), float(neg_z), float(neg_w)
    return comp_gap, neg_z, neg_w
