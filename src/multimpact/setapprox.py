"""Sampling-based outer approximation of the set of post-impact velocities.

The stochastic integrator maps a draw sequence to one resolved outcome;
running many trajectories with low-discrepancy or pseudorandom draws and
applying a small finishing step yields a point cloud covering the reachable
post-impact set.  This module provides:

- a deterministic Sobol sequence (52-bit, Gray-code order, up to 32
  dimensions) with direction numbers frozen in source.  Each dimension's
  direction table is built on first use and shared read-only, and a
  block of consecutive points is one cumulative XOR of direction columns
  in a fixed number of numpy calls (Gray-code construction of Antonov &
  Saleev 1979; Bratley & Fox, ACM TOMS Algorithm 659, 1988);
- draw samplers with per-trajectory determinism, so results do not depend
  on worker scheduling;
- the finishing-step stiffness bound ``psi``, the sampling driver
  ``approximate`` (optionally over several processes), a coverage audit
  ``epsilon_net_check``, and the grid-based ``sample_count_bound``.

``approximate`` runs contiguous blocks of ``BLOCK_SIZE`` trajectories in
lockstep (``resolution.sim_block``), each block with its draws made in
one call.  With ``jobs > 1`` the calling process runs the first of
``jobs`` contiguous ranges itself while ``jobs - 1`` child processes run
the rest, and every child has ended before the call returns.  A
trajectory's bits depend neither on the block it falls in nor on the job
count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .contact import ImpactProblem, is_impacting
from .resolution import _workspace, sim_block, step_block
from .resolution import sim, sim_step  # noqa: F401  (stay importable from here)

__all__ = [
    "MAXBIT",
    "SobolStream",
    "sobol_next",
    "sobol_block",
    "SobolSampler",
    "UniformSampler",
    "PostImpactSet",
    "psi",
    "approximate",
    "classify_outcomes",
    "epsilon_net_check",
    "sample_count_bound",
    "estimate_step_lipschitz",
]

MAXBIT = 52
MAX_DIMENSION = 32
# Trajectories stepped together in lockstep by ``approximate``.
BLOCK_SIZE = 256
_SENTINEL = 2**63 - 1

# Primitive polynomials and initial direction integers for dimensions
# 2..32 (dimension 1 uses the plain van der Corput sequence).  Each entry
# is (polynomial, m_values); the polynomial integer encodes coefficients
# of a primitive polynomial over GF(2) including leading and trailing 1.
_DIRECTION_DATA: tuple[tuple[int, tuple[int, ...]], ...] = (
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)),
)


@functools.cache
def _direction_table(dimension: int) -> np.ndarray:
    """Direction integers, shape (dimension, MAXBIT), as uint64 with the
    leading bit of column k at position MAXBIT-1-k.  Memoised and
    read-only, since every stream of this dimension shares it."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    if dimension > MAX_DIMENSION:
        raise ValueError(
            f"Sobol stream supports at most {MAX_DIMENSION} dimensions, got {dimension}"
        )
    table = np.zeros((dimension, MAXBIT), dtype=np.uint64)
    table[0] = [1 << (MAXBIT - 1 - k) for k in range(MAXBIT)]
    for dim in range(1, dimension):
        poly, m_init = _DIRECTION_DATA[dim - 1]
        degree = len(m_init)
        coeff = [(poly >> (degree - i)) & 1 for i in range(1, degree)]
        m_vals = list(m_init)
        for k in range(degree, MAXBIT):
            new = m_vals[k - degree] ^ (m_vals[k - degree] << degree)
            for i in range(1, degree):
                if coeff[i - 1]:
                    new ^= m_vals[k - i] << i
            m_vals.append(new)
        table[dim] = [m_vals[k] << (MAXBIT - 1 - k) for k in range(MAXBIT)]
    table.flags.writeable = False
    return table


@dataclass(eq=False)
class SobolStream:
    """A Sobol low-discrepancy stream over the unit cube.

    ``next_index`` starts at 1 by default: index 0 is the all-zeros point,
    which would waste a draw (a zero impulse cap makes no progress).
    """

    dimension: int
    next_index: int = 1
    direction_numbers: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.next_index < 0:
            raise ValueError("next_index must be nonnegative")
        if self.direction_numbers is None:
            self.direction_numbers = _direction_table(self.dimension)


_BIT_SHIFTS = np.arange(MAXBIT, dtype=np.uint64)


def _values_at(table: np.ndarray, start: int, count: int) -> np.ndarray:
    """Sobol points ``start .. start+count-1``, shape (count, dimension).

    Random access by the Gray-code construction: the first point XORs the
    direction columns of the set bits of ``gray(start)``; each later index
    ``i`` flips only bit ``ctz(i)`` of the Gray code, so a cumulative XOR
    over the columns ``ctz(i)`` gives the rest.  Temporaries are
    O(count * dimension)."""
    out = np.empty((count, table.shape[0]), dtype=np.uint64)
    if count:
        gray = np.uint64(start ^ (start >> 1))
        out[0] = np.bitwise_xor.reduce(
            table[:, ((gray >> _BIT_SHIFTS) & np.uint64(1)).astype(bool)], axis=1
        )
        indices = np.arange(start + 1, start + count, dtype=np.uint64)
        lowest_bit = indices & (~indices + np.uint64(1))
        # Powers of two below 2**53 are exact doubles, so frexp gives ctz + 1.
        out[1:] = table.T[np.frexp(lowest_bit.astype(float))[1] - 1]
        np.bitwise_xor.accumulate(out, axis=0, out=out)
    return out / float(1 << MAXBIT)


def sobol_block(dimension: int, start: int, count: int) -> np.ndarray:
    """Points ``start .. start+count-1`` of the sequence, shape (count, dimension)."""
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    if start + count >= 1 << MAXBIT:
        raise ValueError("Sobol index range exceeds the 52-bit sequence")
    return _values_at(_direction_table(dimension), start, count)


def sobol_next(stream: SobolStream) -> np.ndarray:
    """The next point of the stream (advances ``next_index``)."""
    if stream.next_index >= 1 << MAXBIT:
        raise ValueError("Sobol stream exhausted")
    point = _values_at(stream.direction_numbers, stream.next_index, 1)[0]
    stream.next_index += 1
    return point


class SobolSampler:
    """Low-discrepancy draw source.  Trajectory ``i`` with step cap ``n``
    consumes the consecutive index block ``[1 + i*n, 1 + (i+1)*n)``, so the
    draw a trajectory sees is independent of scheduling or job count."""

    kind = "sobol"

    def __init__(self, seed: int | None = None):
        self.seed = seed  # accepted for interface parity; the stream is seedless

    def draw_block(self, first: int, count: int, n: int, m: int) -> np.ndarray:
        """Cap fractions of trajectories ``first .. first+count-1``, shape
        (count, n, m): one ``sobol_block`` over their consecutive indices."""
        return sobol_block(m, 1 + first * n, count * n).reshape(count, n, m)


class UniformSampler:
    """Pseudorandom draw source; trajectory ``i`` uses an independent
    generator keyed by ``(seed, i)``, again scheduling-independent."""

    kind = "uniform"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def draw_block(self, first: int, count: int, n: int, m: int) -> np.ndarray:
        """Cap fractions of trajectories ``first .. first+count-1``, shape
        (count, n, m): ``n`` draws of ``m`` from each trajectory's generator."""
        out = np.empty((count, n, m))
        for row, index in enumerate(range(first, first + count)):
            out[row] = np.random.default_rng([self.seed, index]).random((n, m))
        return out


@dataclass(eq=False)
class PostImpactSet:
    """Sampled outer approximation of the reachable post-impact velocities."""

    samples: np.ndarray  # (n_kept, n_v)
    traj_indices: np.ndarray  # (n_kept,)
    rejected_count: int
    params: dict


def psi(problem: ImpactProblem) -> float:
    """Stiffness bound for the finishing step: how much total impulse a
    unit of residual approach speed can require.  Computed as
    ``sigma_max(M^-1 Jbar^T) * m * (1 + max mu) + 1``."""
    ws = _workspace(problem)
    sigma = float(np.linalg.norm(ws.minv_jbar_t, 2))
    return sigma * problem.n_contacts * (1.0 + float(problem.mu.max())) + 1.0


def _run_trajectories(
    problem: ImpactProblem,
    v0: np.ndarray,
    h: float,
    n_max: int,
    sampler,
    finishing: np.ndarray,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories ``start .. stop-1`` in lockstep blocks of
    ``BLOCK_SIZE``, each ended by the finishing step; returns the indices
    and final velocities of those that no longer impact."""
    indices, samples = [], []
    for first in range(start, stop, BLOCK_SIZE):
        count = min(BLOCK_SIZE, stop - first)
        fractions = sampler.draw_block(first, count, n_max, problem.n_contacts)
        v = sim_block(problem, v0, h, fractions)
        v_fin, _, _ = step_block(problem, v, np.broadcast_to(finishing, (count, finishing.size)))
        kept = ~is_impacting(problem, v_fin)
        indices.append(first + np.flatnonzero(kept))
        samples.append(v_fin[kept])
    return np.concatenate(indices), np.concatenate(samples)


def _run_share(conn, args: tuple, start: int, stop: int) -> None:
    """Child process body: send ``(True, result)`` of one range, or
    ``(False, exception)`` if it raised."""
    try:
        reply = (True, _run_trajectories(*args, start, stop))
    except BaseException as exc:  # the parent re-raises it
        reply = (False, exc)
    conn.send(reply)
    conn.close()


def _fan_out(args: tuple, bounds: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Results of the ranges ``bounds[k] .. bounds[k+1]-1`` in order: the
    first from this process, the others from one child process each.

    If anything raises here (this process's own range, an error a child
    sent back, or ``KeyboardInterrupt``), the children still running are
    terminated.  Every child is joined before this returns or raises."""
    # Imported here: it costs tens of ms at import time, and only
    # ``jobs > 1`` needs it.
    import multiprocessing

    children = []
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            receive, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_run_share, args=(send, args, start, stop))
            child.start()
            send.close()
            children.append((child, receive))
        parts = [_run_trajectories(*args, bounds[0], bounds[1])]
        for child, receive in children:
            try:
                ok, value = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"trajectory worker exited with code {child.exitcode} "
                    "before sending its results"
                ) from None
            if not ok:
                raise value
            parts.append(value)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()
    return parts


def approximate(
    problem: ImpactProblem,
    v0: np.ndarray,
    h: float,
    epsilon: float,
    n_max: int,
    m_trajectories: int,
    sampler,
    jobs: int = 1,
) -> PostImpactSet:
    """Sample ``m_trajectories`` resolutions of the impact at ``v0``.

    Each trajectory runs the capped stochastic integrator for at most
    ``n_max`` steps, then takes one finishing step with per-contact cap
    ``epsilon / (3 psi)``; endpoints still impacting afterwards are
    discarded (counted in ``rejected_count``).  Requires
    ``0 < epsilon < h``.  With ``jobs > 1`` the trajectories are split
    into ``jobs`` contiguous ranges: this process runs the first and
    ``jobs - 1`` child processes run the others, all ended before the
    call returns.  Outputs are identical for any job count.
    """
    if not 0.0 < epsilon < h:
        raise ValueError("epsilon must satisfy 0 < epsilon < h")
    if m_trajectories < 1:
        raise ValueError("at least one trajectory is required")
    v0 = np.asarray(v0, dtype=float)
    finishing = (epsilon / (3.0 * psi(problem))) * np.ones(problem.n_contacts)

    args = (problem, v0, h, n_max, sampler, finishing)
    if jobs <= 1 or m_trajectories == 1:
        traj_indices, samples = _run_trajectories(*args, 0, m_trajectories)
    else:
        jobs = min(jobs, m_trajectories)
        parts = _fan_out(args, [k * m_trajectories // jobs for k in range(jobs + 1)])
        traj_indices = np.concatenate([indices for indices, _ in parts])
        samples = np.concatenate([kept for _, kept in parts])
    return PostImpactSet(
        samples=samples,
        traj_indices=traj_indices,
        rejected_count=m_trajectories - len(traj_indices),
        params={
            "h": h,
            "epsilon": epsilon,
            "n_max": n_max,
            "m_trajectories": m_trajectories,
            "sampler": sampler.kind,
            "seed": getattr(sampler, "seed", None),
        },
    )


def classify_outcomes(
    post_set: PostImpactSet | np.ndarray,
    problem: ImpactProblem,
    tol: float = 1e-6,
) -> dict[str, dict[str, int]]:
    """Per-contact outcome-class counts over sampled velocities.

    ``post_set`` may be a :class:`PostImpactSet` or a bare array of
    post-impact velocities, one row per sample.  A contact lifts when its
    separation rate exceeds ``tol``; otherwise it slides when its slip
    rate magnitude exceeds ``tol``; otherwise it sticks.
    """
    samples = post_set.samples if isinstance(post_set, PostImpactSet) else post_set
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("classify_outcomes requires a nonempty sample set")
    out: dict[str, dict[str, int]] = {}
    jn_v = samples @ problem.jn.T
    jt_v = samples @ problem.jd[0::2].T
    for i, label in enumerate(problem.labels):
        lift = jn_v[:, i] > tol
        slide = ~lift & (np.abs(jt_v[:, i]) > tol)
        stick = ~lift & ~slide
        out[label] = {
            "lift": int(lift.sum()),
            "slide": int(slide.sum()),
            "stick": int(stick.sum()),
        }
    return out


def epsilon_net_check(
    candidate: np.ndarray, reference: np.ndarray, epsilon: float
) -> tuple[bool, float]:
    """Audit that ``candidate`` is an epsilon-net of ``reference``: every
    reference point must be within Euclidean ``epsilon`` of some candidate.
    Returns ``(ok, worst_gap)``."""
    candidate = np.asarray(candidate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if candidate.size == 0 or reference.size == 0:
        raise ValueError("both point sets must be nonempty")
    worst = 0.0
    chunk = max(1, int(2**22) // max(1, candidate.shape[0]))
    for start in range(0, reference.shape[0], chunk):
        block = reference[start : start + chunk]
        d2 = (
            np.sum(block * block, axis=1)[:, None]
            - 2.0 * block @ candidate.T
            + np.sum(candidate * candidate, axis=1)[None, :]
        )
        worst = max(worst, float(np.sqrt(np.maximum(d2, 0.0).min(axis=1)).max()))
    return worst <= epsilon, worst


def sample_count_bound(
    h: float, lipschitz_l: float, box_dim: int, epsilon: float, delta: float
) -> int:
    """How many trajectories suffice for epsilon-coverage with confidence.

    Covers the draw cube by a grid fine enough that the trajectory map
    moves points less than epsilon within a cell (``cells = ceil(h * L *
    sqrt(box_dim) / epsilon)`` per axis, hit probability ``omega`` =
    cells^-box_dim), then returns the least M with
    ``M >= ln(delta * omega) / ln(1 - omega)``.  Astronomically large
    requirements saturate to ``2**63 - 1``.
    """
    if h <= 0 or lipschitz_l <= 0 or epsilon <= 0:
        raise ValueError("h, lipschitz_l and epsilon must be positive")
    if box_dim < 1:
        raise ValueError("box_dim must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    cells = math.ceil(h * lipschitz_l * math.sqrt(box_dim) / epsilon)
    if cells <= 1:
        return 1
    log_omega = -box_dim * math.log(cells)
    omega = math.exp(log_omega)
    if omega == 0.0:
        return _SENTINEL
    log_miss = math.log1p(-omega)
    if log_miss == 0.0:
        return _SENTINEL
    required = (math.log(delta) + log_omega) / log_miss
    if not math.isfinite(required) or required >= _SENTINEL:
        return _SENTINEL
    return max(1, math.ceil(required))


def estimate_step_lipschitz(
    problem: ImpactProblem,
    h: float,
    n_pairs: int = 10000,
    seed: int = 0,
    scale: float = 1.0,
) -> float:
    """Empirical (non-certified) Lipschitz constant of the one-step map in
    its velocity argument: the largest observed ratio
    ``|step(v1) - step(v2)| / |v1 - v2|`` over random velocity pairs that
    share a drawn cap vector.

    The pairs are drawn one by one, then stepped in lockstep
    (``step_block``) in chunks of ``BLOCK_SIZE`` rows, the two velocities
    of a pair side by side."""
    rng = np.random.default_rng(seed)
    m = problem.n_contacts
    v = np.empty((n_pairs, 2, problem.n_v))
    caps = np.empty((n_pairs, m))
    for i in range(n_pairs):
        v[i, 0] = scale * rng.normal(size=problem.n_v)
        v[i, 1] = v[i, 0] + scale * 10.0 ** rng.uniform(-4, 0) * rng.normal(size=problem.n_v)
        caps[i] = h * rng.random(m)
    rows = v.reshape(2 * n_pairs, problem.n_v)
    row_caps = np.repeat(caps, 2, axis=0)
    out = np.empty_like(rows)
    for first in range(0, len(rows), BLOCK_SIZE):
        chunk = slice(first, first + BLOCK_SIZE)
        out[chunk] = step_block(problem, rows[chunk], row_caps[chunk])[0]
    out = out.reshape(v.shape)
    worst = 0.0
    for i in range(n_pairs):
        gap = float(np.linalg.norm(v[i, 0] - v[i, 1]))
        if gap > 0.0:
            worst = max(worst, float(np.linalg.norm(out[i, 0] - out[i, 1])) / gap)
    return worst
