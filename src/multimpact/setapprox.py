"""Sampling-based outer approximation of the set of post-impact velocities.

The stochastic integrator maps a draw sequence to one resolved outcome;
running many trajectories with low-discrepancy or pseudorandom draws and
applying a small finishing step yields a point cloud covering the reachable
post-impact set.  This module provides:

- a deterministic Sobol sequence (52-bit, Gray-code order, up to 32
  dimensions) with direction numbers frozen in source.  Each dimension's
  direction table, and its XORs for every byte value, are built on first
  use and shared read-only, and any set of points is reached by random
  access in one numpy gather per byte of the largest index (Gray-code
  construction of Antonov & Saleev 1979; Bratley & Fox,
  ACM TOMS Algorithm 659, 1988);
- draw samplers that draw each step for the live trajectories only, with
  per-trajectory determinism, so results do not depend on worker
  scheduling;
- the finishing-step stiffness bound ``psi``, the sampling driver
  ``approximate`` (optionally over several processes), a coverage audit
  ``epsilon_net_check``, and the grid-based ``sample_count_bound``.

``approximate`` runs contiguous blocks of ``BLOCK_SIZE`` trajectories in
lockstep, each step drawing the caps of the block's trajectories that
still impact, and ends each block with the finishing step.  With the
compiled kernel a block of either sampler is one call, which draws
from the samplers' own tables and states (``_kernel_draws``); only
there does the kernel draw.  Its reference, and the path for a sampler
that only has ``stream``, is ``resolution.sim_block`` and the finishing
``_step``; ``stream`` draws in numpy on either engine.  With ``jobs > 1``
on the kernel, the calling thread runs the first of ``jobs`` contiguous
ranges itself while ``jobs - 1`` threads run the rest: the kernel's
block call releases the GIL and keeps no mutable global state.  Every
thread has ended before the call returns.  The numpy reference holds the
GIL, so there one range runs, whatever ``jobs`` is.  A trajectory's bits
depend neither on the block it falls in nor on the job count.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import lcp
from .contact import ImpactProblem
from .contact import is_impacting  # noqa: F401  (stays importable from here)
from .resolution import _check_budget, _check_integers, _kernel_block, _recorded_seed
from .resolution import _start_velocity, _step, _workspace
from .resolution import sim_block, step_block
from .resolution import sim, sim_step  # noqa: F401  (stay importable from here)

__all__ = [
    "MAXBIT",
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
# Separation or slip rate above which ``classify_outcomes`` counts a
# contact as lifting or sliding.
OUTCOME_TOL = 1e-6

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
    read-only, since every draw of this dimension shares it."""
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


@functools.cache
def _byte_table(dimension: int) -> np.ndarray:
    """For byte ``j`` of a Gray code and each of its 256 values, the XOR
    of the direction columns ``8j .. 8j + 7`` of its set bits: shape
    (bytes in MAXBIT bits, 256, dimension), as uint64.  Memoised and
    read-only, like ``_direction_table``."""
    directions = _direction_table(dimension)
    count = -(-MAXBIT // 8)
    columns = np.zeros((dimension, 8 * count), dtype=np.uint64)
    columns[:, :MAXBIT] = directions
    columns = columns.reshape(dimension, count, 8).transpose(1, 0, 2)  # (byte, dim, bit)
    values = np.arange(256, dtype=np.uint64)
    bits = (values[:, None] >> np.arange(8, dtype=np.uint64)) & np.uint64(1)  # (value, bit)
    table = np.bitwise_xor.reduce(bits[None, :, None, :] * columns[:, None], axis=3)
    # C-ordered, so that ``_lemke.c``'s ``sim_stack`` reads it in place.
    table = np.ascontiguousarray(table)
    table.flags.writeable = False
    return table


def sobol_block(dimension: int, indices) -> np.ndarray:
    """Points at ``indices`` of the sequence, shape (len(indices), dimension).

    Random access by the Gray-code construction: point ``i`` XORs the
    direction columns of the set bits of ``gray(i) = i ^ (i >> 1)``,
    eight bits at a time from ``_byte_table``.  Temporaries are
    O(len(indices) * dimension), whatever the largest index."""
    table = _byte_table(dimension)
    indices = np.asarray(indices, dtype=np.int64)
    top = int(indices.max()) if indices.size else 0
    if indices.size and (indices.min() < 0 or top >= 1 << MAXBIT):
        raise ValueError("Sobol indices must lie in the 52-bit sequence")
    gray = (indices ^ (indices >> 1)).astype("<u8").view(np.uint8).reshape(-1, 8)
    points = table[0][gray[:, 0]]
    for byte in range(1, -(-top.bit_length() // 8)):
        points ^= table[byte][gray[:, byte]]
    return points / float(1 << MAXBIT)


def _check_seed(seed) -> int:
    """``seed`` as an ``int``, if it is a nonnegative integer and not a bool."""
    _check_integers(seed=seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return int(seed)


class SobolSampler:
    """Low-discrepancy draw source.  Trajectory ``i`` with step cap ``n``
    draws step ``j`` at index ``1 + i*n + j``, so the draw a trajectory
    sees is independent of scheduling or job count.  ``seed``, checked as
    ``UniformSampler``'s unless ``None``, is only kept for the record."""

    kind = "sobol"

    def __init__(self, seed: int | None = None):
        self.seed = None if seed is None else _check_seed(seed)

    def stream(self, first: int, count: int, n: int, m: int):
        """Cap draws in [0, 1) of trajectories ``first .. first+count-1``,
        one step at a time: ``draw(rows, step)`` gives the ``step``-th draws
        of trajectories ``first + rows``, shape (len(rows), m), by
        ``sobol_block``.  An index range beyond the sequence, or more than
        ``MAX_DIMENSION`` contacts, raises ``ValueError`` here."""
        _, start, _, _ = self._kernel_draws(first, count, n, m)
        return lambda rows, step: sobol_block(m, start + rows * n + step)

    def _kernel_draws(self, first: int, count: int, n: int, m: int) -> tuple:
        """``stream``'s draws as ``resolution._kernel_block`` takes them,
        after ``stream``'s checks: the byte table, the index of trajectory
        ``first``'s first draw and the stride."""
        # The last trajectory's last draw is at index (first + count) * n.
        if (first + count) * n >= 1 << MAXBIT:
            raise ValueError("Sobol index range exceeds the 52-bit sequence")
        # Checks m, and builds the table before any thread starts.
        return _byte_table(m), 1 + first * n, n, None


class UniformSampler:
    """Pseudorandom draw source; trajectory ``i`` uses an independent
    generator keyed by ``(seed, i)``, again scheduling-independent.  A
    seed that is not a nonnegative integer (or is a bool) raises ``ValueError``."""

    kind = "uniform"

    def __init__(self, seed: int = 0):
        self.seed = _check_seed(seed)

    def stream(self, first: int, count: int, n: int, m: int):
        """Cap draws in [0, 1) of trajectories ``first .. first+count-1``,
        one step at a time: ``draw(rows, step)`` gives the next ``random(m)``
        of each trajectory ``first + rows``' generator
        ``np.random.default_rng([seed, i])``, shape (len(rows), m); a
        row's generator is built on its first draw.  A trajectory drawn at
        every step so far gets the bits of one ``random((n, m))``, as the
        live rows of ``sim_block`` are.  A row outside ``[0, count)``
        raises ``IndexError`` before any generator draws."""
        outside = f"draw rows must lie in [0, {count})"
        generators = {}

        def draw(rows: np.ndarray, step: int) -> np.ndarray:
            indices = rows.tolist()
            if not all(0 <= index < count for index in indices):
                raise IndexError(outside)
            out = np.empty((len(indices), m))
            for row, index in enumerate(indices):
                if index not in generators:
                    generators[index] = np.random.default_rng([self.seed, first + index])
                generators[index].random(out=out[row])
            return out

        return draw

    def _kernel_draws(self, first: int, count: int, n: int, m: int) -> tuple | None:
        """``stream``'s draws as ``resolution._kernel_block`` takes them:
        the PCG64 states (count, 4) of the generators of trajectories
        ``first .. first+count-1``, which the compiled kernel seeds from
        the seed's 32-bit words as ``SeedSequence`` reads them; ``None``
        for indices past 2**64."""
        if first + count > 1 << 64:
            return None
        bits = range(0, max(1, self.seed.bit_length()), 32)
        words = np.array([self.seed >> bit & 0xFFFFFFFF for bit in bits], dtype=np.uint32)
        states = np.empty((count, 4), dtype=np.uint64)
        code = lcp.KERNEL.pcg_seed(count, words.ctypes.data, words.size, first, states.ctypes.data)
        lcp._raise_outcome(code)
        return None, 0, 0, states


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
    ``sigma_max(M^-1 Jbar^T) * m * (1 + max mu) + 1`` on the first call
    for a problem and kept with its step LCP blocks (the problem is
    frozen, so the value cannot go stale)."""
    ws = _workspace(problem)
    if ws.psi is None:
        sigma = float(np.linalg.norm(ws.minv_jbar_t, 2))
        ws.psi = sigma * problem.n_contacts * (1.0 + float(problem.mu.max())) + 1.0
    return ws.psi


def _run_trajectories(
    problem: ImpactProblem,
    v0: np.ndarray,
    h: float,
    n_max: int,
    sampler,
    finishing: np.ndarray,
    start: int,
    stop: int,
    stopped: Callable[[], bool],
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories ``start .. stop-1`` in lockstep blocks of
    ``BLOCK_SIZE``, each ended by the finishing step; returns the indices
    and final velocities of those that no longer impact.  Once
    ``stopped()`` holds after a block, the blocks run so far are returned."""
    indices, samples = [], []
    for first in range(start, stop, BLOCK_SIZE):
        count = min(BLOCK_SIZE, stop - first)
        v_fin, impacting = _run_block(problem, v0, h, n_max, sampler, finishing, first, count)
        kept = ~impacting
        indices.append(first + np.flatnonzero(kept))
        samples.append(v_fin[kept])
        if stopped():
            break
    return np.concatenate(indices), np.concatenate(samples)


def _kernel_draws_of(sampler) -> Callable | None:
    """The sampler's ``_kernel_draws`` if the compiled kernel is loaded,
    so that its blocks run in kernel calls that release the GIL; ``None``
    if they run in numpy (no kernel, or a sampler with only ``stream``)."""
    return None if lcp.KERNEL is None else getattr(sampler, "_kernel_draws", None)


def _run_block(
    problem: ImpactProblem,
    v0: np.ndarray,
    h: float,
    n_max: int,
    sampler,
    finishing: np.ndarray,
    first: int,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories ``first .. first+count-1`` in lockstep, each ended by
    the finishing step with caps ``finishing``: their final velocities
    and whether each still impacts.  With the compiled kernel and a
    sampler that draws in it (``_kernel_draws_of``) the block is one call,
    ``resolution._kernel_block``; otherwise, as for a sampler that has
    only ``stream``, ``sim_block`` and the finishing ``_step``, its
    reference, with the same bits and errors."""
    kernel_draws = _kernel_draws_of(sampler)
    if kernel_draws is not None:
        draws = kernel_draws(first, count, n_max, problem.n_contacts)
        if draws is not None:
            return _kernel_block(problem, v0, h, n_max, count, draws, finishing)
    v = sim_block(problem, v0, h, n_max, sampler, first, count)
    v_fin, _, _, impacting = _step(problem, v, np.broadcast_to(finishing, (count, finishing.size)))
    return v_fin, impacting


def _fan_out(args: tuple, bounds: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Results of the ranges ``bounds[k] .. bounds[k+1]-1`` in order: the
    first from this thread, the others from one thread each, so a single
    range starts no thread.

    A range stops after its current block once an earlier range has
    raised, or once this thread is interrupted.  Every thread is joined
    before this returns or raises, and what it raises is the exception of
    the earliest range that raised: the one a single range raises."""
    ranges = list(zip(bounds, bounds[1:]))
    failed = [False] * len(ranges)
    results: list = [None] * len(ranges)

    def run(k: int) -> None:
        try:
            results[k] = _run_trajectories(*args, *ranges[k], lambda: any(failed[:k]))
        except BaseException as exc:  # raised below, once every thread has ended
            results[k] = exc
            failed[k] = True

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, len(ranges))]
    try:
        for thread in threads:
            thread.start()
        run(0)
        for thread in threads:
            thread.join()
    except BaseException:  # interrupted outside ``run``: every other range stops
        failed[0] = True
        for thread in threads:
            if thread.is_alive():
                thread.join()
        raise
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


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
    discarded (counted in ``rejected_count``).  Requires a finite
    ``0 < epsilon < h``, one finite ``v0`` and integer counts, and opens the
    last trajectory's draw stream, so that a range or dimension the
    sampler rejects fails before any trajectory runs.  With ``jobs > 1`` the
    trajectories are split into ``jobs`` contiguous ranges: this thread
    runs the first and ``jobs - 1`` threads run the others, all ended
    before the call returns.  Only kernel blocks run in parallel, so on
    the numpy reference one range runs.  Outputs are identical for any
    job count.
    """
    _check_budget(h)
    if not 0.0 < epsilon < h:
        raise ValueError("epsilon must satisfy 0 < epsilon < h")
    _check_integers(n_max=n_max, m_trajectories=m_trajectories, jobs=jobs)
    if m_trajectories < 1:
        raise ValueError("at least one trajectory is required")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if n_max < 0:
        raise ValueError("step cap must be nonnegative")
    h, epsilon = float(h), float(epsilon)
    n_max, m_trajectories, jobs = int(n_max), int(m_trajectories), int(jobs)
    v0 = _start_velocity(problem, v0)
    sampler.stream(m_trajectories - 1, 1, n_max, problem.n_contacts)
    finishing = (epsilon / (3.0 * psi(problem))) * np.ones(problem.n_contacts)

    jobs = 1 if _kernel_draws_of(sampler) is None else min(jobs, m_trajectories)
    parts = _fan_out(
        (problem, v0, h, n_max, sampler, finishing),
        [k * m_trajectories // jobs for k in range(jobs + 1)],
    )
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
            "seed": _recorded_seed(sampler),
        },
    )


def classify_outcomes(
    post_set: PostImpactSet | np.ndarray,
    problem: ImpactProblem,
) -> dict[str, dict[str, int]]:
    """Per-contact outcome-class counts over sampled velocities.

    ``post_set`` may be a :class:`PostImpactSet` or a bare array of
    post-impact velocities, one row per sample.  A contact lifts when its
    separation rate exceeds ``OUTCOME_TOL``; otherwise it slides when its
    slip rate magnitude exceeds ``OUTCOME_TOL``; otherwise it sticks.
    """
    samples = post_set.samples if isinstance(post_set, PostImpactSet) else post_set
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("classify_outcomes requires a nonempty sample set")
    out: dict[str, dict[str, int]] = {}
    jn_v, jt_v = samples @ problem.jn.T, samples @ problem.jt.T
    for i, label in enumerate(problem.labels):
        lift = jn_v[:, i] > OUTCOME_TOL
        slide = ~lift & (np.abs(jt_v[:, i]) > OUTCOME_TOL)
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
    Both are 2-D, one point per row, of equal width.  Returns
    ``(ok, worst_gap)``."""
    candidate = np.asarray(candidate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if candidate.ndim != 2 or reference.ndim != 2 or candidate.shape[1] != reference.shape[1]:
        raise ValueError(
            f"point sets must be 2-D and of equal width, got {candidate.shape}, {reference.shape}"
        )
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
    requirements saturate to ``2**63 - 1``, as does a cell count or a
    ``box_dim`` that overflows a float, unless one cell suffices.
    """
    if not all(0.0 < x < math.inf for x in (h, lipschitz_l, epsilon)):
        raise ValueError("h, lipschitz_l and epsilon must be positive and finite")
    _check_integers(box_dim=box_dim)
    if box_dim < 1:
        raise ValueError("box_dim must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    try:
        ratio = h * lipschitz_l * math.sqrt(box_dim) / epsilon
    except OverflowError:  # ``box_dim`` past the float range: omega is 0 unless one cell fits
        log_ratio = math.log(h) + math.log(lipschitz_l) + math.log(box_dim) / 2
        return 1 if log_ratio <= math.log(epsilon) else _SENTINEL
    if ratio == math.inf:
        return _SENTINEL
    cells = math.ceil(ratio)
    if cells <= 1:
        return 1
    log_omega = -box_dim * math.log(cells)
    omega = math.exp(log_omega)
    if omega == 0.0:
        return _SENTINEL
    # Here omega lies in (0, 1/2], so ``log1p(-omega)`` is negative.
    required = (math.log(delta) + log_omega) / math.log1p(-omega)
    if required >= _SENTINEL:
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
    of a pair side by side.  ``h`` and ``scale`` must be positive and
    finite, and ``n_pairs`` at least 1, or ``ValueError`` is raised."""
    _check_budget(h)
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    _check_integers(n_pairs=n_pairs)
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
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
    # Each distance as ``np.linalg.norm`` takes it: the root of one dot
    # product, which ``matmul`` takes row by row.
    diffs = np.stack([v[:, 0] - v[:, 1], out[:, 0] - out[:, 1]])  # (2, n_pairs, n_v)
    gap, moved = np.sqrt(diffs[..., None, :] @ diffs[..., None]).reshape(2, n_pairs)
    positive = gap > 0.0
    return float((moved[positive] / gap[positive]).max(initial=0.0))
