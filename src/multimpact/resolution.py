"""Simultaneous impact resolution by complementarity stepping.

One step of the stochastic impact integrator solves a mixed LCP coupling
normal impulses (capped per step by a drawn budget), doubled tangential
friction impulses, and two groups of auxiliary slack variables: per-contact
budget slacks and tangential slip speeds.  Iterating steps until no contact
is approaching yields one sampled resolution of a simultaneous impact; the
per-step impulse caps are what make distinct outcomes reachable.

Also provided: two deterministic baselines (an uncapped one-shot resolution
and a one-contact-at-a-time sweep), an impulse-progress certificate ``r``
obtained from a small linear program, and the integer constant turning that
certificate into a geometric tail bound on the number of steps.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .contact import ImpactProblem, in_linear_cone, is_impacting, kinetic_energy
from .errors import (
    ConeViolationError,
    LcpSolveError,
    NonDegeneracyViolation,
    SequentialCapExceeded,
)
from .lcp import RESIDUAL_TOL, LcpInstance, lemke_solve, residuals

__all__ = [
    "ImpactLcpLayout",
    "StepRecord",
    "Trajectory",
    "assemble_impact_lcp",
    "sim_step",
    "sim",
    "anitescu_resolve",
    "sequential_resolve",
    "restrict_contacts",
    "compute_r",
    "termination_constant",
    "tail_bound",
]

# Slack allowed when verifying the certificate's progress ``(M^-1 F) . r >= 1``.
CERT_SLACK = 1e-7


@dataclass(frozen=True)
class ImpactLcpLayout:
    """Index bookkeeping for the assembled step LCP.

    Variable order is [budget slacks; normal impulses; doubled friction
    impulses; slip speeds], sized m + m + 2m + m for m contacts.
    """

    n_contacts: int

    @property
    def size(self) -> int:
        return 5 * self.n_contacts

    @property
    def gamma_f(self) -> slice:
        return slice(0, self.n_contacts)

    @property
    def lambda_n(self) -> slice:
        return slice(self.n_contacts, 2 * self.n_contacts)

    @property
    def beta(self) -> slice:
        return slice(2 * self.n_contacts, 4 * self.n_contacts)

    @property
    def gamma_v(self) -> slice:
        return slice(4 * self.n_contacts, 5 * self.n_contacts)


@dataclass(eq=False)
class StepRecord:
    """Everything about one resolved step: the drawn caps, the impulses
    taken, and the velocity/energy before and after."""

    lambda_max: np.ndarray
    lambda_n: np.ndarray
    beta: np.ndarray
    v_before: np.ndarray
    v_after: np.ndarray
    energy_before: float
    energy_after: float


@dataclass(eq=False)
class Trajectory:
    """A full impact resolution: the step records plus run metadata.
    ``terminated`` is True exactly when the final velocity no longer has
    any approaching contact."""

    steps: list[StepRecord]
    terminated: bool
    h: float
    rng_seed: int | None
    v0: np.ndarray
    v_final: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.steps)


class _Workspace:
    """Per-problem cached assembly blocks (constant across steps)."""

    def __init__(self, problem: ImpactProblem):
        m = problem.n_contacts
        jbar = problem.jbar  # (3m, n_v)
        self.minv_jbar_t = problem.mass_solve(jbar.T)  # (n_v, 3m)
        delassus = jbar @ self.minv_jbar_t  # (3m, 3m)
        self.a_nn = delassus[:m, :m]
        self.a_nd = delassus[:m, m:]
        self.a_dn = delassus[m:, :m]
        self.a_dd = delassus[m:, m:]
        self.e_mat = np.zeros((2 * m, m))
        for i in range(m):
            self.e_mat[2 * i : 2 * i + 2, i] = 1.0

        size = 5 * m
        full = np.zeros((size, size))
        # budget rows: slack w = lambda_max - lambda_n
        full[0:m, m : 2 * m] = -np.eye(m)
        # normal rows: separation rate after the step
        full[m : 2 * m, 0:m] = np.eye(m)
        full[m : 2 * m, m : 2 * m] = self.a_nn
        full[m : 2 * m, 2 * m : 4 * m] = self.a_nd
        # doubled tangential rows: slip rate plus slip-speed slack
        full[2 * m : 4 * m, m : 2 * m] = self.a_dn
        full[2 * m : 4 * m, 2 * m : 4 * m] = self.a_dd
        full[2 * m : 4 * m, 4 * m : 5 * m] = self.e_mat
        # cone rows: friction budget mu * lambda_n - sum(beta)
        full[4 * m : 5 * m, m : 2 * m] = np.diag(problem.mu)
        full[4 * m : 5 * m, 2 * m : 4 * m] = -self.e_mat.T
        self.full_matrix = full
        # Uncapped variant: drop the budget slack rows/columns.
        keep = np.arange(m, size)
        self.uncapped_matrix = full[np.ix_(keep, keep)]


def _workspace(problem: ImpactProblem) -> _Workspace:
    ws = getattr(problem, "_workspace", None)
    if ws is None:
        ws = _Workspace(problem)
        problem._workspace = ws
    return ws


def assemble_impact_lcp(
    problem: ImpactProblem, v: np.ndarray, lambda_max: np.ndarray
) -> tuple[LcpInstance, ImpactLcpLayout]:
    """Build the capped step LCP at velocity ``v`` with per-contact normal
    impulse caps ``lambda_max``."""
    v = np.asarray(v, dtype=float)
    lambda_max = np.asarray(lambda_max, dtype=float)
    m = problem.n_contacts
    if lambda_max.shape != (m,):
        raise ValueError("lambda_max must have one cap per contact")
    if not np.isfinite(lambda_max).all() or np.any(lambda_max < 0.0):
        raise ValueError("impulse caps must be finite and nonnegative")
    ws = _workspace(problem)
    q = np.concatenate([lambda_max, problem.jn @ v, problem.jd @ v, np.zeros(m)])
    return LcpInstance(ws.full_matrix, q), ImpactLcpLayout(m)


def _certified_solve(lcp: LcpInstance, context: str) -> np.ndarray:
    sol = lemke_solve(lcp)
    if sol.status != "solved":
        raise LcpSolveError(sol.status, context)
    comp_gap, neg_z, neg_w = residuals(lcp, sol.z)
    scale = 1.0 + float(np.linalg.norm(sol.z)) * float(np.linalg.norm(sol.w))
    if neg_z > RESIDUAL_TOL or neg_w > RESIDUAL_TOL or comp_gap > RESIDUAL_TOL * scale:
        raise LcpSolveError(
            "solved",
            f"{context}: residuals exceed tolerance "
            f"(gap={comp_gap:.3e}, neg_z={neg_z:.3e}, neg_w={neg_w:.3e})",
        )
    return sol.z


def sim_step(
    problem: ImpactProblem,
    v: np.ndarray,
    lambda_max: np.ndarray,
) -> tuple[np.ndarray, StepRecord]:
    """Resolve one capped impulse step; returns ``(v_after, record)``.

    If no contact is approaching, or every cap is zero, the velocity is
    returned unchanged with a zero-impulse record.  A non-solved LCP status
    raises :class:`LcpSolveError`; a post-step state failing the
    friction-cone audit raises :class:`ConeViolationError`.
    """
    v = np.asarray(v, dtype=float)
    lambda_max = np.asarray(lambda_max, dtype=float)
    m = problem.n_contacts
    energy = kinetic_energy(problem, v)

    if not is_impacting(problem, v) or not np.any(lambda_max > 0.0):
        record = StepRecord(
            lambda_max=lambda_max.copy(),
            lambda_n=np.zeros(m),
            beta=np.zeros(2 * m),
            v_before=v.copy(),
            v_after=v.copy(),
            energy_before=energy,
            energy_after=energy,
        )
        return v.copy(), record

    lcp, layout = assemble_impact_lcp(problem, v, lambda_max)
    z = _certified_solve(lcp, "capped impact step")
    lambda_n = z[layout.lambda_n]
    beta = z[layout.beta]
    ws = _workspace(problem)
    v_after = v + ws.minv_jbar_t @ np.concatenate([lambda_n, beta])
    if not in_linear_cone(problem, v_after, lambda_n, beta):
        raise ConeViolationError(
            "post-step state failed the friction-cone feasibility audit"
        )
    record = StepRecord(
        lambda_max=lambda_max.copy(),
        lambda_n=lambda_n.copy(),
        beta=beta.copy(),
        v_before=v.copy(),
        v_after=v_after.copy(),
        energy_before=energy,
        energy_after=kinetic_energy(problem, v_after),
    )
    return v_after, record


def sim(
    problem: ImpactProblem,
    v0: np.ndarray,
    h: float,
    n_max: int,
    sampler,
    traj_index: int = 0,
) -> Trajectory:
    """Run the stochastic impact integrator from ``v0``.

    Each iteration draws per-contact cap fractions from ``sampler`` (an
    object with ``draws(traj_index, n, m)`` yielding vectors in [0,1)^m),
    scales them by ``h`` and applies one capped step, stopping as soon as
    no contact approaches or after ``n_max`` steps.
    """
    if h <= 0.0:
        raise ValueError("per-step impulse budget h must be positive")
    if n_max < 0:
        raise ValueError("step cap must be nonnegative")
    v = np.asarray(v0, dtype=float).copy()
    draws = sampler.draws(traj_index, n_max, problem.n_contacts)
    steps: list[StepRecord] = []
    while is_impacting(problem, v) and len(steps) < n_max:
        fraction = next(draws)
        v, record = sim_step(problem, v, h * np.asarray(fraction))
        steps.append(record)
    return Trajectory(
        steps=steps,
        terminated=not is_impacting(problem, v),
        h=h,
        rng_seed=getattr(sampler, "seed", None),
        v0=np.asarray(v0, dtype=float).copy(),
        v_final=v,
    )


def _uncapped_resolve(
    problem: ImpactProblem, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-shot resolution with no impulse caps; returns (v_after,
    lambda_n, beta)."""
    m = problem.n_contacts
    ws = _workspace(problem)
    q = np.concatenate([problem.jn @ v, problem.jd @ v, np.zeros(m)])
    if np.all(q[:m] >= 0.0):
        return np.asarray(v, dtype=float).copy(), np.zeros(m), np.zeros(2 * m)
    lcp = LcpInstance(ws.uncapped_matrix, q)
    z = _certified_solve(lcp, "uncapped resolution")
    lambda_n = z[:m]
    beta = z[m : 3 * m]
    v_after = v + ws.minv_jbar_t @ np.concatenate([lambda_n, beta])
    return v_after, lambda_n, beta


def anitescu_resolve(problem: ImpactProblem, v: np.ndarray) -> np.ndarray:
    """Deterministic one-shot baseline: resolve all contacts simultaneously
    with unbounded normal impulses (the classical time-stepping impact law)."""
    v = np.asarray(v, dtype=float)
    v_after, lambda_n, beta = _uncapped_resolve(problem, v)
    if not in_linear_cone(problem, v_after, lambda_n, beta):
        raise ConeViolationError(
            "uncapped resolution failed the friction-cone feasibility audit"
        )
    return v_after


def restrict_contacts(problem: ImpactProblem, indices: list[int]) -> ImpactProblem:
    """A copy of the problem keeping only the selected contacts."""
    indices = list(indices)
    doubled = [row for i in indices for row in (2 * i, 2 * i + 1)]
    return ImpactProblem(
        mass=problem.mass,
        jn=problem.jn[indices],
        jd=problem.jd[doubled],
        mu=problem.mu[indices],
        labels=tuple(problem.labels[i] for i in indices),
    )


def sequential_resolve(
    problem: ImpactProblem,
    v: np.ndarray,
    order: list[int | str],
    cap: int = 100,
) -> Trajectory:
    """One-contact-at-a-time baseline.

    Contacts are visited round-robin in the cycle given by ``order``
    (labels or indices) followed by the remaining contacts in index order;
    each visit fully resolves that single contact if it is approaching.
    Terminates when a full sweep finds no approaching contact; more than
    ``cap`` single-contact resolutions raises
    :class:`SequentialCapExceeded`.
    """
    v = np.asarray(v, dtype=float).copy()
    m = problem.n_contacts
    label_index = {label: i for i, label in enumerate(problem.labels)}
    cycle: list[int] = []
    for entry in order:
        idx = label_index[entry] if isinstance(entry, str) else int(entry)
        if idx < 0 or idx >= m:
            raise ValueError(f"contact index {idx} out of range")
        if idx in cycle:
            raise ValueError("resolution order must not repeat contacts")
        cycle.append(idx)
    cycle.extend(i for i in range(m) if i not in cycle)

    singles = [restrict_contacts(problem, [i]) for i in range(m)]
    v0 = v.copy()
    steps: list[StepRecord] = []
    resolutions = 0
    position = 0
    idle_sweeps = 0
    while idle_sweeps < m:
        idx = cycle[position % m]
        position += 1
        single = singles[idx]
        if not is_impacting(single, v):
            idle_sweeps += 1
            continue
        idle_sweeps = 0
        resolutions += 1
        if resolutions > cap:
            raise SequentialCapExceeded(
                f"more than {cap} single-contact resolutions without settling"
            )
        energy_before = kinetic_energy(problem, v)
        v_after, lam_single, beta_single = _uncapped_resolve(single, v)
        if not in_linear_cone(single, v_after, lam_single, beta_single):
            raise ConeViolationError(
                "single-contact resolution failed the friction-cone audit"
            )
        lambda_max = np.zeros(m)
        lambda_max[idx] = np.inf
        lambda_n = np.zeros(m)
        lambda_n[idx] = lam_single[0]
        beta = np.zeros(2 * m)
        beta[2 * idx : 2 * idx + 2] = beta_single
        steps.append(
            StepRecord(
                lambda_max=lambda_max,
                lambda_n=lambda_n,
                beta=beta,
                v_before=v.copy(),
                v_after=v_after.copy(),
                energy_before=energy_before,
                energy_after=kinetic_energy(problem, v_after),
            )
        )
        v = v_after
    return Trajectory(
        steps=steps,
        terminated=not is_impacting(problem, v),
        h=math.inf,
        rng_seed=None,
        v0=v0,
        v_final=v,
    )


def compute_r(problem: ImpactProblem) -> np.ndarray:
    """Impulse-progress certificate: a vector ``r`` with
    ``(M^-1 F) . r >= 1`` for every extreme impulse ray ``F`` (normal plus
    friction at either tangential extreme), minimizing the 1-norm.

    Solved as the KKT system of the linear program in split-variable form,
    which is itself an LCP with a skew-symmetric matrix; infeasibility
    (termination on a ray) certifies that the contact geometry admits a
    jamming impulse combination and raises
    :class:`NonDegeneracyViolation`.
    """
    m = problem.n_contacts
    n_v = problem.n_v
    rays = np.empty((2 * m, n_v))
    for i in range(m):
        rays[2 * i] = problem.jn[i] + problem.mu[i] * problem.jd[2 * i]
        rays[2 * i + 1] = problem.jn[i] + problem.mu[i] * problem.jd[2 * i + 1]
    gmat = problem.mass_solve(rays.T).T  # (2m, n_v): rows are M^-1 F

    size = 2 * n_v + 2 * m
    lcp_m = np.zeros((size, size))
    lcp_m[: n_v, 2 * n_v :] = -gmat.T
    lcp_m[n_v : 2 * n_v, 2 * n_v :] = gmat.T
    lcp_m[2 * n_v :, :n_v] = gmat
    lcp_m[2 * n_v :, n_v : 2 * n_v] = -gmat
    lcp_q = np.concatenate([np.ones(2 * n_v), -np.ones(2 * m)])

    sol = lemke_solve(LcpInstance(lcp_m, lcp_q))
    if sol.status != "solved":
        raise NonDegeneracyViolation(
            "no impulse-progress certificate exists: the extreme impulse rays "
            "admit a jamming combination"
        )
    r = sol.z[:n_v] - sol.z[n_v : 2 * n_v]
    worst = float((gmat @ r).min())
    if worst < 1.0 - CERT_SLACK:
        raise NonDegeneracyViolation(
            f"certificate failed verification: min ray progress {worst:.6f} < 1"
        )
    return r


def termination_constant(
    problem: ImpactProblem,
    h: float,
    r: np.ndarray | None = None,
) -> tuple[int, Callable[[float], float]]:
    """Step-count tail bound: the integer constant ``c`` and the tail
    probability function.

    With certificate ``r``, contact count ``m`` and the smallest mass
    eigenvalue ``sigma``, ``c = 4 * ceil((m+1) |r|_2 / (h sqrt(sigma)))``,
    and the chance a trajectory runs more than ``k`` steps past the
    energy-determined prefix ``c * ceil(|v0|_M)`` is at most the returned
    ``tail(k)``.
    """
    if h <= 0.0:
        raise ValueError("per-step impulse budget h must be positive")
    if r is None:
        r = compute_r(problem)
    m = problem.n_contacts
    sigma = float(np.linalg.eigvalsh(problem.mass)[0])
    ratio = (m + 1) * float(np.linalg.norm(r)) / (h * math.sqrt(sigma))
    return 4 * math.ceil(ratio), functools.partial(tail_bound, problem)


def tail_bound(problem: ImpactProblem, k: float) -> float:
    """Geometric tail factor ``exp(-k / (m+1)^2)`` for ``k`` steps beyond
    the energy-determined prefix."""
    m = problem.n_contacts
    return math.exp(-k / (m + 1) ** 2)
