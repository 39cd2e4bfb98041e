"""Checks on the program's outputs, computed apart from the program.

Nothing here calls into ``multimpact``: the step LCP, the inverse-mass
impulse map, the extreme impulse rays and the energy are rebuilt from the
raw problem arrays (``mass``, ``jn``, ``jd``, ``mu``) with plain numpy.
Each check returns a list of human-readable faults; an empty list means
the output passed.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance of every check.  The program certifies its own LCP
# solutions at 1e-9; the checker rebuilds the Delassus matrix with a
# different factorization, so it allows a little more round-off.
TOL = 1e-7


def _arrays(problem):
    return (
        np.asarray(problem.mass, dtype=float),
        np.asarray(problem.jn, dtype=float),
        np.asarray(problem.jd, dtype=float),
        np.asarray(problem.mu, dtype=float),
    )


def energy(mass: np.ndarray, v: np.ndarray) -> float:
    return 0.5 * float(v @ mass @ v)


def step_lcp(mass, jn, jd, mu, v, lambda_max):
    """The capped step LCP ``w = A z + q`` at velocity ``v``.

    Variables ``z = [gamma_f; lambda_n; beta; gamma_v]`` are the budget
    slacks, normal impulses, doubled friction impulses and slip speeds.
    Their complements are the unused cap ``lambda_max - lambda_n``, the
    post-step separation rate plus the budget slack, the post-step
    tangential rate plus the slip speed, and the friction-cone budget
    ``mu lambda_n - sum beta``.
    """
    m = jn.shape[0]
    jbar = np.vstack([jn, jd])
    delassus = jbar @ np.linalg.solve(mass, jbar.T)
    pair = np.kron(np.eye(m), np.ones((2, 1)))  # (2m, m): beta pair -> contact
    eye = np.eye(m)
    zero = np.zeros
    a = np.block(
        [
            [zero((m, m)), -eye, zero((m, 2 * m)), zero((m, m))],
            [eye, delassus[:m, :m], delassus[:m, m:], zero((m, m))],
            [zero((2 * m, m)), delassus[m:, :m], delassus[m:, m:], pair],
            [zero((m, m)), np.diag(mu), -pair.T, zero((m, m))],
        ]
    )
    q = np.concatenate([lambda_max, jn @ v, jd @ v, np.zeros(m)])
    return a, q


def check_step(problem, step, where: str = "step") -> list[str]:
    """Audit one :class:`StepRecord` of a capped trajectory."""
    mass, jn, jd, mu = _arrays(problem)
    m = jn.shape[0]
    lam = np.asarray(step.lambda_n, dtype=float)
    beta = np.asarray(step.beta, dtype=float)
    cap = np.asarray(step.lambda_max, dtype=float)
    v0 = np.asarray(step.v_before, dtype=float)
    v1 = np.asarray(step.v_after, dtype=float)
    faults = []
    scale = 1.0 + np.abs(v0).max() + np.abs(cap).max() + np.abs(lam).max(initial=0.0)
    tol = TOL * scale

    # The slacks are not recorded; each is the least value its row allows.
    gamma_f = np.maximum(0.0, -(jn @ v1))
    gamma_v = np.maximum(0.0, -(jd @ v1).reshape(m, 2).min(axis=1))
    z = np.concatenate([gamma_f, lam, beta, gamma_v])
    a, q = step_lcp(mass, jn, jd, mu, v0, cap)
    w = a @ z + q
    if z.min() < -tol:
        faults.append(f"{where}: negative LCP variable {z.min():.3e}")
    if w.min() < -tol:
        faults.append(f"{where}: negative LCP slack {w.min():.3e}")
    if abs(float(z @ w)) > tol * (1.0 + np.linalg.norm(z) * np.linalg.norm(w)):
        faults.append(f"{where}: complementarity gap {float(z @ w):.3e}")
    if np.any(lam > cap + tol):
        faults.append(f"{where}: normal impulse above its cap")
    if np.any(mu * lam - beta.reshape(m, 2).sum(axis=1) < -tol):
        faults.append(f"{where}: friction impulse outside the cone")
    expected = v0 + np.linalg.solve(mass, np.vstack([jn, jd]).T @ np.concatenate([lam, beta]))
    if np.abs(v1 - expected).max() > tol:
        faults.append(f"{where}: v_after does not follow from the impulses")
    e0, e1 = energy(mass, v0), energy(mass, v1)
    if e1 > e0 + TOL * (1.0 + e0):
        faults.append(f"{where}: energy rose from {e0!r} to {e1!r}")
    return faults


def check_trajectory(problem, traj, where: str = "trajectory") -> list[str]:
    """Audit every step record and the chaining of a capped trajectory."""
    faults = []
    v = np.asarray(traj.v0, dtype=float)
    for k, step in enumerate(traj.steps):
        if not np.array_equal(step.v_before, v):
            faults.append(f"{where} step {k}: v_before is not the previous v_after")
        faults += check_step(problem, step, f"{where} step {k}")
        v = np.asarray(step.v_after, dtype=float)
    if not np.array_equal(v, traj.v_final):
        faults.append(f"{where}: v_final is not the last v_after")
    return faults


def approaching(problem, v: np.ndarray) -> bool:
    """Some contact closes faster than the relative round-off floor."""
    jn = np.asarray(problem.jn, dtype=float)
    return bool((jn @ v).min() < -TOL * (1.0 + np.linalg.norm(v)))


def check_outcomes(problem, v_in: np.ndarray, outcomes: np.ndarray, what: str) -> list[str]:
    """Every outcome row is non-impacting and has no more energy than ``v_in``."""
    mass = np.asarray(problem.mass, dtype=float)
    e_in = energy(mass, v_in)
    outcomes = np.atleast_2d(outcomes)
    faults = []
    rates = outcomes @ np.asarray(problem.jn, dtype=float).T
    floor = -TOL * (1.0 + np.linalg.norm(outcomes, axis=1))
    bad = np.flatnonzero(rates.min(axis=1) < floor)
    if bad.size:
        faults.append(f"{what}: {bad.size} outcomes still approach a contact")
    e_out = 0.5 * np.einsum("ij,jk,ik->i", outcomes, mass, outcomes)
    bad = np.flatnonzero(e_out > e_in + TOL * (1.0 + e_in))
    if bad.size:
        faults.append(f"{what}: {bad.size} outcomes gained energy")
    return faults


def nearest_mass_distance(mass: np.ndarray, samples: np.ndarray, v: np.ndarray) -> float:
    """Smallest kinetic-metric distance from ``v`` to a sample row."""
    d = samples - v
    return float(np.sqrt(np.einsum("ij,jk,ik->i", d, mass, d).min()))


def check_coverage(problem, v0, samples, baselines, radius_share: float = 0.1) -> tuple[list[str], float]:
    """Each baseline outcome lies within ``radius_share * |v0|_M`` of a
    sample.  Returns the faults and the worst distance as a share of
    ``|v0|_M``."""
    mass = np.asarray(problem.mass, dtype=float)
    norm_v0 = np.sqrt(2.0 * energy(mass, v0))
    worst = 0.0
    faults = []
    for label, v in baselines:
        share = nearest_mass_distance(mass, samples, v) / norm_v0
        worst = max(worst, share)
        if share > radius_share:
            faults.append(f"baseline {label} is {share:.3f} |v0|_M from every sample")
    return faults, worst


def check_certificate(problem, r: np.ndarray) -> list[str]:
    """``(M^-1 F) . r >= 1`` on every extreme impulse ray ``F``: the normal
    row plus ``mu`` times either tangent row of each contact."""
    mass, jn, jd, mu = _arrays(problem)
    rays = np.repeat(jn, 2, axis=0) + np.repeat(mu, 2)[:, None] * jd
    progress = np.linalg.solve(mass, rays.T).T @ r
    if progress.min() < 1.0 - TOL:
        return [f"certificate r gives ray progress {progress.min():.6f} < 1"]
    return []
