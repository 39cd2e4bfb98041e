"""Tests for the independent reference computations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from multimpact import (
    ImpactProblem,
    LcpInstance,
    NonDegeneracyViolation,
    UniformSampler,
    brute_force_lcp,
    build_ball,
    build_example,
    lemke_solve,
    restrict_contacts,
    routh_dense_reference,
    sim,
)
from multimpact.oracles import MAX_GRID_ROWS, DenseTrajectory
from conftest import random_single_contact


def test_brute_force_finds_the_unique_solution():
    lcp = LcpInstance(np.eye(2), np.array([-1.0, -2.0]))
    solutions = brute_force_lcp(lcp)
    assert len(solutions) == 1
    np.testing.assert_allclose(solutions[0], [1.0, 2.0], atol=1e-12)


def test_brute_force_enumerates_multiple_solutions():
    # Indefinite but copositive: three isolated solutions coexist.
    lcp = LcpInstance(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([-1.0, -1.0]))
    solutions = brute_force_lcp(lcp)
    found = {tuple(np.round(z, 9)) for z in solutions}
    assert (1.0, 0.0) in found
    assert (0.0, 1.0) in found
    assert any(abs(a - 1.0 / 3.0) < 1e-9 and abs(b - 1.0 / 3.0) < 1e-9 for a, b in found)
    assert len(solutions) == 3


def test_brute_force_rejects_oversized_instances():
    with pytest.raises(ValueError):
        brute_force_lcp(LcpInstance(np.eye(15), np.zeros(15)))


def test_brute_force_agrees_with_pivoting_on_random_instances(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        root = rng.standard_normal((n, n))
        lcp = LcpInstance(root @ root.T + n * np.eye(n), rng.standard_normal(n) * 2)
        sol = lemke_solve(lcp)
        assert sol.status == "solved"
        candidates = brute_force_lcp(lcp)
        assert candidates, "positive definite instances always have a solution"
        assert min(np.abs(sol.z - z).max() for z in candidates) <= 1e-8


def test_dense_reference_ends_a_frictionless_impact_in_closed_form():
    # The ball's contact has no tangent, so it sticks from the start and
    # its normal approach speed is removed exactly.
    ball, v0, _ = build_ball()
    np.testing.assert_allclose(routh_dense_reference(ball, v0, ds=1e-3).v_final,
                               [0.0], atol=1e-15)
    separating = routh_dense_reference(ball, np.array([0.7]), ds=1e-3)
    assert len(separating.s_grid) == 1 and separating.modes == []
    np.testing.assert_array_equal(separating.v_final, [0.7])


def test_dense_reference_on_the_ball_reaches_rest():
    ball, v0, _ = build_ball()
    dense = routh_dense_reference(ball, v0, ds=1e-4)
    np.testing.assert_allclose(dense.v_final, [0.0], atol=1e-10)
    assert dense.s_grid[-1] == pytest.approx(1.0, abs=1e-8)
    assert set(dense.modes) <= {"stick", "slide+", "slide-"}


def test_dense_reference_validates_inputs():
    ball, v0, _ = build_ball()
    for ds in (0.0, math.nan):
        with pytest.raises(ValueError, match="ds must be positive"):
            routh_dense_reference(ball, v0, ds=ds)
    two, _ = _two_contact_problem()
    with pytest.raises(ValueError):
        routh_dense_reference(two, np.zeros(two.n_v), ds=1e-3)
    with pytest.raises(ValueError, match="rows"):
        routh_dense_reference(ball, v0, ds=1.0 / MAX_GRID_ROWS)  # one row too many
    assert len(routh_dense_reference(ball, v0, ds=1.0).s_grid) == 2


def test_dense_reference_rejects_jamming_geometry():
    # Friction that outweighs the normal along the same direction: the two
    # extreme impulse rays cancel, so no impulse-progress certificate exists.
    jam = ImpactProblem(
        mass=np.eye(1), jn=np.array([[1.0]]), jt=np.array([[1.0]]),
        mu=np.array([2.0]),
    )
    with pytest.raises(NonDegeneracyViolation):
        routh_dense_reference(jam, np.array([-1.0]), ds=1e-3)


def _two_contact_problem():
    problem = ImpactProblem(
        mass=np.eye(2),
        jn=np.array([[0.0, 1.0], [0.0, 1.0]]),
        jt=np.array([[1.0, 0.0], [1.0, 0.0]]),
        mu=np.array([1.0, 1.0]),
    )
    return problem, np.array([0.0, -1.0])


def _slip_reversal_problem():
    """Criterion 8's glancing corner impact, whose slip reverses."""
    problem = ImpactProblem(
        mass=np.diag([1.0, 1.0, 0.1]),
        jn=np.array([[0.0, 1.0, 1.0]]),
        jt=np.array([[-1.0, 0.0, -0.5]]),
        mu=np.array([1.0]),
    )
    return problem, np.array([-0.1, -1.0, 0.0])


def test_slip_reversal_problem_modes_are_frozen():
    problem, v0 = _slip_reversal_problem()
    dense = routh_dense_reference(problem, v0, ds=1e-5)
    # The slip starts positive, dies, and restarts in the other direction
    # because holding stick would need more friction than the cone allows.
    assert dense.modes[0] == "slide+"
    assert dense.modes[-1] == "slide-"
    assert float(problem.jn[0] @ dense.v_final) == pytest.approx(0.0, abs=1e-6)


def test_capped_stepping_is_exact_without_slip_reversal(rng):
    # With stick feasible, a single contact's step map retraces the dense
    # path exactly no matter how the impulse budget is split, because each
    # step's complementarity resolves the slide-to-stick transition
    # internally.  This pins the scheme against an independent integrator.
    checked = 0
    while checked < 6:
        problem, v = random_single_contact(rng)
        jn, jt = problem.jn[0], problem.jt[0]
        minv_jn = problem.mass_solve(jn)
        minv_jt = problem.mass_solve(jt)
        a_tt = float(jt @ minv_jt)
        if a_tt <= 1e-9:
            continue
        eta = -float(jt @ minv_jn) / a_tt
        # Enlarge the cone until holding stick is always admissible.
        problem = ImpactProblem(
            mass=problem.mass, jn=problem.jn, jt=problem.jt,
            mu=np.array([abs(eta) + 0.5]),
        )
        dense = routh_dense_reference(problem, v, ds=1e-5)
        traj = sim(problem, v, h=0.4 * float(np.linalg.norm(v)), n_max=500,
                   sampler=UniformSampler(seed=checked))
        assert traj.terminated
        np.testing.assert_allclose(traj.v_final, dense.v_final, atol=2e-5)
        checked += 1


def _stepped_reference(problem: ImpactProblem, v0: np.ndarray, ds: float) -> DenseTrajectory:
    """The path stepped by ``ds`` with explicit Euler, each step cut at a
    zero of the slip or approach rate; zero slip is a band of
    ``ds * 1e-6 * |v0|``.  An independent check of the closed form."""
    v = np.asarray(v0, dtype=float).copy()
    jn, jt, mu = problem.jn[0], problem.jt[0], float(problem.mu[0])
    minv_jn, minv_jt = problem.mass_solve(jn), problem.mass_solve(jt)
    a_tn, a_tt = float(jt @ minv_jn), float(jt @ minv_jt)
    band = ds * 1e-6 * float(np.linalg.norm(v0))
    eta = -a_tn / a_tt if a_tt > 0.0 else 0.0
    stick_feasible = a_tt <= 0.0 or abs(eta) <= mu
    stick_accel = minv_jn + eta * minv_jt

    def slide_accel(direction: float) -> np.ndarray:
        return minv_jn - mu * direction * minv_jt

    s_values, v_values, modes = [0.0], [v.copy()], []
    sticking, s = False, 0.0
    for _ in range(10**6):
        rate_n = float(jn @ v)
        if rate_n >= 0.0:
            break
        slip = float(jt @ v)
        if sticking or (abs(slip) <= band and stick_feasible):
            sticking, accel, mode = True, stick_accel, "stick"
        else:
            if abs(slip) <= band:  # restart the way the slip's own rate goes
                direction = 1.0 if float(jt @ slide_accel(1.0)) > 0.0 else -1.0
            else:
                direction = math.copysign(1.0, slip)
            accel = slide_accel(direction)
            mode = "slide+" if direction > 0 else "slide-"
        step = ds
        dn = float(jn @ accel)
        if dn > 0.0 and rate_n + step * dn >= 0.0:
            step = -rate_n / dn
        elif not sticking and abs(slip) > band:
            dt = float(jt @ accel)
            if dt != 0.0 and (slip + step * dt) * slip < 0.0:
                step = -slip / dt
        v = v + step * accel
        s += step
        s_values.append(s)
        v_values.append(v.copy())
        modes.append(mode)
        if step < ds and float(jn @ v) >= -1e-15 * (1.0 + float(np.linalg.norm(v))):
            break
    else:
        raise AssertionError("stepped reference did not end")
    return DenseTrajectory(np.array(s_values), np.array(v_values), modes)


def _bundled_contacts():
    for name in ("ball", "phone", "compass", "box_wall", "disk_stack"):
        problem, v0, _ = build_example(name)
        for i in range(problem.n_contacts):
            yield f"{name}:{problem.labels[i]}", restrict_contacts(problem, [i]), v0


def test_closed_form_path_matches_the_stepped_integrator(rng):
    cases = list(_bundled_contacts())
    reversal, v0 = _slip_reversal_problem()
    cases.append(("slip reversal", reversal, v0))
    # From zero slip, where holding it would need more friction than mu.
    cases.append(("zero slip, stick infeasible", reversal, np.array([0.0, -1.0, 0.0])))
    stick = {True: 0, False: 0}
    while min(stick.values()) < 8:
        problem, v = random_single_contact(rng)
        jn, jt = problem.jn[0], problem.jt[0]
        eta = -float(jt @ problem.mass_solve(jn)) / float(jt @ problem.mass_solve(jt))
        feasible = abs(eta) <= float(problem.mu[0])
        if stick[feasible] < 8:
            stick[feasible] += 1
            cases.append((f"random, stick {'feasible' if feasible else 'infeasible'}",
                          problem, v))
    assert len(cases) == 12 + 2 + 16
    patterns = set()
    for label, problem, v0 in cases:
        exact = routh_dense_reference(problem, v0, ds=1e-3)
        stepped = _stepped_reference(problem, v0, ds=1e-3)
        assert exact.modes == stepped.modes, label
        tol = 1e-12 * (1.0 + float(np.linalg.norm(v0)))
        np.testing.assert_allclose(exact.s_grid, stepped.s_grid, rtol=0, atol=tol,
                                   err_msg=label)
        np.testing.assert_allclose(exact.v_grid, stepped.v_grid, rtol=0, atol=tol,
                                   err_msg=label)
        patterns.add(tuple(dict.fromkeys(exact.modes)))
    assert {(), ("stick",), ("slide-",), ("slide+", "stick"), ("slide-", "stick"),
            ("slide+", "slide-"), ("slide-", "slide+")} <= patterns
