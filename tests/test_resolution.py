"""Tests for capped stepping, baselines, and progress certificates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from multimpact import (
    ImpactProblem,
    NonDegeneracyViolation,
    SequentialCapExceeded,
    UniformSampler,
    anitescu_resolve,
    assemble_impact_lcp,
    baselines,
    build_ball,
    build_example,
    build_problem,
    compute_r,
    in_linear_cone,
    is_impacting,
    kinetic_energy,
    lemke_solve,
    load_scene,
    mass_norm,
    reflect_map,
    restrict_contacts,
    sequential_resolve,
    sim,
    sim_step,
    tail_bound,
    termination_constant,
)

ALL_SCENES = ("phone", "compass", "box_wall", "disk_stack")


def test_ball_step_assembly_frozen():
    ball, v0, _ = build_ball()
    lcp, layout = assemble_impact_lcp(ball, v0, np.array([2.0]))
    assert layout.size == 5 and lcp.n == 5
    np.testing.assert_array_equal(lcp.q, [2.0, -1.0, 0.0, 0.0, 0.0])
    sol = lemke_solve(lcp)
    assert sol.status == "solved"
    np.testing.assert_allclose(sol.z, [0.0, 1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_ball_step_stops_exactly_at_rest():
    ball, v0, _ = build_ball()
    v1, record = sim_step(ball, v0, np.array([2.0]))
    np.testing.assert_allclose(v1, [0.0], atol=1e-14)
    np.testing.assert_allclose(record.lambda_n, [1.0], atol=1e-14)
    assert record.energy_after <= record.energy_before


def test_ball_capped_step_is_metered():
    ball, v0, _ = build_ball()
    v1, record = sim_step(ball, v0, np.array([0.25]))
    np.testing.assert_allclose(v1, [-0.75], atol=1e-14)
    np.testing.assert_allclose(record.lambda_n, [0.25], atol=1e-14)


def test_step_fast_paths_leave_velocity_untouched():
    ball, _, _ = build_ball()
    separating = np.array([0.5])
    v1, record = sim_step(ball, separating, np.array([1.0]))
    np.testing.assert_array_equal(v1, separating)
    np.testing.assert_array_equal(record.lambda_n, [0.0])
    v2, record2 = sim_step(ball, np.array([-1.0]), np.array([0.0]))
    np.testing.assert_array_equal(v2, [-1.0])
    np.testing.assert_array_equal(record2.lambda_n, [0.0])


def test_assembly_rejects_bad_caps():
    ball, v0, _ = build_ball()
    with pytest.raises(ValueError):
        assemble_impact_lcp(ball, v0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        assemble_impact_lcp(ball, v0, np.array([-0.1]))
    with pytest.raises(ValueError):
        assemble_impact_lcp(ball, v0, np.array([np.inf]))


@pytest.mark.parametrize("name", ALL_SCENES)
def test_random_steps_dissipate_and_stay_in_cone(name, rng):
    problem, v0, meta = build_example(name)
    v = v0.copy()
    for _ in range(40):
        if not is_impacting(problem, v):
            v = v0 + 0.3 * float(np.linalg.norm(v0)) * rng.standard_normal(problem.n_v)
            continue
        caps = meta["h"] * rng.random(problem.n_contacts)
        v_next, record = sim_step(problem, v, caps)
        assert mass_norm(problem, v_next) <= mass_norm(problem, v) * (1.0 + 1e-9)
        assert np.all(record.lambda_n >= -1e-12)
        assert np.all(record.lambda_n <= caps + 1e-9)
        assert in_linear_cone(problem, v_next, record.lambda_n, record.beta)
        v = v_next


def test_sim_terminates_and_records_consistently():
    problem, v0, meta = build_example("phone")
    traj = sim(problem, v0, h=meta["h"], n_max=50, sampler=UniformSampler(seed=3))
    assert traj.terminated
    assert not is_impacting(problem, traj.v_final)
    assert traj.n_steps == len(traj.steps) > 0
    np.testing.assert_array_equal(traj.steps[0].v_before, v0)
    for before, after in zip(traj.steps, traj.steps[1:]):
        np.testing.assert_array_equal(before.v_after, after.v_before)
    np.testing.assert_array_equal(traj.steps[-1].v_after, traj.v_final)
    energies = [s.energy_before for s in traj.steps] + [traj.steps[-1].energy_after]
    assert all(b >= a - 1e-12 for b, a in zip(energies, energies[1:]))
    assert energies[0] == pytest.approx(kinetic_energy(problem, v0))


def test_sim_rejects_bad_budgets():
    problem, v0, _ = build_example("phone")
    with pytest.raises(ValueError):
        sim(problem, v0, h=0.0, n_max=5, sampler=UniformSampler())
    with pytest.raises(ValueError):
        sim(problem, v0, h=1.0, n_max=-1, sampler=UniformSampler())


def test_anitescu_pins_symmetric_scenes():
    for name in ("phone", "box_wall"):
        problem, v0, _ = build_example(name)
        v_plus = anitescu_resolve(problem, v0)
        assert float(np.abs(v_plus).max()) <= 1e-8


def test_anitescu_matches_unbounded_capped_step():
    for name in ALL_SCENES:
        problem, v0, _ = build_example(name)
        huge = 1e4 * np.ones(problem.n_contacts)
        v_capped, _ = sim_step(problem, v0, huge)
        np.testing.assert_allclose(
            v_capped, anitescu_resolve(problem, v0), atol=1e-9, err_msg=name
        )


def test_sequential_accepts_labels_and_indices():
    problem, v0, _ = build_example("phone")
    by_label = sequential_resolve(problem, v0, order=["A"])
    by_index = sequential_resolve(problem, v0, order=[0])
    np.testing.assert_array_equal(by_label.v_final, by_index.v_final)
    assert by_label.terminated


def test_sequential_orders_mirror_on_the_phone():
    problem, v0, _ = build_example("phone")
    r = reflect_map("phone")
    v_a = sequential_resolve(problem, v0, order=["A"]).v_final
    v_b = sequential_resolve(problem, v0, order=["B"]).v_final
    np.testing.assert_allclose(v_a, r @ v_b, atol=1e-12)
    # Each order launches exactly the corner it resolved first.
    for v_plus, lifted in ((v_a, 0), (v_b, 1)):
        rates = problem.jn @ v_plus
        assert (rates > 1e-6).sum() == 1
        assert rates[lifted] > 1e-6


@pytest.mark.parametrize("name", ("ball",) + ALL_SCENES)
def test_baselines_match_the_hand_built_rows(name):
    problem, v0, _ = build_example(name)
    expected = [("anitescu", "", anitescu_resolve(problem, v0))]
    for label in problem.labels:
        expected.append(("sequential", label, sequential_resolve(problem, v0, [label]).v_final))
    rows = baselines(problem, v0)
    assert [row[:2] for row in rows] == [row[:2] for row in expected]
    for (_, _, v), (_, _, want) in zip(rows, expected):
        np.testing.assert_array_equal(v.view(np.uint64), want.view(np.uint64))


# Perturbed ``disk_stack`` poses and velocities: pose jittered by
# 0.01 N(0, 1) per coordinate, velocity by 0.2 |v0| / 3 N(0, 1).
PERTURBED_DISK_STACKS = {
    "seed57-round4-case4": (
        [-1.0042059778568249, 1.0082425014369965, 0.0014477897017728986, 0.9908121794980789,
         0.9957454829443979, -0.008092687469778842, 0.004180931486001768, 2.7417811876692832,
         0.003974303506194804],
        [-0.17378465473714386, -0.08051864748146563, -0.04150989887624957, -0.0834819759285369,
         0.04146171526580176, 0.0793383971843226, 0.05810739678019549, -1.0278255260506737,
         0.049647908390341604],
    ),
    "seed77-round7-case9": (
        [-0.9954976445681728, 1.0131932719638492, -0.0015008203327597281, 0.9847814636250003,
         0.9962149532895169, 0.0008713185112832728, 0.009254998934433415, 2.7169376814433703,
         -0.001910518215728869],
        [-0.19852001453442886, 0.13141991154224858, -0.020710783682950075, -0.07560601231062353,
         -0.010787357232876668, 0.0015643620560324176, 0.05303523915575, -1.0041688872994186,
         0.07685920499549051],
    ),
}


@pytest.mark.parametrize("case", sorted(PERTURBED_DISK_STACKS))
def test_baselines_solve_perturbed_disk_stacks(case):
    pose, v = (np.array(x) for x in PERTURBED_DISK_STACKS[case])
    problem, _, _ = build_problem(load_scene("disk_stack"), pose)
    rows = baselines(problem, v)
    assert [row[:2] for row in rows] == [("anitescu", "")] + [
        ("sequential", label) for label in problem.labels
    ]
    energy = kinetic_energy(problem, v)
    for _, _, v_plus in rows:
        assert not is_impacting(problem, v_plus)
        assert kinetic_energy(problem, v_plus) <= energy * (1.0 + 1e-9)


def test_sequential_resolution_cap_triggers():
    problem, v0, _ = build_example("phone")
    with pytest.raises(SequentialCapExceeded):
        sequential_resolve(problem, v0, order=["A"], cap=1)


def test_restrict_contacts_slices_consistently():
    problem, _, _ = build_example("disk_stack")
    sub = restrict_contacts(problem, [2, 4])
    assert sub.labels == (problem.labels[2], problem.labels[4])
    np.testing.assert_array_equal(sub.jn, problem.jn[[2, 4]])
    np.testing.assert_array_equal(sub.jd, problem.jd[[4, 5, 8, 9]])
    np.testing.assert_array_equal(sub.mu, problem.mu[[2, 4]])
    np.testing.assert_array_equal(sub.mass, problem.mass)


def test_certificate_on_the_ball_is_unit():
    ball, _, _ = build_ball()
    np.testing.assert_allclose(compute_r(ball), [1.0], atol=1e-12)
    c, tail = termination_constant(ball, 1.0)
    assert c == 8
    assert tail(4.0) == pytest.approx(math.exp(-1.0))
    assert tail_bound(ball, 4.0) == tail(4.0)


def test_certificate_exists_for_all_bundled_scenes():
    expected_c = {"phone": 344, "compass": 260, "box_wall": 24, "disk_stack": 100}
    for name in ALL_SCENES:
        problem, v0, meta = build_example(name)
        r = compute_r(problem)
        assert r.shape == (problem.n_v,)
        # Every extreme impulse ray makes at least unit progress along r.
        for i in range(problem.n_contacts):
            for row in (2 * i, 2 * i + 1):
                ray = problem.jn[i] + problem.mu[i] * problem.jd[row]
                assert float(r @ problem.mass_solve(ray)) >= 1.0 - 1e-7
        assert termination_constant(problem, meta["h"], r=r)[0] == expected_c[name]


def test_termination_constant_validates_budget():
    ball, _, _ = build_ball()
    with pytest.raises(ValueError):
        termination_constant(ball, 0.0)


def test_opposing_contacts_jam():
    # Two opposing frictionless contacts: any impulse pair cancels, so no
    # progress direction exists and the certificate must refuse.
    jam = ImpactProblem(
        mass=np.array([[1.0]]),
        jn=np.array([[1.0], [-1.0]]),
        jd=np.zeros((4, 1)),
        mu=np.array([1.0, 1.0]),
    )
    with pytest.raises(NonDegeneracyViolation):
        compute_r(jam)


def test_pinched_disk_jams_with_friction():
    # A disk squeezed between opposing walls with friction: the four extreme
    # rays sum to zero, certifying a jamming impulse combination.
    jam = ImpactProblem(
        mass=np.diag([1.0, 1.0, 0.5]),
        jn=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        jd=np.array(
            [
                [0.0, 1.0, -1.0],
                [0.0, -1.0, 1.0],
                [0.0, -1.0, -1.0],
                [0.0, 1.0, 1.0],
            ]
        ),
        mu=np.array([1.0, 1.0]),
    )
    with pytest.raises(NonDegeneracyViolation):
        compute_r(jam)
