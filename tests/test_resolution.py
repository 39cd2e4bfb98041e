"""Tests for capped stepping, baselines, and progress certificates."""

from __future__ import annotations

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from multimpact import contact, resolution
from multimpact import (
    ConeViolationError,
    ImpactProblem,
    NonDegeneracyViolation,
    SequentialCapExceeded,
    SobolSampler,
    UniformSampler,
    anitescu_resolve,
    approximate,
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

from conftest import kernel_paths

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


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_sim_rejects_a_non_finite_budget(h):
    # A NaN budget would pass ``h <= 0`` and step with NaN caps.
    problem, v0, _ = build_example("phone")
    with pytest.raises(ValueError, match="h must be positive and finite"):
        sim(problem, v0, h=h, n_max=10, sampler=UniformSampler())


@pytest.mark.parametrize("bad", [-1.0, [-1.0, 0.0], [[0.0, 0.0, -1.0]]], ids=["scalar", "short", "stack"])
def test_sim_and_approximate_reject_a_start_that_is_not_one_velocity(bad):
    # A scalar once broadcast to every coordinate, silently.
    problem, _, meta = build_example("phone")
    h = float(meta["h"])
    with pytest.raises(ValueError, match=r"start velocity must have shape \(3,\)"):
        sim(problem, bad, h=h, n_max=5, sampler=UniformSampler())
    with pytest.raises(ValueError, match=r"start velocity must have shape \(3,\)"):
        approximate(problem, bad, h, h / 10.0, 5, 4, UniformSampler(), jobs=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sim_and_approximate_reject_a_non_finite_start(bad):
    problem, v0, meta = build_example("phone")
    h = float(meta["h"])
    v0 = v0.copy()
    v0[0] = bad
    with pytest.raises(ValueError, match="start velocity must be finite"):
        sim(problem, v0, h=h, n_max=5, sampler=UniformSampler())
    with pytest.raises(ValueError, match="start velocity must be finite"):
        approximate(problem, v0, h, h / 10.0, 5, 4, UniformSampler(), jobs=1)


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
    by_numpy_index = sequential_resolve(problem, v0, order=[np.int64(0)])
    np.testing.assert_array_equal(by_label.v_final, by_numpy_index.v_final)
    assert by_label.terminated


@pytest.mark.parametrize("entry", [0.7, 1.0, True, False, np.bool_(True), None, b"A"])
def test_sequential_rejects_order_entries_that_are_not_labels_or_indices(entry):
    problem, v0, _ = build_example("phone")
    with pytest.raises(ValueError, match=f"entry {re.escape(repr(entry))} is neither"):
        sequential_resolve(problem, v0, [entry])


def test_sequential_rejects_an_unknown_label():
    problem, v0, _ = build_example("phone")
    with pytest.raises(ValueError, match=r"no contact labeled 'nope'; labels: A, B"):
        sequential_resolve(problem, v0, ["nope"])


@pytest.mark.parametrize("order", [["A", "A"], ["A", 0], [1, "B"]])
def test_sequential_rejects_an_order_that_repeats_a_contact(order):
    problem, v0, _ = build_example("phone")
    with pytest.raises(ValueError, match="must not repeat contacts"):
        sequential_resolve(problem, v0, order)


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


def _reference_sweep(problem, v, first, cap=100):
    """``sequential_resolve(problem, v, [first]).steps`` by a loop of its
    own on the one-contact problems of ``restrict_contacts``, each energy
    evaluated twice, once after its resolution and once before the next."""
    v = np.asarray(v, dtype=float).copy()
    m = problem.n_contacts
    cycle = [first] + [i for i in range(m) if i != first]
    singles = [restrict_contacts(problem, [i]) for i in range(m)]
    steps = []
    resolutions = position = idle_sweeps = 0
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
            raise SequentialCapExceeded("cap")
        energy_before = kinetic_energy(problem, v)
        v_after, lam_single, beta_single = resolution._uncapped_resolve(single, v)
        assert in_linear_cone(single, v_after, lam_single, beta_single)
        lambda_n = np.zeros(m)
        lambda_n[idx] = lam_single[0]
        beta = np.zeros(2 * m)
        beta[2 * idx : 2 * idx + 2] = beta_single
        steps.append(
            (lambda_n, beta, v.copy(), v_after.copy(), energy_before,
             kinetic_energy(problem, v_after))
        )
        v = v_after
    return steps


def _record_bytes(steps):
    """Each record's ``lambda_n``, ``beta``, ``v_before``, ``v_after`` and
    both energies as bytes."""
    return [b"|".join(np.asarray(x, dtype=float).tobytes() for x in step) for step in steps]


def _sweep_outcomes(problem, v):
    """Per first contact, the bytes of ``sequential_resolve``'s records
    and of the reference loop's, or ``"cap"`` for each that exceeds its cap."""
    ours, reference = [], []
    for first in range(problem.n_contacts):
        try:
            traj = sequential_resolve(problem, v, [first])
            ours.append(_record_bytes(
                (s.lambda_n, s.beta, s.v_before, s.v_after, s.energy_before, s.energy_after)
                for s in traj.steps
            ))
        except SequentialCapExceeded:
            ours.append("cap")
        try:
            reference.append(_record_bytes(_reference_sweep(problem, v, first)))
        except SequentialCapExceeded:
            reference.append("cap")
    return ours, reference


BASELINE_SCENES = ("ball", "phone", "compass", "box_wall", "disk_stack")


def _perturbed_cases(seed, round_):
    """The ten cases ``(name, problem, pose, v)`` of a round of perturbed
    problems: ``perfbench/workloads.py``'s ``baseline_cases(seed, round_,
    2)`` with the ``disk_stack`` jitter kept."""
    rng = np.random.default_rng([seed, 2, round_])
    cases = []
    for _ in range(2):
        for name in BASELINE_SCENES:
            if name == "ball":
                problem, v0, _ = build_ball()
                pose = None
            else:
                scene = load_scene(name)
                pose = scene.initial_pose() + 0.01 * rng.standard_normal(scene.n_v)
                v0 = scene.v0
            v = v0 + 0.2 * np.linalg.norm(v0) / np.sqrt(v0.size) * rng.standard_normal(v0.size)
            if pose is not None:
                problem = build_problem(scene, pose)[0]
            cases.append((name, problem, pose, v))
    return cases


@pytest.mark.parametrize("name", BASELINE_SCENES)
def test_sweeps_keep_their_bits_on_the_bundled_scenes(name):
    problem, v0, _ = build_example(name)
    ours, reference = _sweep_outcomes(problem, v0)
    assert "cap" not in reference
    assert ours == reference


@pytest.mark.parametrize("seed, round_", [(701, 0), (702, 3), (57, 4), (77, 7), (75, 4)])
def test_sweeps_keep_their_bits_on_perturbed_problems(seed, round_):
    cases = _perturbed_cases(seed, round_)
    for pinned, (pose, v) in PERTURBED_DISK_STACKS.items():
        if pinned.startswith(f"seed{seed}-round{round_}-"):
            case = cases[int(pinned.rsplit("case", 1)[1])]
            assert case[0] == "disk_stack"
            np.testing.assert_array_equal(case[2], pose)
            np.testing.assert_array_equal(case[3], v)
    for index, (name, problem, _, v) in enumerate(cases):
        ours, reference = _sweep_outcomes(problem, v)
        assert ours == reference, f"case {index} ({name})"
        # Seed 75, round 4, case 4 does not settle within the cap.
        assert ("cap" in reference) == ((seed, round_, index) == (75, 4, 4))


def test_baselines_build_no_problem_besides_the_one_given(monkeypatch):
    # Each sweep takes its contacts on blocks gathered from the problem's
    # own, so no one-contact problem is built, on either path.
    problem, v0, _ = build_example("disk_stack")
    built = []
    post_init = ImpactProblem.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ImpactProblem, "__post_init__", counting)
    rows = {}
    for path in kernel_paths(monkeypatch):
        rows[path] = [v.tobytes() for _, _, v in baselines(problem, v0)]
    assert built == []
    assert rows["kernel"] == rows["numpy"]
    assert len(rows["kernel"]) == 1 + problem.n_contacts


def test_readers_of_v_final_build_no_step_records(monkeypatch):
    # The records of a sweep are built on the first read of ``steps``;
    # ``v_final``, ``terminated`` and ``n_steps`` need none of them.
    calls = {"kinetic_energy": 0, "StepRecord": 0}
    swept = []

    def counted(name, wrapped):
        def call(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)
        return call

    def kept(wrapped):
        def call(*args):
            got = wrapped(*args)
            swept.append(got)
            return got
        return call

    for name in calls:
        monkeypatch.setattr(resolution, name, counted(name, getattr(resolution, name)))
    for name in ("_kernel_sweep", "_numpy_sweep"):
        monkeypatch.setattr(resolution, name, kept(getattr(resolution, name)))
    for path in kernel_paths(monkeypatch):
        for scene in BASELINE_SCENES:
            problem, v0, _ = build_example(scene)
            baselines(problem, v0)
            for first in range(problem.n_contacts):
                swept.clear()
                traj = sequential_resolve(problem, v0, [first])
                assert traj.v_final.shape == (problem.n_v,) and traj.terminated
                records = [got for got in swept if got is not None][-1][0]
                assert traj.n_steps == len(traj.steps) == len(records) > 0
            assert calls == {"kinetic_energy": 0, "StepRecord": 0}, (path, scene)
        # A read builds each record once, with one energy per state.
        steps = list(traj.steps) + list(traj.steps)
        assert calls == {"kinetic_energy": traj.n_steps + 1, "StepRecord": traj.n_steps}
        assert steps[: traj.n_steps] == steps[traj.n_steps :]
        calls.update(dict.fromkeys(calls, 0))


def _all_fields(steps):
    """Every field of each step record, as bytes."""
    return [
        [np.asarray(getattr(step, field.name)).tobytes() for field in dataclasses.fields(step)]
        for step in steps
    ]


def test_deferred_step_records_do_not_go_stale_and_pickle(monkeypatch):
    problem, v0, _ = build_example("disk_stack")
    for _ in kernel_paths(monkeypatch):
        eager = _all_fields(sequential_resolve(problem, v0, [1]).steps)
        v = v0.copy()
        traj = sequential_resolve(problem, v, [1])
        unread = pickle.loads(pickle.dumps(traj))
        for state in (v, traj.v0, traj.v_final):
            state[:] = 7.0
        assert _all_fields(traj.steps) == eager
        np.testing.assert_array_equal(traj.steps[0].v_before, v0)
        assert all(a is b for a, b in zip(traj.steps, traj.steps))
        read = pickle.loads(pickle.dumps(traj))
        assert _all_fields(unread.steps) == eager == _all_fields(read.steps)
        assert unread.n_steps == read.n_steps == traj.n_steps == len(eager)


def test_sequential_resolution_cap_triggers(monkeypatch):
    problem, v0, _ = build_example("phone")
    monkeypatch.setattr(resolution, "SEQUENTIAL_CAP", 1)
    with pytest.raises(SequentialCapExceeded, match="more than 1 single-contact"):
        sequential_resolve(problem, v0, order=["A"])


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


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_termination_constant_rejects_a_non_finite_budget(h):
    # NaN reached ``math.ceil`` as a raw conversion error; inf gave c = 0.
    ball, _, _ = build_ball()
    with pytest.raises(ValueError, match="h must be positive and finite"):
        termination_constant(ball, h)


@pytest.mark.parametrize(
    "r",
    [np.zeros(3), np.zeros(0), np.ones(7), np.array([1.0, np.nan, 1.0]), np.ones((1, 3))],
    ids=["zero", "empty", "wrong-length", "nan", "stacked"],
)
def test_termination_constant_rejects_a_certificate_that_is_not_one_nonzero_vector(r):
    # A zero or empty r gave c = 0, one of the wrong length a constant
    # for another problem, and a NaN a raw conversion error.
    phone, _, meta = build_example("phone")
    with pytest.raises(ValueError, match=r"r must be one finite, nonzero vector of shape \(3,\)"):
        termination_constant(phone, meta["h"], r=r)


def test_termination_constant_rejects_a_certificate_whose_constant_overflows():
    # Its norm overflows: this raised OverflowError after a RuntimeWarning.
    phone, _, meta = build_example("phone")
    with pytest.raises(ValueError, match="r = .* gives no finite termination constant"):
        termination_constant(phone, meta["h"], r=[1e308] * 3)


def test_opposing_contacts_jam():
    # Two opposing frictionless contacts: any impulse pair cancels, so no
    # progress direction exists and the certificate must refuse.
    jam = ImpactProblem(
        mass=np.array([[1.0]]),
        jn=np.array([[1.0], [-1.0]]),
        jt=np.zeros((2, 1)),
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
        jt=np.array([[0.0, 1.0, -1.0], [0.0, -1.0, -1.0]]),
        mu=np.array([1.0, 1.0]),
    )
    with pytest.raises(NonDegeneracyViolation):
        compute_r(jam)


def test_restrict_contacts_takes_labels_and_in_range_indices():
    problem, _, _ = build_example("disk_stack")
    by_label = restrict_contacts(problem, [problem.labels[4], problem.labels[2]])
    by_index = restrict_contacts(problem, [np.int64(4), 2])
    assert by_label.labels == by_index.labels == (problem.labels[4], problem.labels[2])
    np.testing.assert_array_equal(by_label.jt, by_index.jt)
    np.testing.assert_array_equal(by_label.mu, by_index.mu)


@pytest.mark.parametrize(
    "entry, message",
    [(-1, "contact index -1 out of range"), (2, "contact index 2 out of range"),
     (True, "entry True is neither"), (0.7, "entry 0.7 is neither"),
     ("Z", r"no contact labeled 'Z'; labels: A, B")],
    ids=["negative", "m", "bool", "fraction", "unknown-label"],
)
def test_restrict_contacts_rejects_what_names_no_contact(entry, message):
    problem, _, _ = build_example("phone")
    with pytest.raises(ValueError, match=message):
        restrict_contacts(problem, [entry])


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_step_block_checks_every_rows_caps_first(bad):
    # A row whose caps are all NaN or all negative has no positive cap,
    # so it would otherwise keep its velocity unchecked.
    problem, v0, _ = build_example("phone")
    caps = np.array([[0.1, 0.1], [bad, bad]])
    with pytest.raises(ValueError, match="impulse caps must be finite and nonnegative"):
        resolution.step_block(problem, np.stack([v0, v0]), caps)
    with pytest.raises(ValueError, match="impulse caps must be finite and nonnegative"):
        sim_step(problem, v0, caps[1])


@pytest.mark.parametrize(
    "shape", [(3,), (2, 4), (2, 2), (2, 3, 1)], ids=["1-d", "wide", "narrow", "3-d"]
)
def test_step_block_takes_a_stack_of_velocities(shape, monkeypatch):
    # A 1-D v with one row of caps once met numpy's AxisError, and a wide
    # one a broadcast error, on both paths.
    problem, _, _ = build_example("phone")
    caps = np.full(shape[:-1] + (problem.n_contacts,), 0.1)
    for _ in kernel_paths(monkeypatch):
        with pytest.raises(ValueError, match=re.escape(f"v must have shape (k, 3), got {shape}")):
            resolution.step_block(problem, np.zeros(shape), caps)


def test_a_sampler_that_draws_the_wrong_shape_raises_alike_on_both_paths(monkeypatch):
    problem, v0, _ = build_example("phone")

    class Wide:
        def stream(self, first, count, n, m):
            return lambda rows, step: np.full((len(rows), m + 1), 0.5)

    for _ in kernel_paths(monkeypatch):
        with pytest.raises(ValueError, match="lambda_max must have one cap per contact"):
            resolution.sim_block(problem, v0, 0.3, 10, Wide(), 0, 2)
        # A sampler that has only ``stream`` samples through that loop.
        with pytest.raises(ValueError, match="lambda_max must have one cap per contact"):
            approximate(problem, v0, 0.3, 0.03, 10, 2, Wide())


@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0)])
def test_sim_rejects_a_step_cap_that_is_not_an_integer(bad):
    problem, v0, _ = build_example("phone")
    with pytest.raises(ValueError, match=f"n_max must be an integer, got {re.escape(repr(bad))}"):
        sim(problem, v0, h=0.3, n_max=bad, sampler=UniformSampler())
    with pytest.raises(ValueError, match="n_max must be an integer"):
        resolution.sim_block(problem, v0, 0.3, bad, UniformSampler(), 0, 2)
    assert sim(problem, v0, h=0.3, n_max=np.int64(3), sampler=UniformSampler()).n_steps <= 3


@pytest.mark.parametrize("bad", [0.5, True, -1])
def test_sim_rejects_a_trajectory_range_that_is_not_nonnegative_integers(bad):
    # A fractional Sobol index would read the draws of a truncated one.
    problem, v0, _ = build_example("phone")
    with pytest.raises(ValueError, match="first"):
        sim(problem, v0, 0.3, 10, SobolSampler(), traj_index=bad)
    for first, count, name in ((bad, 2, "first"), (0, bad, "count")):
        with pytest.raises(ValueError, match=name):
            resolution.sim_block(problem, v0, 0.3, 10, SobolSampler(), first, count)
    by_numpy = sim(problem, v0, 0.3, 10, SobolSampler(), traj_index=np.int64(2))
    np.testing.assert_array_equal(
        by_numpy.v_final, sim(problem, v0, 0.3, 10, SobolSampler(), traj_index=2).v_final
    )


@pytest.mark.parametrize(
    "bad, message",
    [
        (-1.0, r"shape \(3,\) or \(2, 3\), got \(\)"),
        ([-1.0, -1.0], r"shape \(3,\) or \(2, 3\), got \(2,\)"),
        ([[-1.0] * 3], r"got \(1, 3\)"),
        ([[-1.0] * 3] * 3, r"got \(3, 3\)"),
        ([np.nan, 0.0, 0.0], "start velocity must be finite"),
        ([[0.0] * 3, [0.0, -np.inf, 0.0]], "start velocity must be finite"),
    ],
    ids=["scalar", "short", "too-few-rows", "too-many-rows", "nan", "inf-row"],
)
def test_sim_block_takes_one_finite_start_velocity_or_one_per_trajectory(bad, message):
    # Broadcasting would spread a scalar over every coordinate, and a NaN
    # would reach the LCP as "M and q must be finite".
    problem, v0, _ = build_example("phone")
    with pytest.raises(ValueError, match=message):
        resolution.sim_block(problem, bad, 0.3, 10, UniformSampler(0), 0, 2)
    one = resolution.sim_block(problem, v0, 0.3, 10, UniformSampler(0), 0, 2)
    each = resolution.sim_block(problem, np.stack([v0, v0]), 0.3, 10, UniformSampler(0), 0, 2)
    assert one.tobytes() == each.tobytes()


def test_the_uncapped_cone_audit_is_one_check_with_one_message(monkeypatch):
    # A negative tolerance fails every audit, on the kernel and in numpy.
    problem, v0, _ = build_example("phone")
    monkeypatch.setattr(contact, "CONE_TOL", -1.0)
    message = "uncapped resolution failed the friction-cone feasibility audit"
    for _ in kernel_paths(monkeypatch):
        with pytest.raises(ConeViolationError, match=message):
            anitescu_resolve(problem, v0)
        with pytest.raises(ConeViolationError, match=message):
            sequential_resolve(problem, v0, ["A"])


@pytest.mark.parametrize(
    "bad", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf], [0.0, 0.0], [[0.0] * 3]],
    ids=["nan", "inf", "-inf", "short", "stack"],
)
def test_the_baselines_reject_a_velocity_that_is_not_one_finite_state(bad):
    problem, v0, _ = build_example("phone")
    assert v0.shape == (3,)
    message = "start velocity must be finite" if np.shape(bad) == (3,) else "shape"
    with pytest.raises(ValueError, match=message):
        anitescu_resolve(problem, bad)
    with pytest.raises(ValueError, match=message):
        sequential_resolve(problem, bad, ["A"])
    with pytest.raises(ValueError, match=message):
        baselines(problem, bad)
