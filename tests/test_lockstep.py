"""Tests for lockstep stepping: results do not depend on the block size
or the job count, ``sim`` and ``approximate`` agree bit for bit, the
single-instance Lemke solver gives bitwise the row of a stack of one,
and the fan-out over processes reports errors as a serial run would and
leaves no child process behind."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multimpact import (
    ImpactProblem,
    LcpInstance,
    SobolSampler,
    UniformSampler,
    approximate,
    assemble_impact_lcp,
    build_example,
    in_linear_cone,
    is_impacting,
    kinetic_energy,
    lemke_many,
    lemke_solve,
    psi,
    residuals,
    sim,
    sim_step,
    step_block,
)
from multimpact import errors
from multimpact import lcp as lcp_module
from multimpact import resolution, setapprox
from multimpact.errors import LcpSolveError
from multimpact.lcp import RESIDUAL_TOL
from multimpact.resolution import _workspace
from conftest import random_spd_matrix

CASES = {
    "compass": (SobolSampler(), 40),
    "disk_stack": (UniformSampler(seed=4), 20),
}


def _approximate(name, jobs=1):
    problem, v0, meta = build_example(name)
    sampler, m = CASES[name]
    h = float(meta["h"])
    post = approximate(problem, v0, h, h / 10.0, int(meta["n_steps"]), m, sampler, jobs=jobs)
    return problem, v0, meta, post


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_do_not_depend_on_block_size_or_jobs(name, monkeypatch):
    outputs = []
    for block, jobs in ((1, 1), (7, 1), (4096, 1), (7, 2)):
        monkeypatch.setattr(setapprox, "BLOCK_SIZE", block)
        outputs.append(_approximate(name, jobs)[3])
    first = outputs[0]
    assert first.samples.shape[0] + first.rejected_count == CASES[name][1]
    for post in outputs[1:]:
        np.testing.assert_array_equal(post.traj_indices, first.traj_indices)
        np.testing.assert_array_equal(post.samples, first.samples)
        assert post.rejected_count == first.rejected_count


HAS_PROC = Path("/proc/self/stat").exists()


def _child_pids() -> set[int]:
    """This process's children, read from /proc (none without it)."""
    children = set()
    for entry in Path("/proc").iterdir() if HAS_PROC else ():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
                children.add(int(entry.name))
    return children


# Children see a monkeypatched ``sim_block`` only if they are forked.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="needs forked children"
)


def _run_seven(name, jobs):
    problem, v0, meta = build_example(name)
    h = float(meta["h"])
    sampler = CASES[name][0]
    return approximate(problem, v0, h, h / 10.0, int(meta["n_steps"]), 7, sampler, jobs=jobs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_uneven_splits_over_processes_match_one_process(name):
    serial = _run_seven(name, 1)
    for jobs in (2, 3):
        post = _run_seven(name, jobs)
        np.testing.assert_array_equal(post.traj_indices, serial.traj_indices)
        np.testing.assert_array_equal(post.samples, serial.samples)
        assert post.rejected_count == serial.rejected_count


@pytest.mark.skipif(not HAS_PROC, reason="needs /proc")
def test_no_child_process_outlives_approximate():
    before = _child_pids()
    _run_seven("compass", 3)
    assert _child_pids() <= before


def _fail_on(monkeypatch, problem, meta, sampler, bad):
    """Make ``setapprox.sim_block`` raise ``LcpSolveError`` for any block
    holding a trajectory index in ``bad``, naming the lowest such index;
    draws identify the trajectories."""
    n, m = int(meta["n_steps"]), problem.n_contacts
    index = {sampler.draw_block(i, 1, n, m)[0].tobytes(): i for i in range(7)}
    real = setapprox.sim_block

    def sim_block(problem, v0, h, fractions):
        held = bad & {index[f.tobytes()] for f in fractions}
        if held:
            raise LcpSolveError("ray_termination", f"trajectory {min(held)}")
        return real(problem, v0, h, fractions)

    monkeypatch.setattr(setapprox, "sim_block", sim_block)


@needs_fork
@pytest.mark.parametrize(
    "bad",
    [{3, 5}, {1}],
    ids=["child-shares-raise", "own-share-raises"],
)
def test_a_failing_share_raises_as_a_serial_run_would(bad, monkeypatch):
    problem, v0, meta = build_example("phone")
    h, n = float(meta["h"]), int(meta["n_steps"])
    sampler = UniformSampler(seed=2)
    _fail_on(monkeypatch, problem, meta, sampler, bad)
    with pytest.raises(LcpSolveError) as serial:
        approximate(problem, v0, h, h / 10.0, n, 7, sampler, jobs=1)
    before = _child_pids()
    for jobs in (2, 3):
        with pytest.raises(LcpSolveError) as fanned:
            approximate(problem, v0, h, h / 10.0, n, 7, sampler, jobs=jobs)
        assert type(fanned.value) is LcpSolveError
        assert str(fanned.value) == str(serial.value)
        assert fanned.value.status == serial.value.status
    assert _child_pids() <= before


@needs_fork
def test_a_child_that_exits_without_results_is_reported(monkeypatch):
    problem, v0, meta = build_example("phone")
    h = float(meta["h"])
    parent, real = os.getpid(), setapprox.sim_block

    def sim_block(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(setapprox, "sim_block", sim_block)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        approximate(problem, v0, h, h / 10.0, int(meta["n_steps"]), 7, UniformSampler(), jobs=2)


@needs_fork
def test_children_are_terminated_when_the_own_share_raises(monkeypatch):
    problem, v0, meta = build_example("phone")
    h = float(meta["h"])
    parent = os.getpid()

    def sim_block(*args):
        if os.getpid() != parent:
            time.sleep(60.0)
        raise LcpSolveError("max_pivots", "own share")

    monkeypatch.setattr(setapprox, "sim_block", sim_block)
    start = time.perf_counter()
    with pytest.raises(LcpSolveError, match="own share"):
        approximate(problem, v0, h, h / 10.0, int(meta["n_steps"]), 7, UniformSampler(), jobs=3)
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("name", errors.__all__)
def test_errors_survive_pickling(name):
    cls = getattr(errors, name)
    exc = cls("solved", "capped impact step") if cls is LcpSolveError else cls("message")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert getattr(back, "status", None) == getattr(exc, "status", None)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sim_and_the_finishing_step_reproduce_set_samples(name, monkeypatch):
    monkeypatch.setattr(setapprox, "BLOCK_SIZE", 7)
    problem, v0, meta, post = _approximate(name)
    sampler = CASES[name][0]
    h = float(meta["h"])
    finishing = h / 10.0 / (3.0 * psi(problem)) * np.ones(problem.n_contacts)
    for row in np.linspace(0, len(post.traj_indices) - 1, 8).astype(int):
        index = int(post.traj_indices[row])
        traj = sim(problem, v0, h, int(meta["n_steps"]), sampler, traj_index=index)
        v_fin, _ = sim_step(problem, traj.v_final, finishing)
        np.testing.assert_array_equal(v_fin, post.samples[row])


def _random_step_lcps(name, count, seed):
    problem, v0, meta = build_example(name)
    rng = np.random.default_rng(seed)
    v = v0 + 0.3 * float(np.linalg.norm(v0)) * rng.standard_normal((count, problem.n_v))
    caps = float(meta["h"]) * rng.random((count, problem.n_contacts))
    return assemble_impact_lcp(problem, v, caps)[0]


def _lcps_solved_one_at_a_time(kind, name):
    """The LCPs that ``resolution`` hands to ``lemke_solve`` at a bundled
    scene's ``v0``: the uncapped resolution's, each single contact's, or
    ``compute_r``'s skew-symmetric one."""
    problem, v0, _ = build_example(name)
    seen = []

    def record(lcp):
        seen.append(lcp)
        return lemke_solve(lcp)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolution, "lemke_solve", record)
        if kind == "uncapped":
            resolution._uncapped_resolve(problem, v0)
        elif kind == "single-contact":
            for i in range(problem.n_contacts):
                resolution._uncapped_resolve(resolution.restrict_contacts(problem, [i]), v0)
        else:
            resolution.compute_r(problem)
    assert seen
    return seen


def _assert_solved_alike(single, stack_of_one):
    """``lemke_solve``'s result is bitwise the row of a stack of one."""
    assert single.status == stack_of_one.status[0]
    assert single.pivot_count == stack_of_one.pivot_count[0]
    assert single.z.tobytes() == stack_of_one.z[0].tobytes()


STEP_SCENES = ["phone", "compass", "box_wall", "disk_stack"]
ONE_AT_A_TIME = [
    f"{kind}-{name}"
    for kind in ("uncapped", "single-contact", "compute_r")
    for name in ("ball", *STEP_SCENES)
]


@pytest.mark.parametrize("name", STEP_SCENES + ONE_AT_A_TIME)
def test_lemke_many_rows_match_a_stack_of_one_and_the_scalar_solver(name):
    if name in STEP_SCENES:
        stacks = [_random_step_lcps(name, 60, seed=17)]
    else:
        kind, scene = name.rsplit("-", 1)
        stacks = [
            LcpInstance(lcp.m, lcp.q[None]) for lcp in _lcps_solved_one_at_a_time(kind, scene)
        ]
    for stack in stacks:
        many = lemke_many(stack.m, stack.q)
        assert np.all(many.status == "solved")
        gap, neg_z, neg_w = residuals(stack, many.z)
        assert max(neg_z.max(), neg_w.max()) <= RESIDUAL_TOL
        scale = 1.0 + np.linalg.norm(many.z, axis=1) * np.linalg.norm(many.w, axis=1)
        assert np.all(gap <= RESIDUAL_TOL * scale)
        for i, q in enumerate(stack.q):
            alone = lemke_many(stack.m, q[None])
            np.testing.assert_array_equal(alone.z[0], many.z[i])
            np.testing.assert_array_equal(alone.w[0], many.w[i])
            assert alone.pivot_count[0] == many.pivot_count[i]
            _assert_solved_alike(lemke_solve(LcpInstance(stack.m, q)), alone)


def test_lemke_many_reports_a_status_per_row(monkeypatch):
    q = np.array([[-1.0, -1.0], [0.0, 2.0], [-1.0, -2.0]])
    sol = lemke_many(-np.eye(2), q)
    assert list(sol.status) == ["ray_termination", "solved", "ray_termination"]
    assert sol.pivot_count[1] == 0
    np.testing.assert_array_equal(sol.z[1], [0.0, 0.0])
    np.testing.assert_array_equal(sol.w[1], [0.0, 2.0])
    monkeypatch.setattr(lcp_module, "MAX_PIVOTS", 1)
    capped = lemke_many(np.eye(2), np.array([[-1.0, -2.0], [1.0, 1.0]]))
    assert list(capped.status) == ["max_pivots", "solved"]
    assert list(capped.pivot_count) == [1, 0]


def test_lemke_solve_takes_one_instance():
    stack = LcpInstance(np.eye(2), -np.ones((3, 2)))
    with pytest.raises(ValueError):
        lemke_solve(stack)


def _random_step(rng: np.random.Generator, m: int, k: int, n_v_stop: int | None = None):
    """A random problem with ``m`` contacts and ``n_v`` drawn from
    [3, n_v_stop), by default [3, m + 4), and ``k`` velocities and caps
    for one capped step of it."""
    n_v = int(rng.integers(3, m + 4 if n_v_stop is None else n_v_stop))
    jn = rng.standard_normal((m, n_v))
    jn /= np.linalg.norm(jn, axis=1, keepdims=True)
    jt = rng.standard_normal((m, n_v))
    jt /= np.linalg.norm(jt, axis=1, keepdims=True)
    jd = np.empty((2 * m, n_v))
    jd[0::2], jd[1::2] = jt, -jt
    problem = ImpactProblem(
        mass=random_spd_matrix(rng, n_v),
        jn=jn,
        jd=jd,
        mu=rng.uniform(0.2, 2.0, m),
    )
    # Velocities that drive the contacts together, with tangential content.
    push = problem.mass_solve(problem.jn.T).T  # rows: M^-1 jn_i
    v = -rng.uniform(0.0, 1.0, (k, m)) @ push + 0.3 * rng.standard_normal((k, n_v))
    caps = rng.uniform(0.0, 1.0, (k, m)) * rng.integers(0, 2, (k, 1))
    return problem, v, caps


def test_an_over_constrained_step_lcp_solves_alike_on_both_paths():
    # Five contacts on three velocity coordinates: the step LCP of row 4
    # is solvable, with a long pivot path.
    problem, v, caps = _random_step(np.random.default_rng(4363382), 5, 6, n_v_stop=7)
    assert problem.n_v == 3
    lcp, _ = assemble_impact_lcp(problem, v[4], caps[4])
    single = lemke_solve(lcp)
    assert single.status == "solved"
    assert single.pivot_count == 24
    _assert_solved_alike(single, lemke_many(lcp.m, lcp.q[None]))
    gap, neg_z, neg_w = residuals(lcp, single.z)
    assert max(neg_z, neg_w) <= RESIDUAL_TOL
    assert gap <= RESIDUAL_TOL * (1.0 + np.linalg.norm(single.z) * np.linalg.norm(single.w))


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), k=st.integers(1, 6))
def test_lockstep_step_on_random_multi_contact_problems(seed, m, k):
    problem, v, caps = _random_step(np.random.default_rng(seed), m, k)
    v_after, lambda_n, beta = step_block(problem, v, caps)

    assert np.all(in_linear_cone(problem, v_after, lambda_n, beta))
    live = is_impacting(problem, v) & np.any(caps > 0.0, axis=1)
    if live.any():
        stack, layout = assemble_impact_lcp(problem, v[live], caps[live])
        many = lemke_many(stack.m, stack.q)
        assert np.all(many.status == "solved")
        gap, neg_z, neg_w = residuals(stack, many.z)
        assert max(neg_z.max(), neg_w.max()) <= RESIDUAL_TOL
        scale = 1.0 + np.linalg.norm(many.z, axis=1) * np.linalg.norm(many.w, axis=1)
        assert np.all(gap <= RESIDUAL_TOL * scale)
        np.testing.assert_array_equal(many.z[:, layout.lambda_n], lambda_n[live])
    minv_jbar_t = _workspace(problem).minv_jbar_t
    for i in range(k):
        assert kinetic_energy(problem, v_after[i]) <= kinetic_energy(problem, v[i]) * (1 + 1e-9)
        assert np.all(lambda_n[i] >= -RESIDUAL_TOL)
        assert np.all(lambda_n[i] <= caps[i] + RESIDUAL_TOL)
        if not (is_impacting(problem, v[i]) and np.any(caps[i] > 0.0)):
            np.testing.assert_array_equal(v_after[i], v[i])
            continue
        # Reference: the one-instance assembly and solver.
        lcp, layout = assemble_impact_lcp(problem, v[i], caps[i])
        sol = lemke_solve(lcp)
        assert sol.status == "solved"
        gap, neg_z, neg_w = residuals(lcp, sol.z)
        assert max(neg_z, neg_w) <= RESIDUAL_TOL
        assert gap <= RESIDUAL_TOL * (1.0 + np.linalg.norm(sol.z) * np.linalg.norm(sol.w))
        reference = v[i] + minv_jbar_t @ sol.z[layout.lambda_n.start : layout.beta.stop]
        np.testing.assert_allclose(v_after[i], reference, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(lambda_n[i], sol.z[layout.lambda_n], rtol=0.0, atol=1e-9)
