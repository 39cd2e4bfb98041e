"""Tests for lockstep stepping: results do not depend on the block size
or the job count, ``sim`` and ``approximate`` agree bit for bit, and the
stacked Lemke kernel matches the single-instance solver."""

from __future__ import annotations

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
from multimpact import lcp as lcp_module
from multimpact import setapprox
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


@pytest.mark.parametrize("name", ["phone", "compass", "box_wall", "disk_stack"])
def test_lemke_many_rows_match_a_stack_of_one_and_the_scalar_solver(name):
    stack = _random_step_lcps(name, 60, seed=17)
    many = lemke_many(stack.m, stack.q)
    gap, neg_z, neg_w = residuals(stack, many.z)
    assert max(neg_z.max(), neg_w.max()) <= RESIDUAL_TOL
    scale = 1.0 + np.linalg.norm(many.z, axis=1) * np.linalg.norm(many.w, axis=1)
    assert np.all(gap <= RESIDUAL_TOL * scale)
    for i, q in enumerate(stack.q):
        alone = lemke_many(stack.m, q[None])
        np.testing.assert_array_equal(alone.z[0], many.z[i])
        np.testing.assert_array_equal(alone.w[0], many.w[i])
        assert alone.pivot_count[0] == many.pivot_count[i]
        single = lemke_solve(LcpInstance(stack.m, q))
        assert single.status == many.status[i] == "solved"
        np.testing.assert_allclose(many.z[i], single.z, rtol=0.0, atol=RESIDUAL_TOL)


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


def _random_problem(rng: np.random.Generator, m: int) -> ImpactProblem:
    n_v = int(rng.integers(max(3, m), m + 4))
    jn = rng.standard_normal((m, n_v))
    jn /= np.linalg.norm(jn, axis=1, keepdims=True)
    jt = rng.standard_normal((m, n_v))
    jt /= np.linalg.norm(jt, axis=1, keepdims=True)
    jd = np.empty((2 * m, n_v))
    jd[0::2], jd[1::2] = jt, -jt
    return ImpactProblem(
        mass=random_spd_matrix(rng, n_v),
        jn=jn,
        jd=jd,
        mu=rng.uniform(0.2, 2.0, m),
    )


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), k=st.integers(1, 6))
def test_lockstep_step_on_random_multi_contact_problems(seed, m, k):
    rng = np.random.default_rng(seed)
    problem = _random_problem(rng, m)
    # Velocities that drive the contacts together, with tangential content.
    push = problem.mass_solve(problem.jn.T).T  # rows: M^-1 jn_i
    v = -rng.uniform(0.0, 1.0, (k, m)) @ push + 0.3 * rng.standard_normal((k, problem.n_v))
    caps = rng.uniform(0.0, 1.0, (k, m)) * rng.integers(0, 2, (k, 1))
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
