"""Acceptance gate: eleven criteria at their stated tolerances and budgets.

The terminal summary hook in conftest prints one PASS/FAIL line per
criterion.  Criteria 1-3 and the per-step half of criterion 9 audit the
same randomized step population, produced once by the module-scoped
``stress_runs`` fixture so that the certified LCPs are exactly the ones
that were stepped.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal, getcontext

import numpy as np
import pytest

from multimpact import (
    ImpactProblem,
    NonDegeneracyViolation,
    UniformSampler,
    anitescu_resolve,
    assemble_impact_lcp,
    build_example,
    classify_outcomes,
    compute_r,
    is_impacting,
    lemke_solve,
    mass_norm,
    reflect_map,
    residuals,
    routh_dense_reference,
    sample_count_bound,
    sequential_resolve,
    sim,
    sim_step,
    termination_constant,
)
from multimpact import cli
from multimpact.setapprox import approximate
from multimpact.oracles import brute_force_lcp
from multimpact import LcpInstance
from conftest import random_single_contact

SCENES = ("phone", "compass", "box_wall", "disk_stack")
STEPS_PER_SCENE = 10_000
JOBS = min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Shared randomized step population (criteria 1, 2, 3, 9)


@dataclass
class SceneStress:
    runtime: float
    worst_energy_ratio: float  # max of mass_norm(v') / mass_norm(v)
    worst_residual: float  # max of residual / (1 + |q|)
    activation_failures: int  # contacts neither capped nor separating
    certificate_slack: float  # min of r.(v' - v) - |lambda_n|_1
    spot_check_gap: float  # worst |sim_step v' - audited v'|
    steps: int


@pytest.fixture(scope="module")
def stress_runs() -> dict[str, SceneStress]:
    results: dict[str, SceneStress] = {}
    for name in SCENES:
        problem, v0, meta = build_example(name)
        h = float(meta["h"])
        r = compute_r(problem)
        rng = np.random.default_rng(987654321)
        scale = max(float(np.linalg.norm(v0)), 0.1)
        minv_jbar_t = problem.mass_solve(problem.jbar.T)

        worst_ratio = 0.0
        worst_residual = 0.0
        activation_failures = 0
        certificate_slack = math.inf
        spot_check_gap = 0.0
        v = v0.copy()
        start = time.perf_counter()
        steps = 0
        while steps < STEPS_PER_SCENE:
            if not is_impacting(problem, v):
                v = v0 + scale * rng.standard_normal(problem.n_v)
                continue
            caps = h * rng.random(problem.n_contacts)
            lcp, layout = assemble_impact_lcp(problem, v, caps)
            sol = lemke_solve(lcp)
            assert sol.status == "solved", f"{name}: step LCP ended {sol.status}"
            comp_gap, neg_z, neg_w = residuals(lcp, sol.z)
            rel = max(comp_gap, neg_z, neg_w) / (1.0 + float(np.linalg.norm(lcp.q)))
            worst_residual = max(worst_residual, rel)

            lam = sol.z[layout.lambda_n]
            beta = sol.z[layout.beta]
            dv = minv_jbar_t @ np.concatenate([lam, beta])
            v_next = v + dv

            ratio = mass_norm(problem, v_next) / mass_norm(problem, v)
            worst_ratio = max(worst_ratio, ratio)

            separating = problem.jn @ v_next >= -1e-8
            at_cap = lam >= caps - 1e-8
            activation_failures += int(np.sum(~(separating | at_cap)))

            certificate_slack = min(
                certificate_slack, float(r @ dv) - float(np.sum(lam))
            )

            if steps % 500 == 0:
                v_step, _ = sim_step(problem, v, caps)
                spot_check_gap = max(
                    spot_check_gap, float(np.abs(v_step - v_next).max())
                )

            v = v_next
            steps += 1
        results[name] = SceneStress(
            runtime=time.perf_counter() - start,
            worst_energy_ratio=worst_ratio,
            worst_residual=worst_residual,
            activation_failures=activation_failures,
            certificate_slack=certificate_slack,
            spot_check_gap=spot_check_gap,
            steps=steps,
        )
    return results


def test_criterion_01_dissipation(stress_runs):
    total_runtime = sum(s.runtime for s in stress_runs.values())
    for name, stress in stress_runs.items():
        assert stress.steps == STEPS_PER_SCENE
        assert stress.worst_energy_ratio <= 1.0 + 1e-9, (
            f"{name}: worst energy ratio {stress.worst_energy_ratio!r}"
        )
        assert stress.spot_check_gap <= 1e-12
    assert total_runtime < 30.0, f"stress population took {total_runtime:.1f}s"


def test_criterion_02_lcp_certification(stress_runs):
    for name, stress in stress_runs.items():
        assert stress.worst_residual <= 1e-9, (
            f"{name}: relative residual {stress.worst_residual:.3e}"
        )
    # 200 uncapped single-contact assemblies are exactly 4x4: one normal
    # impulse, two friction weights, one slip slack.
    rng = np.random.default_rng(424242)
    for _ in range(200):
        problem, v = random_single_contact(rng)
        lcp_full, layout = assemble_impact_lcp(problem, v, np.array([1.0]))
        keep = np.r_[
            np.arange(layout.lambda_n.start, layout.lambda_n.stop),
            np.arange(layout.beta.start, layout.beta.stop),
            np.arange(layout.gamma_v.start, layout.gamma_v.stop),
        ]
        lcp = LcpInstance(lcp_full.m[np.ix_(keep, keep)], lcp_full.q[keep])
        assert lcp.n == 4
        sol = lemke_solve(lcp)
        assert sol.status == "solved"
        minv_jbar_t = problem.mass_solve(problem.jbar.T)
        v_lemke = v + minv_jbar_t @ sol.z[:3]
        candidates = brute_force_lcp(lcp)
        assert candidates, "assembled instances are always solvable"
        gap = min(
            float(np.abs(v_lemke - (v + minv_jbar_t @ z[:3])).max())
            for z in candidates
        )
        assert gap <= 1e-8


def test_criterion_03_full_activation(stress_runs):
    for name, stress in stress_runs.items():
        assert stress.activation_failures == 0, (
            f"{name}: {stress.activation_failures} contacts neither at cap "
            "nor separating"
        )


def test_criterion_04_simultaneous_baseline_pins_symmetric_scenes():
    start = time.perf_counter()
    for name in ("phone", "box_wall"):
        problem, v0, _ = build_example(name)
        v_plus = anitescu_resolve(problem, v0)
        assert float(np.abs(v_plus).max()) <= 1e-8, f"{name}: {v_plus}"
    assert time.perf_counter() - start < 1.0


def test_criterion_05_sequential_order_dependence():
    start = time.perf_counter()
    phone, pv0, _ = build_example("phone")
    v_a = sequential_resolve(phone, pv0, order=["A"]).v_final
    v_b = sequential_resolve(phone, pv0, order=["B"]).v_final
    mirror = reflect_map("phone")
    np.testing.assert_allclose(v_a, mirror @ v_b, atol=1e-12)
    for v_plus in (v_a, v_b):
        assert int(np.sum(phone.jn @ v_plus > 1e-6)) == 1
    assert float(np.abs((phone.jn @ v_a) - (phone.jn @ v_b)[::-1]).max()) <= 1e-12

    box, bv0, _ = build_example("box_wall")
    v_plus = sequential_resolve(box, bv0, order=["B"]).v_final
    assert float(box.jn[1] @ v_plus) > 1e-6, "wall contact must lift off"
    assert float(box.jd[0] @ v_plus) < -1e-6, "floor contact keeps sliding"
    assert time.perf_counter() - start < 1.0


def test_criterion_06_outcome_set_coverage():
    start = time.perf_counter()
    problem, v0, _ = build_example("phone")
    post = approximate(
        problem, v0, h=0.3, epsilon=0.03, n_max=10, m_trajectories=4096,
        sampler=UniformSampler(seed=0), jobs=JOBS,
    )
    assert post.samples.shape[0] > 0

    patterns = set()
    for sample in post.samples:
        histogram = classify_outcomes(sample[None, :], problem)
        patterns.add(
            tuple(
                next(kind for kind, count in histogram[label].items() if count)
                for label in problem.labels
            )
        )
    assert ("stick", "stick") in patterns, "both-stick class missing"
    assert ("stick", "lift") in patterns, "A-stick + B-lift class missing"
    assert ("lift", "stick") in patterns, "B-stick + A-lift class missing"

    radius = 0.1 * mass_norm(problem, v0)
    chol = np.linalg.cholesky(problem.mass)
    whitened = post.samples @ chol
    corners = [anitescu_resolve(problem, v0)]
    corners.append(sequential_resolve(problem, v0, order=["A"]).v_final)
    corners.append(sequential_resolve(problem, v0, order=["B"]).v_final)
    for corner in corners:
        gaps = whitened - chol.T @ corner
        nearest = float(np.sqrt((gaps * gaps).sum(axis=1)).min())
        assert nearest <= radius, f"corner {corner} at distance {nearest}"
    assert time.perf_counter() - start < 120.0


def test_criterion_07_termination_tail():
    start = time.perf_counter()
    problem, v0, meta = build_example("phone")
    h = float(meta["h"])
    c, tail = termination_constant(problem, h)
    prefix = c * math.ceil(mass_norm(problem, v0))
    n_max = prefix + 64
    sampler = UniformSampler(seed=0)
    m = problem.n_contacts

    counts = np.empty(10_000, dtype=int)
    for i in range(counts.size):
        traj = sim(problem, v0, h=h, n_max=n_max, sampler=sampler, traj_index=i)
        assert traj.terminated, f"trajectory {i} still impacting after {n_max} steps"
        counts[i] = traj.n_steps
    for k in (4, 9, 16):
        frequency = float(np.mean(counts > prefix + k))
        assert tail(k) == pytest.approx(math.exp(-k / (m + 1) ** 2))
        bound = tail(k) + 0.01
        assert frequency <= bound, f"k={k}: {frequency} > {bound}"
    assert time.perf_counter() - start < 120.0


def test_criterion_08_single_contact_convergence():
    start = time.perf_counter()
    # Glancing corner impact whose slip direction reverses mid-impact: the
    # one regime where the capped step map is a genuinely first-order
    # approximation of the dense reference (without reversal it is exact).
    problem = ImpactProblem(
        mass=np.diag([1.0, 1.0, 0.1]),
        jn=np.array([[0.0, 1.0, 1.0]]),
        jt=np.array([[-1.0, 0.0, -0.5]]),
        mu=np.array([1.0]),
    )
    v0 = np.array([-0.1, -1.0, 0.0])
    dense = routh_dense_reference(problem, v0, ds=1e-6)
    v0_norm = mass_norm(problem, v0)
    minv_jbar_t = problem.mass_solve(problem.jbar.T)
    sigma = float(np.linalg.norm(minv_jbar_t, 2))

    errors = []
    for factor in (0.1, 0.05, 0.025):
        h = factor * v0_norm
        gaps = []
        for seed in range(64):
            traj = sim(problem, v0, h=h, n_max=100_000,
                       sampler=UniformSampler(seed=seed))
            assert traj.terminated
            gaps.append(float(np.linalg.norm(traj.v_final - dense.v_final)))
        error = float(np.mean(gaps))
        assert error <= 5.0 * h * sigma, f"h={h}: error {error} above bound"
        errors.append(error)
    for coarse, fine in zip(errors, errors[1:]):
        ratio = fine / coarse
        assert 0.35 <= ratio <= 0.7, f"halving ratio {ratio} outside [0.35, 0.7]"
    assert time.perf_counter() - start < 60.0


def test_criterion_09_certificate_and_jamming(stress_runs):
    for name in SCENES:
        problem, _, _ = build_example(name)
        r = compute_r(problem)
        assert np.all(np.isfinite(r))
        assert stress_runs[name].certificate_slack >= -1e-8, (
            f"{name}: impulse progress slack {stress_runs[name].certificate_slack}"
        )
    jamming = ImpactProblem(
        mass=np.array([[1.0]]),
        jn=np.array([[1.0], [-1.0]]),
        jt=np.zeros((2, 1)),
        mu=np.array([1.0, 1.0]),
    )
    with pytest.raises(NonDegeneracyViolation):
        compute_r(jamming)


def _reference_sample_count(h, lipschitz_l, box_dim, epsilon, delta) -> int:
    """Independent reimplementation of the trajectory-count bound using
    high-precision decimal arithmetic and a direct (non-log-domain)
    formulation."""
    getcontext().prec = 80
    sentinel = 2**63 - 1
    cells = math.ceil(h * lipschitz_l * math.sqrt(box_dim) / epsilon)
    if cells <= 1:
        return 1
    omega = Decimal(1) / (Decimal(cells) ** box_dim)
    required = (Decimal(delta) * omega).ln() / (Decimal(1) - omega).ln()
    if required >= sentinel:
        return sentinel
    guarded = (required - Decimal("1e-30")).to_integral_value(rounding=ROUND_CEILING)
    return max(1, int(guarded))


def test_criterion_10_sample_bound_matches_reimplementation():
    assert sample_count_bound(1.0, 1.0, 1, 0.5, 0.1) == 5
    # The grid spans the one-cell edge, small finite counts, counts up to
    # ~1e12 (where a double still resolves integers with large margin), and
    # saturation; both routes must agree on every point.
    grid = [
        (h, lipschitz_l, box_dim, epsilon, delta)
        for box_dim in (1, 2, 3, 5, 8)
        for delta in (0.5, 0.1, 1e-3, 1e-9)
        for (h, lipschitz_l, epsilon) in (
            (1.0, 1.0, 2.0),
            (1.0, 1.0, 0.5),
            (1.0, 1.0, 0.34),
            (1.3, 4.0, 0.1),
            (0.7, 1.0, 0.25),
        )
    ]
    assert len(grid) == 100
    for params in grid:
        ours = sample_count_bound(*params)
        reference = _reference_sample_count(*params)
        assert ours == reference, f"mismatch at {params}: {ours} != {reference}"


def test_criterion_11_bytewise_determinism(tmp_path, capsys):
    scene_args = ["approximate", "--scene", "phone"]
    outputs = [tmp_path / f"run{i}.csv" for i in range(3)]
    for out, jobs in zip(outputs, ("8", "8", "1")):
        code = cli.main(scene_args + ["--jobs", jobs, "--output", str(out)])
        assert code == 0
    first, second, serial = (path.read_bytes() for path in outputs)
    assert first == second, "identical flags must give identical bytes"
    assert first == serial, "job count must not leak into the output"

    # Desk scale is the default; the full cloud size needs the flag.
    meta = {"name": "phone", "h": 0.3, "n_steps": 10, "m_trajectories": 16384}
    desk = cli._build_parser().parse_args(scene_args)
    cli._fill_defaults(desk, meta)
    assert desk.m == 4096
    paper = cli._build_parser().parse_args(scene_args + ["--paper-scale"])
    cli._fill_defaults(paper, meta)
    assert paper.m == 16384

    # The full-size cloud materializes only under --paper-scale (untimed).
    out = tmp_path / "paper.csv"
    code = cli.main(
        scene_args
        + ["--paper-scale", "--jobs", str(JOBS), "--output", str(out)]
    )
    assert code == 0
    sample_rows = len(out.read_text().splitlines()) - 2  # marker + header
    assert 4096 < sample_rows <= 16384
