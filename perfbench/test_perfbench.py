"""Tests of the benchmark's own checker and of its smoke mode.

Run from the repository root:  python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import workloads  # noqa: E402
from multimpact import resolution, scenes, setapprox  # noqa: E402


@pytest.fixture(scope="module")
def disk_stack():
    problem, v0, meta = scenes.build_example("disk_stack")
    sampler = setapprox.UniformSampler(3)
    traj = resolution.sim(problem, v0, meta["h"], meta["n_steps"], sampler, traj_index=5)
    return problem, v0, traj


def _frictional_step(traj):
    """A step that took a nonzero impulse with some nonzero friction."""
    for step in traj.steps:
        if step.beta.max() > 1e-6:
            return step
    raise AssertionError("trajectory has no frictional step")


def test_program_trajectory_passes(disk_stack):
    problem, _, traj = disk_stack
    assert traj.n_steps > 1
    assert checker.check_trajectory(problem, traj) == []


def test_flipped_friction_impulse_fails(disk_stack):
    problem, _, traj = disk_stack
    step = _frictional_step(traj)
    beta = step.beta.copy()
    k = int(np.argmax(beta))
    beta[k] = -beta[k]
    faults = checker.check_step(problem, dataclasses.replace(step, beta=beta))
    assert any("negative LCP variable" in f for f in faults)


def test_normal_impulse_past_its_cap_fails(disk_stack):
    problem, _, traj = disk_stack
    step = _frictional_step(traj)
    lam = step.lambda_n.copy()
    i = int(np.argmax(step.lambda_max))
    lam[i] = step.lambda_max[i] * 1.5 + 1e-3
    faults = checker.check_step(problem, dataclasses.replace(step, lambda_n=lam))
    assert any("above its cap" in f for f in faults)


def test_broken_trajectory_chain_fails(disk_stack):
    problem, _, traj = disk_stack
    steps = list(traj.steps)
    steps[1] = dataclasses.replace(steps[1], v_before=steps[1].v_before + 1e-3)
    faults = checker.check_trajectory(problem, dataclasses.replace(traj, steps=steps))
    assert any("v_before" in f for f in faults)


def test_outcome_and_certificate_checks():
    problem, v0, meta = scenes.build_example("phone")
    v_plus = resolution.anitescu_resolve(problem, v0)
    assert checker.check_outcomes(problem, v0, v_plus, "anitescu") == []
    assert checker.check_outcomes(problem, v0, v0, "v0")  # still approaching
    assert checker.check_outcomes(problem, v0, 2.0 * np.abs(v0), "fast")  # energy gained
    r = resolution.compute_r(problem)
    assert checker.check_certificate(problem, r) == []
    assert checker.check_certificate(problem, 0.5 * r)


def test_smoke_runs_every_workload():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    assert {(r["workload"], r["trace"]) for r in results} == {
        (w, t)
        for w in ("compass_sobol", "disk_stack_uniform", "baselines")
        for t in (False, True)
    }
    assert all(r["correct"] and r["failed"] == 0 for r in results)


def test_refuses_to_run_without_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "baselines"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout


def _child_pids() -> list[int]:
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
                children.append(int(entry.name))
    return children


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("name", ["compass_sobol", "baselines"])
def test_no_process_outlives_a_workload(name, tmp_path):
    """Pools, and any helper process they start, end with the workload."""
    if name == "baselines":
        wl = workloads.BaselinesWorkload(1, tmp_path, smoke=True)
    else:
        wl = workloads.SamplingWorkload(name, 1, tmp_path, smoke=True)
    try:
        wl.serial_round(0)
        wl.start_jobs()
        wl.jobs_round(1)
    finally:
        wl.close()
    assert _child_pids() == []
