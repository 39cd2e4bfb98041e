"""Tests for the contact problem container and feasibility audits."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

import multimpact

from multimpact import (
    ImpactProblem,
    UniformSampler,
    anitescu_resolve,
    approximate,
    build_ball,
    build_example,
    in_linear_cone,
    is_impacting,
    kinetic_energy,
    mass_norm,
    sim_step,
)


def _simple_problem() -> ImpactProblem:
    return ImpactProblem(
        mass=np.diag([2.0, 1.0]),
        jn=np.array([[0.0, 1.0]]),
        jd=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        mu=np.array([0.5]),
    )


def test_validation_rejects_malformed_inputs():
    good = dict(
        mass=np.eye(2),
        jn=np.array([[0.0, 1.0]]),
        jd=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        mu=np.array([0.5]),
    )
    with pytest.raises(ValueError):
        ImpactProblem(**{**good, "mass": np.array([[1.0, 0.5], [0.0, 1.0]])})
    with pytest.raises(ValueError):
        ImpactProblem(**{**good, "mass": -np.eye(2)})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="finite"):
            ImpactProblem(**{**good, "mass": [[np.inf]], "jn": [[1.0]],
                             "jd": [[1.0], [-1.0]]})
    with pytest.raises(ValueError):
        ImpactProblem(**{**good, "jn": np.array([[0.0, 0.0]])})
    with pytest.raises(ValueError):
        ImpactProblem(**{**good, "jd": np.array([[1.0, 0.0], [1.0, 0.0]])})
    with pytest.raises(ValueError):
        ImpactProblem(**{**good, "jd": np.array([[1.0, 0.0]])})
    with pytest.raises(ValueError):
        ImpactProblem(**{**good, "mu": np.array([0.0])})
    with pytest.raises(ValueError):
        ImpactProblem(**{**good, "labels": ("A", "B")})


def test_duplicate_contact_labels_are_rejected():
    two = dict(
        mass=np.eye(2),
        jn=np.array([[0.0, 1.0], [1.0, 0.0]]),
        jd=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        mu=np.array([0.5, 0.5]),
    )
    assert ImpactProblem(**two, labels=("A", "B")).labels == ("A", "B")
    with pytest.raises(ValueError, match="distinct"):
        ImpactProblem(**two, labels=("A", "A"))


def test_problem_arrays_are_read_only_copies():
    mass, jn = np.diag([2.0, 1.0]), np.array([[0.0, 1.0]])
    jd, mu = np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.5])
    problem = ImpactProblem(mass=mass, jn=jn, jd=jd, mu=mu)
    for name in ("mass", "jn", "jd", "mu"):
        with pytest.raises(ValueError):
            getattr(problem, name)[0] = 7.0
    for array in (mass, jn, jd, mu):
        assert array.flags.writeable
        array[0] = 9.0  # the caller's arrays stay the caller's
    assert problem.mass[0, 0] == 2.0 and problem.jn[0, 1] == 1.0
    assert problem.jd[0, 0] == 1.0 and problem.mu[0] == 0.5


def test_problem_fields_cannot_be_rebound():
    problem, v0, meta = build_example("phone")
    h = float(meta["h"])
    expected = approximate(problem, v0, h, h / 10.0, 10, 7, UniformSampler(), jobs=1)
    for name in ("mu", "mass", "jn", "jd", "labels"):
        with pytest.raises(FrozenInstanceError):
            setattr(problem, name, getattr(problem, name))
    # The cached step blocks travel with a pickled problem, and the copy
    # is as frozen as the original.
    clone = pickle.loads(pickle.dumps(problem))
    with pytest.raises(FrozenInstanceError):
        clone.mu = 2.0 * clone.mu
    post = approximate(clone, v0, h, h / 10.0, 10, 7, UniformSampler(), jobs=2)
    np.testing.assert_array_equal(post.traj_indices, expected.traj_indices)
    np.testing.assert_array_equal(post.samples.view(np.uint64), expected.samples.view(np.uint64))


def test_default_labels_are_letters():
    problem = _simple_problem()
    assert problem.labels == ("A",)
    assert problem.n_v == 2 and problem.n_contacts == 1
    np.testing.assert_array_equal(problem.jbar, np.vstack([problem.jn, problem.jd]))


def test_mass_solve_matches_direct_inverse(rng):
    problem = _simple_problem()
    rhs = rng.standard_normal((2, 3))
    np.testing.assert_allclose(
        problem.mass_solve(rhs), np.linalg.solve(problem.mass, rhs), atol=1e-12
    )


def test_import_loads_no_scipy():
    # A fresh interpreter, so modules other tests imported do not count.
    src = str(Path(multimpact.__file__).parents[1])
    code = "import sys, multimpact; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_import_loads_neither_the_cli_nor_argparse():
    # The command line and the exporters load only when imported by name.
    src = str(Path(multimpact.__file__).parents[1])
    code = ("import sys, multimpact; print(sorted(m for m in sys.modules if m in "
            "('multimpact.cli', 'multimpact.io', 'argparse', 'csv')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_energy_and_norm_frozen_values():
    ball, v0, _ = build_ball()
    assert kinetic_energy(ball, v0) == pytest.approx(0.5, abs=1e-15)
    assert mass_norm(ball, v0) == pytest.approx(1.0, abs=1e-15)
    phone, pv0, _ = build_example("phone")
    assert kinetic_energy(phone, pv0) == pytest.approx(0.00186466095, abs=1e-14)
    assert mass_norm(phone, pv0) == pytest.approx(0.061068174199004836, rel=1e-12)


def test_is_impacting_threshold_semantics():
    ball, _, _ = build_ball()
    assert is_impacting(ball, np.array([-1.0]))
    assert not is_impacting(ball, np.array([0.0]))
    assert not is_impacting(ball, np.array([1.0]))
    # Approach below the relative tolerance does not count as an impact.
    assert not is_impacting(ball, np.array([-1e-12]))


def test_linear_cone_accepts_resolved_state_and_rejects_tampering():
    phone, v0, _ = build_example("phone")
    v_plus, record = sim_step(phone, v0, np.array([10.0, 10.0]))
    np.testing.assert_allclose(v_plus, anitescu_resolve(phone, v0), atol=1e-10)
    assert in_linear_cone(phone, v_plus, record.lambda_n, record.beta)
    assert not in_linear_cone(phone, v_plus, record.lambda_n - 1.0, record.beta)
    # Friction weights beyond the mu * lambda budget must be rejected.
    assert not in_linear_cone(phone, v_plus, record.lambda_n, record.beta + 10.0)


def test_cone_audit_rejects_impulse_at_separating_contact():
    problem = _simple_problem()
    separating = np.array([0.0, 1.0])
    assert in_linear_cone(problem, separating, np.array([0.0]), np.zeros(2))
    assert not in_linear_cone(problem, separating, np.array([1.0]), np.zeros(2))


def test_pickle_round_trip_preserves_solves(rng):
    problem, v0, _ = build_example("disk_stack")
    clone = pickle.loads(pickle.dumps(problem))
    rhs = rng.standard_normal(problem.n_v)
    np.testing.assert_allclose(clone.mass_solve(rhs), problem.mass_solve(rhs), atol=1e-12)
    np.testing.assert_array_equal(clone.jn, problem.jn)
