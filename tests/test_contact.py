"""Tests for the contact problem container and feasibility audits."""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

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
from multimpact.contact import APPROACH_TOL, CONE_TOL, MASS_SYMMETRY_TOL
from multimpact.lcp import ordered_matvec, ordered_sum
from conftest import random_spd_matrix


def _simple_problem() -> ImpactProblem:
    return ImpactProblem(
        mass=np.diag([2.0, 1.0]),
        jn=np.array([[0.0, 1.0]]),
        jt=np.array([[1.0, 0.0]]),
        mu=np.array([0.5]),
    )


def test_validation_rejects_malformed_inputs():
    good = dict(
        mass=np.eye(2),
        jn=np.array([[0.0, 1.0]]),
        jt=np.array([[1.0, 0.0]]),
        mu=np.array([0.5]),
    )
    with pytest.raises(ValueError):
        ImpactProblem(**{**good, "mass": np.array([[1.0, 0.5], [0.0, 1.0]])})
    with pytest.raises(ValueError):
        ImpactProblem(**{**good, "mass": -np.eye(2)})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="finite"):
            ImpactProblem(**{**good, "mass": [[np.inf]], "jn": [[1.0]], "jt": [[1.0]]})
    with pytest.raises(ValueError):
        ImpactProblem(**{**good, "jn": np.array([[0.0, 0.0]])})
    with pytest.raises(ValueError, match=r"jt must have shape \(m, n_v\)"):
        ImpactProblem(**{**good, "jt": np.array([[1.0, 0.0], [0.0, 1.0]])})
    with pytest.raises(ValueError):
        ImpactProblem(**{**good, "mu": np.array([0.0])})
    with pytest.raises(ValueError):
        ImpactProblem(**{**good, "labels": ("A", "B")})


# The fields of a valid one-contact problem; a problem copies its arrays.
_ONE_CONTACT = dict(
    mass=np.eye(2),
    jn=np.array([[0.0, 1.0]]),
    jt=np.array([[1.0, 0.0]]),
    mu=np.array([0.5]),
)


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"mass": np.array([[1.0, 0.2], [0.2 + 1e-6, 1.0]])}, "mass matrix must be symmetric"),
        ({"mass": np.ones((2, 3))}, "mass matrix must be square"),
        ({"jn": np.array([[0.0, 1.0, 0.0]])}, r"jn must have shape \(m, n_v\)"),
        ({"mu": np.array([0.5, 0.5])}, "mu must have one entry per contact"),
        # Accepted, these reached the LCP as "M and q must be finite".
        ({"jn": np.array([[np.nan, 1.0]])}, "jn must be finite"),
        ({"jt": np.array([[np.inf, 0.0]])}, "jt must be finite"),
        ({"mu": np.array([np.inf])}, "mu must be finite"),
        ({"mu": np.array([np.nan])}, "mu must be finite"),
    ],
    ids=["mass-asymmetric", "mass-not-square", "jn-width", "mu-length", "jn-nan", "jt-inf",
         "mu-inf", "mu-nan"],
)
def test_problem_rejects_each_malformed_field(edit, message):
    with pytest.raises(ValueError, match=message):
        ImpactProblem(**{**_ONE_CONTACT, **edit})


def test_mass_symmetry_is_checked_at_its_stated_tolerance_alone():
    # 1e-12 * (1 + max |M|) = 2e-12 here; numpy's relative tolerance
    # would let 1e-6 through as well.
    ImpactProblem(**{**_ONE_CONTACT, "mass": np.array([[1.0, 0.2], [0.2 + 1e-12, 1.0]])})
    with pytest.raises(ValueError, match="symmetric"):
        ImpactProblem(**{**_ONE_CONTACT, "mass": np.array([[1.0, 0.2], [0.2 + 1e-11, 1.0]])})


def test_mass_symmetry_accepts_a_difference_at_its_tolerance_and_not_one_ulp_above():
    # Against a zero entry the difference is the entry itself, exactly.
    atol = MASS_SYMMETRY_TOL * (1 + 1.0)
    ImpactProblem(**{**_ONE_CONTACT, "mass": np.array([[1.0, 0.0], [atol, 1.0]])})
    above = np.nextafter(atol, np.inf)
    with pytest.raises(ValueError, match="symmetric"):
        ImpactProblem(**{**_ONE_CONTACT, "mass": np.array([[1.0, 0.0], [above, 1.0]])})


def test_mass_symmetry_rejects_an_overflowing_difference_without_a_warning():
    # 1.7e308 - (-1.7e308) overflows to inf, which is no symmetric mass.
    big = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for mass in ([[big, big], [-big, big]], [[big, -big], [big, big]]):
            with pytest.raises(ValueError, match="symmetric"):
                ImpactProblem(**{**_ONE_CONTACT, "mass": np.array(mass)})


def test_duplicate_contact_labels_are_rejected():
    two = dict(
        mass=np.eye(2),
        jn=np.array([[0.0, 1.0], [1.0, 0.0]]),
        jt=np.array([[1.0, 0.0], [0.0, 1.0]]),
        mu=np.array([0.5, 0.5]),
    )
    assert ImpactProblem(**two, labels=("A", "B")).labels == ("A", "B")
    with pytest.raises(ValueError, match="distinct"):
        ImpactProblem(**two, labels=("A", "A"))


def test_problem_arrays_are_read_only_copies():
    mass, jn = np.diag([2.0, 1.0]), np.array([[0.0, 1.0]])
    jt, mu = np.array([[1.0, 0.0]]), np.array([0.5])
    problem = ImpactProblem(mass=mass, jn=jn, jt=jt, mu=mu)
    for name in ("mass", "jn", "jt", "jd", "mu"):
        with pytest.raises(ValueError):
            getattr(problem, name)[0] = 7.0
    for array in (mass, jn, jt, mu):
        assert array.flags.writeable
        array[0] = 9.0  # the caller's arrays stay the caller's
    assert problem.mass[0, 0] == 2.0 and problem.jn[0, 1] == 1.0
    assert problem.jt[0, 0] == 1.0 and problem.jd[1, 0] == -1.0 and problem.mu[0] == 0.5


def test_doubled_tangent_rows_are_derived_from_jt(rng):
    jt = rng.standard_normal((3, 4))
    jt[1, 2] = 0.0
    problem = ImpactProblem(
        mass=random_spd_matrix(rng, 4), jn=rng.standard_normal((3, 4)), jt=jt, mu=np.ones(3)
    )
    want = np.empty((6, 4))
    for i in range(3):
        want[2 * i], want[2 * i + 1] = jt[i], -jt[i]
    assert problem.jd.tobytes() == want.tobytes()
    assert not problem.jd.flags.writeable
    with pytest.raises(ValueError):
        problem.jd[0, 0] = 1.0
    with pytest.raises(TypeError):  # derived, never passed
        ImpactProblem(**{"mass": np.eye(1), "jn": [[1.0]], "jd": [[1.0], [-1.0]], "mu": [1.0]})


def test_problem_fields_cannot_be_rebound():
    problem, v0, meta = build_example("phone")
    h = float(meta["h"])
    expected = approximate(problem, v0, h, h / 10.0, 10, 7, UniformSampler(), jobs=1)
    for name in ("mu", "mass", "jn", "jt", "jd", "labels"):
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


def test_approximate_on_one_job_loads_no_multiprocessing():
    # One range runs in this process, so no child starts and the module
    # that starts them is never imported.
    src = str(Path(multimpact.__file__).parents[1])
    code = ("import sys, multimpact as mm; p, v0, meta = mm.build_example('phone'); "
            "h = float(meta['h']); "
            "post = mm.approximate(p, v0, h, h / 10, 10, 8, mm.SobolSampler(), jobs=1); "
            "print(len(post.traj_indices) + post.rejected_count, "
            "'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["8", "False"]


# The package's names before its list was built from the modules' lists.
_EXPORTED_BEFORE = """
    ImpactProblem in_linear_cone is_impacting kinetic_energy mass_norm
    MultimpactError LcpSolveError ConeViolationError NonDegeneracyViolation
    SequentialCapExceeded SceneFormatError LcpInstance LcpSolution
    lemke_solve lemke_many residuals DenseTrajectory brute_force_lcp
    routh_dense_reference ImpactLcpLayout StepRecord Trajectory
    assemble_impact_lcp sim_step sim step_block sim_block anitescu_resolve
    sequential_resolve baselines restrict_contacts compute_r
    termination_constant tail_bound Scene build_ball build_example
    build_problem contact_jacobians gap list_examples load_scene mass_matrix
    reflect_map PostImpactSet SobolSampler UniformSampler psi approximate
    epsilon_net_check sample_count_bound estimate_step_lipschitz
    classify_outcomes __version__
""".split()


def test_package_exports_every_module_name_once():
    names = multimpact.__all__
    assert len(names) == len(set(names))
    assert set(_EXPORTED_BEFORE) <= set(names)
    for name in names:
        getattr(multimpact, name)  # raises if the name does not resolve


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


@pytest.mark.parametrize(
    "lambda_n, beta", [(np.zeros(2), np.zeros(2)), (np.zeros(1), np.zeros(3))],
    ids=["normal-length", "friction-length"],
)
def test_cone_audit_rejects_impulses_of_the_wrong_length(lambda_n, beta):
    problem = _simple_problem()
    with pytest.raises(ValueError, match="impulse vectors do not match the contact count"):
        in_linear_cone(problem, np.zeros(2), lambda_n, beta)


def test_pickle_round_trip_preserves_solves(rng):
    problem, v0, _ = build_example("disk_stack")
    clone = pickle.loads(pickle.dumps(problem))
    rhs = rng.standard_normal(problem.n_v)
    np.testing.assert_allclose(clone.mass_solve(rhs), problem.mass_solve(rhs), atol=1e-12)
    np.testing.assert_array_equal(clone.jn, problem.jn)


# The checks on arrays.  Neither the impact test nor the cone audit has
# a one-state path: one state sums as a row of a stack, in ordered sums.


def _impacting_on_arrays(problem, v):
    rates, speed = ordered_matvec(problem.jn, v), np.sqrt(ordered_sum(v * v))
    return rates.min(axis=-1) < -APPROACH_TOL * (1.0 + speed)


def _cone_conditions_on_arrays(problem, v_plus, lambda_n, beta):
    """Whether each of the audit's six conditions holds, in docstring
    order, for one state or per row of a stack."""
    stack = v_plus.shape[:-1]
    m = problem.n_contacts
    jn_v = ordered_matvec(problem.jn, v_plus)
    jd_v = ordered_matvec(problem.jd, v_plus).reshape(*stack, m, 2)
    beta2 = beta.reshape(*stack, m, 2)
    gamma = np.maximum(0.0, -jd_v.min(axis=-1))
    budget = problem.mu * lambda_n - (beta2[..., 0] + beta2[..., 1])
    return [
        ~(lambda_n < -CONE_TOL).any(axis=-1),
        ~(beta < -CONE_TOL).any(axis=-1),
        ~(lambda_n * jn_v > CONE_TOL).any(axis=-1),
        ~(beta2 * (jd_v + gamma[..., None]) > CONE_TOL).any(axis=(-2, -1)),
        ~(budget < -CONE_TOL).any(axis=-1),
        ~(gamma * budget > CONE_TOL).any(axis=-1),
    ]


def _in_cone_on_arrays(problem, v_plus, lambda_n, beta):
    return np.logical_and.reduce(_cone_conditions_on_arrays(problem, v_plus, lambda_n, beta))


def _near(x) -> list[float]:
    """``x`` and its two float neighbours."""
    x = float(x)
    return [x, float(np.nextafter(x, -np.inf)), float(np.nextafter(x, np.inf))]


@settings(max_examples=600)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5))
def test_one_state_verdicts_are_those_of_the_array_checks(data, seed, m):
    rng = np.random.default_rng(seed)
    n_v = int(rng.integers(2, 7))
    jn = rng.standard_normal((m, n_v))
    # A row along a coordinate axis makes contact 0's rate an exact entry
    # of v, so a state can sit exactly on the approach threshold.
    if data.draw(st.booleans(), label="axis row"):
        jn[0] = np.eye(n_v)[0]
    problem = ImpactProblem(
        mass=random_spd_matrix(rng, n_v), jn=jn, jt=rng.standard_normal((m, n_v)),
        mu=rng.uniform(0.1, 2.0, m),
    )

    def pick(pool, label):
        return data.draw(st.sampled_from(pool), label=label)

    v = pick([1e-9, 1.0, 1e3], "scale") * rng.standard_normal(n_v)
    v[1] = pick([v[1], 0.0, -0.0, 0.25, -0.25], "v[1]")
    v[0] = 0.0
    for _ in range(2):  # v[0]^2 is far below an ulp of |v|^2 unless |v| is tiny
        v[0] = -APPROACH_TOL * (1.0 + np.sqrt(np.sum(v * v)))
    v[0] = pick([*_near(v[0]), 0.0, -0.0, 0.5, float(rng.standard_normal())], "v[0]")

    impacting = bool(_impacting_on_arrays(problem, v))
    event(f"impacting: {impacting}")
    assert is_impacting(problem, v) is impacting
    np.testing.assert_array_equal(
        is_impacting(problem, v[None]), _impacting_on_arrays(problem, v[None])
    )


# A sliding state of ``_simple_problem`` (tangent rates +1 and -1) that
# passes the audit, and one tampered copy per condition that fails it.
_SLIDING = ([1.0, 0.0], [1.0], [0.0, 0.5])
_TAMPERED = {
    "negative normal impulse": ([1.0, 0.0], [-1.5e-8], [0.0, 0.0]),
    "negative friction weight": ([0.0, 0.0], [0.0], [-1.5e-8, 0.0]),
    "impulse at a separating contact": ([0.0, 1.0], [1.0], [0.0, 0.0]),
    "weight on a rising tangent direction": ([1.0, 0.0], [1.0], [0.5, 0.0]),
    "weights beyond the budget": ([1.0, 0.0], [1.0], [0.0, 0.6]),
    "slip inside the budget": ([1.0, 0.0], [1.0], [0.0, 0.4]),
}


@pytest.mark.parametrize("condition", range(6), ids=list(_TAMPERED))
def test_each_cone_condition_rejects_its_tampered_state(condition):
    problem = _simple_problem()
    base = [np.array(x) for x in _SLIDING]
    assert _in_cone_on_arrays(problem, *base)
    assert in_linear_cone(problem, *base)
    tampered = [np.array(x) for x in list(_TAMPERED.values())[condition]]
    held = _cone_conditions_on_arrays(problem, *tampered)
    assert [i for i, ok in enumerate(held) if not ok] == [condition]
    assert not in_linear_cone(problem, *tampered)
    assert in_linear_cone(problem, *(x[None] for x in tampered)).tolist() == [False]


# States of ``_simple_problem`` with one condition exactly at its
# tolerance, and the entry whose next float away from 0 breaks only that
# condition: (v_plus, lambda_n, beta), (array, index).
_AT_TOLERANCE = {
    "normal impulse at -tol": (([1.0, 0.0], [-CONE_TOL], [0.0, 0.0]), (1, 0)),
    "weight 0 at -tol": (([0.0, 0.0], [0.0], [-CONE_TOL, 0.0]), (2, 0)),
    "weight 1 at -tol": (([0.0, 0.0], [0.0], [0.0, -CONE_TOL]), (2, 1)),
    "impulse times separation at tol": (([0.0, 0.5], [2 * CONE_TOL], [0.0, 0.0]), (1, 0)),
    "weight 0 times its slip at tol": (([0.25, 0.0], [4 * CONE_TOL], [2 * CONE_TOL, 0.0]), (2, 0)),
    "weight 1 times its slip at tol": (([-0.25, 0.0], [4 * CONE_TOL], [0.0, 2 * CONE_TOL]), (2, 1)),
    "budget at -tol": (([1.0, 0.0], [0.0], [0.0, CONE_TOL]), (2, 1)),
    "slip times budget at tol": (([1.0, 0.0], [2 * CONE_TOL], [0.0, 0.0]), (1, 0)),
}


@pytest.mark.parametrize("case", list(_AT_TOLERANCE))
def test_each_cone_condition_holds_at_its_tolerance_and_not_beyond(case):
    problem = _simple_problem()
    state, (which, index) = _AT_TOLERANCE[case]
    state = [np.array(x) for x in state]
    assert in_linear_cone(problem, *state)
    assert in_linear_cone(problem, *(x[None] for x in state)).tolist() == [True]
    entry = state[which][index]
    state[which][index] = np.nextafter(entry, np.copysign(np.inf, entry))
    held = _cone_conditions_on_arrays(problem, *state)
    assert sum(not ok for ok in held) == 1
    assert not in_linear_cone(problem, *state)
    assert in_linear_cone(problem, *(x[None] for x in state)).tolist() == [False]


def test_a_rate_exactly_at_the_approach_threshold_is_settled():
    problem = _simple_problem()
    rate = -APPROACH_TOL * (1.0 + APPROACH_TOL)  # |v| = -rate gives back rate
    v = np.array([0.0, rate])
    assert -APPROACH_TOL * (1.0 + math.sqrt(rate * rate)) == rate
    assert not is_impacting(problem, v)
    assert is_impacting(problem, v[None]).tolist() == [False]
    v[1] = np.nextafter(rate, -np.inf)
    assert is_impacting(problem, v)
    assert is_impacting(problem, v[None]).tolist() == [True]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_state_reads_as_impacting(bad):
    problem = _simple_problem()
    for entry in range(2):
        v = np.array([0.0, 1.0])  # separating
        v[entry] = bad
        stack = np.array([[0.0, 1.0], v, [0.0, -1.0]])
        with np.errstate(invalid="ignore"):  # 0 * inf in the rates
            assert is_impacting(problem, v) is True
            assert is_impacting(problem, stack).tolist() == [False, True, True]
    # A finite state whose |v| overflows has no meaningful threshold either.
    assert is_impacting(problem, np.array([1e200, 1.0])) is True


@pytest.mark.parametrize("where", ["v_plus", "lambda_n", "beta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_state_fails_the_cone_audit(where, bad):
    problem = _simple_problem()
    state = dict(zip(("v_plus", "lambda_n", "beta"), (np.array(x) for x in _SLIDING)))
    state[where][-1] = bad
    if (where, bad) == ("lambda_n", np.inf):
        state["beta"][:] = 0.0  # else only the budget holds an infinity, inf - inf
    with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf
        assert not in_linear_cone(problem, **state)
        stacked = in_linear_cone(problem, *(x[None] for x in state.values()))
        assert stacked.tolist() == [False]
        # Zero impulses at an infinite or NaN state: each product with the
        # non-finite rate is NaN, which no condition accepts.
        if where == "v_plus":
            assert not in_linear_cone(problem, state["v_plus"], np.zeros(1), np.zeros(2))
