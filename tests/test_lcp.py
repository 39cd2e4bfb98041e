"""Unit and property tests for the pivoting complementarity solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from multimpact import (
    LcpInstance,
    lemke_solve,
    residuals,
)
from multimpact import lcp as lcp_module
from conftest import random_pd_lcp


def test_instance_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LcpInstance(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        LcpInstance(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        LcpInstance(np.array([[np.nan]]), np.zeros(1))


def test_nonnegative_q_short_circuits_to_zero():
    lcp = LcpInstance(np.eye(3), np.array([0.0, 1.0, 2.0]))
    sol = lemke_solve(lcp)
    assert sol.status == "solved"
    assert sol.pivot_count == 0
    np.testing.assert_array_equal(sol.z, np.zeros(3))
    np.testing.assert_array_equal(sol.w, lcp.q)


def test_identity_instance_recovers_negated_q():
    lcp = LcpInstance(np.eye(2), np.array([-1.0, -2.0]))
    sol = lemke_solve(lcp)
    assert sol.status == "solved"
    np.testing.assert_allclose(sol.z, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(sol.w, 0.0, atol=1e-12)


def test_hand_worked_two_by_two():
    # 2z1 + z2 = 5 and z1 + 2z2 = 6 with both w components pinned to zero.
    lcp = LcpInstance(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([-5.0, -6.0]))
    sol = lemke_solve(lcp)
    assert sol.status == "solved"
    np.testing.assert_allclose(sol.z, [4.0 / 3.0, 7.0 / 3.0], atol=1e-12)


def test_infeasible_instance_terminates_on_ray():
    # w = -z + q with q < 0 admits no nonnegative solution at all.
    sol = lemke_solve(LcpInstance(-np.eye(2), np.array([-1.0, -1.0])))
    assert sol.status == "ray_termination"


def test_pivot_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(lcp_module, "MAX_PIVOTS", 1)
    lcp = LcpInstance(np.eye(2), np.array([-1.0, -2.0]))
    sol = lemke_solve(lcp)
    assert sol.status == "max_pivots"
    assert sol.pivot_count == 1


def test_solution_is_deterministic():
    rng = np.random.default_rng(7)
    lcp = random_pd_lcp(rng, 6)
    first = lemke_solve(lcp)
    second = lemke_solve(lcp)
    np.testing.assert_array_equal(first.z, second.z)
    assert first.pivot_count == second.pivot_count


def test_residuals_reports_violations():
    lcp = LcpInstance(np.eye(2), np.array([-1.0, 1.0]))
    comp_gap, neg_z, neg_w = residuals(lcp, np.array([1.0, 0.0]))
    assert comp_gap <= 1e-15 and neg_z == 0.0 and neg_w == 0.0
    comp_gap, neg_z, neg_w = residuals(lcp, np.array([2.0, -0.5]))
    assert neg_z == 0.5
    assert comp_gap > 0.5


@given(seed=st.integers(0, 10_000), n=st.integers(1, 9))
def test_positive_definite_instances_solve_and_certify(seed: int, n: int):
    lcp = random_pd_lcp(np.random.default_rng(seed), n)
    sol = lemke_solve(lcp)
    assert sol.status == "solved"
    comp_gap, neg_z, neg_w = residuals(lcp, sol.z)
    scale = 1.0 + float(np.linalg.norm(lcp.q))
    assert comp_gap <= 1e-9 * scale
    assert neg_z <= 1e-9 and neg_w <= 1e-9 * scale


@given(seed=st.integers(0, 10_000))
def test_skew_symmetric_instances_never_cycle(seed: int):
    # Skew-symmetric matrices are the hard degenerate family for pivoting
    # rules; the lexicographic tie-break must still terminate cleanly.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 5))
    lcp = LcpInstance(a - a.T, rng.standard_normal(5))
    sol = lemke_solve(lcp)
    assert sol.status in ("solved", "ray_termination")
    if sol.status == "solved":
        comp_gap, neg_z, neg_w = residuals(lcp, sol.z)
        assert comp_gap <= 1e-9 * (1.0 + float(np.linalg.norm(lcp.q)))
        assert max(neg_z, neg_w) <= 1e-9


def test_serial_sum_adds_left_to_right_as_numpy_does_below_eight_terms():
    # One-instance certification and one-state verdicts sum Python floats
    # by this helper; below 8 terms it keeps the bits of ``np.sum``, on
    # every Python version (builtin ``sum`` compensates from 3.12 on).
    rng = np.random.default_rng(11)
    for n in range(8):
        for _ in range(50):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
            x[rng.random(n) < 0.3] = rng.choice([0.0, -0.0])
            got = lcp_module._serial_sum(x.tolist())
            assert np.float64(got).tobytes() == np.sum(x).tobytes(), n
        zeros = -np.zeros(n)
        assert np.float64(lcp_module._serial_sum(zeros.tolist())).tobytes() == np.sum(zeros).tobytes()
    # Cancellation that compensated summation would recover.
    assert lcp_module._serial_sum([1e16, 1.0, -1e16]) == 0.0
