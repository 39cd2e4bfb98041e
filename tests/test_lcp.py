"""Unit and property tests for the pivoting complementarity solver."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from multimpact import (
    LcpInstance,
    lemke_many,
    lemke_solve,
    ordered_matvec,
    ordered_sum,
    residuals,
)
from multimpact import lcp as lcp_module
from conftest import random_pd_lcp, solved_parts


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


def test_a_single_vector_sums_as_a_row_of_a_stack():
    rng = np.random.default_rng(12)
    for n in range(12):
        x = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-8, 8, n)
        a = rng.standard_normal((2, n))
        assert ordered_sum(x[1]).tobytes() == ordered_sum(x)[1].tobytes()
        assert ordered_matvec(a, x[1]).tobytes() == ordered_matvec(a, x)[1].tobytes()
    # An empty sum is 0, for one vector and for a stack.
    assert residuals(LcpInstance(np.zeros((0, 0)), np.zeros(0)), np.zeros(0)) == (0.0, 0.0, 0.0)
    stack = residuals(LcpInstance(np.zeros((0, 0)), np.zeros((2, 0))), np.zeros((2, 0)))
    assert [part.tolist() for part in stack] == [[0.0, 0.0]] * 3


KERNEL_SOURCE = Path(lcp_module.__file__).with_name("_lemke.c")
needs_kernel = pytest.mark.skipif(lcp_module.KERNEL is None, reason="the compiled kernel did not load")


def _solves_as_numpy(kernel, monkeypatch) -> bool:
    """Whether ``lemke_many`` gives the numpy bits with ``kernel`` loaded."""
    rng = np.random.default_rng(5)
    m = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=(6, 6))
    q = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(40, 6))
    solved = []
    for handle in (kernel, None):
        monkeypatch.setattr(lcp_module, "KERNEL", handle)
        solved.append(solved_parts(lemke_many(m, q)))
    return solved[0] == solved[1]


def test_the_cached_kernel_is_named_by_its_source_and_compile_command():
    source = KERNEL_SOURCE.read_bytes()
    name = lcp_module._kernel_name(source, lcp_module._CC)
    assert name == lcp_module._kernel_name(bytes(source), tuple(lcp_module._CC))
    assert name != lcp_module._kernel_name(source + b"\n", lcp_module._CC)
    assert name != lcp_module._kernel_name(source, (*lcp_module._CC, "-g"))
    assert name != lcp_module._kernel_name(source, ("gcc", *lcp_module._CC[1:]))
    if lcp_module.KERNEL is not None:
        assert Path(lcp_module.KERNEL._name).name == name


@needs_kernel
@pytest.mark.parametrize("damage", ["garbage", "truncated", "empty"])
@pytest.mark.parametrize("compiler", ["cc", "missing"])
def test_a_damaged_cached_kernel_is_built_again_or_left_to_numpy(
    damage, compiler, tmp_path, monkeypatch
):
    built = Path(lcp_module.KERNEL._name).read_bytes()
    target = tmp_path / lcp_module._kernel_name(KERNEL_SOURCE.read_bytes(), lcp_module._CC)
    target.write_bytes({"garbage": b"not a library", "truncated": built[: len(built) // 2],
                        "empty": b""}[damage])
    if compiler == "missing":
        monkeypatch.setenv("PATH", str(tmp_path / "no-such-dir"))
    kernel = lcp_module._load_kernel(KERNEL_SOURCE, tmp_path)
    if compiler == "missing":
        assert kernel is None
    else:
        assert kernel is not None and target.stat().st_size > len(built) // 2
        assert _solves_as_numpy(kernel, monkeypatch)
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("fault", ["missing-compiler", "failing-compiler", "cache-not-a-dir", "no-source"])
def test_a_kernel_that_cannot_be_built_leaves_numpy_to_solve(fault, tmp_path, monkeypatch):
    source, cache, command = KERNEL_SOURCE, tmp_path / "cache", lcp_module._CC
    if fault == "missing-compiler":
        command = (str(tmp_path / "no-such-cc"), *command[1:])
    elif fault == "failing-compiler":
        command = ("false", *command[1:])
    elif fault == "cache-not-a-dir":
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"
    else:
        source = tmp_path / "missing.c"
    assert lcp_module._load_kernel(source, cache, command) is None
    assert not list(tmp_path.rglob("*.tmp"))
    # The fallback gives the kernel's bits (see tests/test_lockstep.py).
    if lcp_module.KERNEL is not None:
        assert _solves_as_numpy(lcp_module.KERNEL, monkeypatch)


@pytest.mark.parametrize("build", ["succeeds", "fails"])
def test_a_build_that_succeeds_removes_the_stale_kernels(build, tmp_path):
    stale = [tmp_path / "_lemke.00000000.so", tmp_path / "_lemke.0badcafe.so"]
    for path in stale:
        path.write_bytes(b"an older library")
    other = tmp_path / "notes.txt"
    other.write_text("kept")
    command = lcp_module._CC if build == "succeeds" else ("false", *lcp_module._CC[1:])
    kernel = lcp_module._load_kernel(KERNEL_SOURCE, tmp_path, command)
    assert other.exists()
    if build == "fails":
        assert kernel is None
        assert all(path.exists() for path in stale)
    else:
        target = tmp_path / lcp_module._kernel_name(KERNEL_SOURCE.read_bytes(), command)
        assert kernel is not None
        assert sorted(tmp_path.glob("_lemke.*")) == [target]


@needs_kernel
def test_a_compiler_without_128_bit_integers_builds_no_kernel(tmp_path):
    # The draws and the CSV rows need them: the source stops at its
    # #error, no half kernel loads, and the cache keeps its libraries.
    kept = tmp_path / lcp_module._kernel_name(KERNEL_SOURCE.read_bytes(), lcp_module._CC)
    kept.write_bytes(Path(lcp_module.KERNEL._name).read_bytes())
    stale = tmp_path / "_lemke.0badcafe.so"
    stale.write_bytes(b"an older library")
    command = (*lcp_module._CC, "-U__SIZEOF_INT128__")
    assert lcp_module._load_kernel(KERNEL_SOURCE, tmp_path, command) is None
    assert sorted(tmp_path.iterdir()) == sorted([kept, stale])


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_compiler_process_outlives_a_build_that_times_out(tmp_path, monkeypatch):
    # A stand-in compiler that starts a child of its own and never ends:
    # the timeout kills both, and the build falls back to numpy.
    monkeypatch.setattr(lcp_module, "_BUILD_TIMEOUT_S", 1.0)
    script = 'echo $$ > "$1.pids"; sleep 30 & echo $! >> "$1.pids"; wait'
    command = ("sh", "-c", script)
    assert lcp_module._load_kernel(KERNEL_SOURCE, tmp_path, command) is None
    pids = [int(line) for pids in tmp_path.glob("*.pids") for line in pids.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 5.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(map(_running, pids))
