"""Tests for lockstep stepping: results do not depend on the block size
or the job count, ``sim`` and ``approximate`` agree bit for bit, the
single-instance Lemke solver gives bitwise the row of a stack of one,
and the fan-out over threads reports errors as a serial run would, stops
within a block of a failure and leaves no thread or process behind."""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import os
import pickle
import random
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from multimpact import (
    ImpactProblem,
    LcpInstance,
    LcpSolution,
    SobolSampler,
    UniformSampler,
    anitescu_resolve,
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
    sequential_resolve,
    sim,
    sim_step,
    step_block,
)
from multimpact import errors
from multimpact import lcp as lcp_module
from multimpact import contact, resolution, setapprox
from multimpact.errors import LcpSolveError
from multimpact.io import set_to_csv
from multimpact.lcp import RESIDUAL_TOL, ordered_matvec
from multimpact.resolution import _workspace
from conftest import deciding_paths, forbid_numpy, kernel_paths, random_spd_matrix, solved_parts
from test_resolution import _sweep_outcomes

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


def test_no_child_process_outlives_approximate():
    before, threads = _child_pids(), threading.enumerate()
    _run_seven("compass", 3)
    assert _child_pids() <= before
    assert threading.enumerate() == threads


def _fail_on(monkeypatch, bad):
    """Make ``setapprox._run_block`` raise ``LcpSolveError`` for any block
    holding a trajectory index in ``bad``, naming the lowest such index."""
    real = setapprox._run_block

    def run_block(problem, v0, h, n_max, sampler, finishing, first, count):
        held = bad & set(range(first, first + count))
        if held:
            raise LcpSolveError("ray_termination", f"trajectory {min(held)}")
        return real(problem, v0, h, n_max, sampler, finishing, first, count)

    monkeypatch.setattr(setapprox, "_run_block", run_block)


@pytest.mark.parametrize(
    "bad",
    [{3, 5}, {1}],
    ids=["child-shares-raise", "own-share-raises"],
)
def test_a_failing_share_raises_as_a_serial_run_would(bad, monkeypatch):
    problem, v0, meta = build_example("phone")
    h, n = float(meta["h"]), int(meta["n_steps"])
    sampler = UniformSampler(seed=2)
    _fail_on(monkeypatch, bad)
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


def test_a_later_ranges_error_leaves_the_earlier_ranges_whole(monkeypatch):
    # Ranges [0, 2), [2, 4) and [4, 7): trajectory 4 raises first, and the
    # two earlier ranges run every block only after its thread has ended.
    monkeypatch.setattr(setapprox, "BLOCK_SIZE", 1)
    problem, v0, meta = build_example("phone")
    h, n = float(meta["h"]), int(meta["n_steps"])
    sampler = UniformSampler(seed=2)
    _fail_on(monkeypatch, {3, 4})
    with pytest.raises(LcpSolveError) as serial:
        approximate(problem, v0, h, h / 10.0, n, 7, sampler, jobs=1)
    failing, later, entered, ran = setapprox._run_block, [], threading.Event(), []

    def run_block(*args):
        first = args[-2]
        ran.append(first)
        if first >= 4:
            later.append(threading.current_thread())
            entered.set()
        else:
            assert entered.wait(30.0)
            later[0].join(30.0)
        return failing(*args)

    monkeypatch.setattr(setapprox, "_run_block", run_block)
    with pytest.raises(LcpSolveError) as fanned:
        approximate(problem, v0, h, h / 10.0, n, 7, sampler, jobs=3)
    assert str(fanned.value) == str(serial.value) and "trajectory 3" in str(serial.value)
    assert sorted(ran) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "error", [LcpSolveError("max_pivots", "own share"), KeyboardInterrupt("own share")],
    ids=["error", "interrupt"],
)
def test_other_ranges_stop_when_the_own_range_raises(error, monkeypatch):
    monkeypatch.setattr(setapprox, "BLOCK_SIZE", 1)
    problem, v0, meta = build_example("phone")
    h = float(meta["h"])
    caller, raised, blocks = threading.get_ident(), threading.Event(), collections.Counter()

    def run_block(*args):
        if threading.get_ident() == caller:
            raised.set()
            raise error
        blocks[threading.get_ident()] += 1
        assert raised.wait(30.0)
        time.sleep(0.05)
        return np.zeros((args[-1], problem.n_v)), np.zeros(args[-1], dtype=bool)

    monkeypatch.setattr(setapprox, "_run_block", run_block)
    threads = threading.enumerate()
    # Ranges [0, 2), [2, 4) and [4, 7): the other two hold 2 and 3 blocks.
    with pytest.raises(type(error), match="own share"):
        approximate(problem, v0, h, h / 10.0, int(meta["n_steps"]), 7, UniformSampler(), jobs=3)
    assert threading.enumerate() == threads
    assert len(blocks) == 2 and max(blocks.values()) == 1


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
    """The LCPs that ``resolution`` solves one at a time at a bundled
    scene's ``v0``: the uncapped resolution's and each single contact's,
    which the numpy step hands to ``_certified_solve`` as stacks of one,
    or ``compute_r``'s skew-symmetric one, which goes to ``lemke_solve``."""
    problem, v0, _ = build_example(name)
    seen = []
    certified_solve = resolution._certified_solve

    def record(lcp):
        seen.append(lcp)
        return lemke_solve(lcp)

    def record_stack(m, q, context):
        seen.extend(LcpInstance(m, row) for row in q)
        return certified_solve(m, q, context)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lcp_module, "KERNEL", None)
        patch.setattr(resolution, "lemke_solve", record)
        patch.setattr(resolution, "_certified_solve", record_stack)
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
    assert single.w.tobytes() == stack_of_one.w[0].tobytes()


STEP_SCENES = ["phone", "compass", "box_wall", "disk_stack"]
ONE_AT_A_TIME = [
    f"{kind}-{name}"
    for kind in ("uncapped", "single-contact", "compute_r")
    for name in ("ball", *STEP_SCENES)
]


def _assert_rows_alike(m, q):
    """Each row of ``lemke_many(m, q)`` is bitwise its stack of one and
    ``lemke_solve``'s solve.  Arrays compare by bytes, so a -0.0 where
    the other has 0.0 fails.  Returns the stack's solution."""
    many = lemke_many(m, q)
    for i, row in enumerate(q):
        alone = lemke_many(m, row[None])
        assert alone.z[0].tobytes() == many.z[i].tobytes()
        assert alone.w[0].tobytes() == many.w[i].tobytes()
        assert alone.pivot_count[0] == many.pivot_count[i]
        assert alone.status[0] == many.status[i]
        _assert_solved_alike(lemke_solve(LcpInstance(m, row)), alone)
    return many


def _with_negative_zeros(stack):
    """``stack`` with every zero of ``q`` in its even rows made -0.0."""
    q = stack.q.copy()
    even = q[::2]
    even[even == 0.0] = -0.0
    return LcpInstance(stack.m, q)


@pytest.mark.parametrize("name", STEP_SCENES + ONE_AT_A_TIME)
def test_lemke_many_rows_match_a_stack_of_one_and_the_scalar_solver(name, monkeypatch):
    if name in STEP_SCENES:
        stack = _random_step_lcps(name, 60, seed=17)
        stacks = [stack, _with_negative_zeros(stack)]
    else:
        kind, scene = name.rsplit("-", 1)
        stacks = [
            LcpInstance(lcp.m, lcp.q[None]) for lcp in _lcps_solved_one_at_a_time(kind, scene)
        ]
    solved = {}
    for path in kernel_paths(monkeypatch):
        solved[path] = []
        for stack in stacks:
            many = _assert_rows_alike(stack.m, stack.q)
            solved[path].append(solved_parts(many))
            assert np.all(many.status == "solved")
            gap, neg_z, neg_w = residuals(stack, many.z)
            assert max(neg_z.max(), neg_w.max()) <= RESIDUAL_TOL
            scale = 1.0 + np.linalg.norm(many.z, axis=1) * np.linalg.norm(many.w, axis=1)
            assert np.all(gap <= RESIDUAL_TOL * scale)
    assert solved["kernel"] == solved["numpy"]


@pytest.mark.parametrize("max_pivots", [None, 4])
def test_rows_that_end_early_leave_the_other_rows_alike(max_pivots, monkeypatch):
    # Matrices that are not copositive: in most stacks some rows end on a
    # ray, or on a patched pivot budget, while other rows pivot on.
    # Both paths solve the rows of a stack one after another.
    if max_pivots is not None:
        monkeypatch.setattr(lcp_module, "MAX_PIVOTS", max_pivots)
    for path in kernel_paths(monkeypatch):
        rng = np.random.default_rng(20240917)
        ended_early = 0
        seen = set()
        for _ in range(150):
            n = int(rng.integers(2, 7))
            m = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=(n, n))
            q = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(8, n))
            many = _assert_rows_alike(m, q)
            seen.update(many.status)
            stopped = many.status != "solved"
            ended_early += bool(stopped.any()) and bool(
                (many.pivot_count[stopped].min() < many.pivot_count).any()
            )
        assert {"solved", "ray_termination"} <= seen, path
        if max_pivots is not None:
            assert "max_pivots" in seen, path
        assert ended_early >= 50, path


def _walked_first_pivot_row(m, q):
    """The row on which the covering variable enters, by the tie walk
    over every row."""
    table = lcp_module._tableau(np.asarray(m, dtype=float), np.asarray(q, dtype=float))
    return lcp_module._lex_argmin(table, np.arange(len(table)), -table[:, -1])


def test_the_first_pivot_takes_the_last_row_tied_at_the_minimum_of_q():
    problem, v0, meta = build_example("disk_stack")
    caps = np.full(problem.n_contacts, float(meta["h"]))
    disk = assemble_impact_lcp(problem, v0, caps)[0]
    # The stack's symmetric contact pair ties exactly at the minimum.
    assert np.flatnonzero(disk.q == disk.q.min()).tolist() == [5, 6]
    cases = [
        (disk.m, disk.q, 6),
        (np.eye(3), np.array([-1.0, 0.5, -1.0]), 2),
        (np.eye(4), np.array([-2.0, -2.0, -2.0, 1.0]), 2),
        # Within the tie tolerance of the minimum.
        (np.eye(3), np.array([-1.0, -1.0 + 1e-13, 0.5]), 1),
        # A minimum that is nearly zero ties with the zero rows after it.
        (np.eye(3), np.array([-1e-13, 0.0, -0.0]), 2),
    ]
    for m, q, last in cases:
        assert _walked_first_pivot_row(m, q) == last
        stack = np.stack([q, q[::-1], np.abs(q) * -1.0])
        walked = [_walked_first_pivot_row(m, row) for row in stack]
        assert lcp_module._first_pivot_row(stack).tolist() == walked
        _assert_rows_alike(m, stack)


def test_the_tie_walk_takes_each_limit_from_the_surviving_keys():
    # ``1 + |x|`` rounds up just below x = -2**-53, so the smaller key
    # x1 has the larger tie limit.  Column 1 drops row 2; in column 2 the
    # survivors' smallest key is then x2, whose limit drops row 0.  The
    # limit of the smallest key over all rows (x1) would keep row 0, so
    # a walk that took it would pick row 0.
    x2 = -(2.0**-53)
    x1 = np.nextafter(x2, -np.inf)
    limit1, limit2 = lcp_module._tie_limit(np.array([x1, x2]))
    assert limit1 > limit2
    table = np.zeros((3, 8))
    table[:, 0] = 0.5
    table[:, 1] = [0.0, 0.0, 1.0]
    table[:, 2] = [limit1, x2, x1]
    assert lcp_module._lex_argmin(table, np.arange(3), np.ones(3)) == 1


def _ratio_walk(values, cand):
    """``_lex_argmin`` on one tableau of three rows whose column 0 holds
    ``values``, with unit denominators and candidates ``cand``."""
    table = np.zeros((3, 8))
    table[:, 0] = values
    table[:, 1:4] = np.eye(3)
    return lcp_module._lex_argmin(table, np.array(cand), np.ones(3))


def test_a_tie_walk_that_a_nan_ratio_leaves_with_no_row_raises():
    # A NaN outside the candidates changes nothing.
    assert _ratio_walk([np.nan, 2.0, 3.0], [1, 2]) == 1
    # A NaN candidate ratio makes the column's minimum NaN, which keeps
    # no row: the walk used to pick row 0, not a candidate.
    with pytest.raises(ValueError, match="the tableau overflowed: a pivot ratio is not a number"):
        _ratio_walk([1.0, np.nan, 3.0], [1, 2])
    # A row that is not a candidate, row 0 included, is never picked.
    values = [np.nan, np.inf, -np.inf, 0.0, 1.0, 2.0, -1.0]
    for column in itertools.product(values, repeat=3):
        for cand in ([1], [2], [1, 2]):
            try:
                with np.errstate(invalid="ignore"):  # the tie limit of -inf
                    picked = _ratio_walk(column, cand)
            except ValueError:
                continue
            assert picked in cand


def _numpy_lex_argmin(table, cand, d):
    """The single-row tie walk on numpy arrays, column by column with no
    column skipped: ``cand`` is an index array and ``d`` the entering
    column."""
    for col in range(table.shape[0] + 1):
        if cand.size == 1:
            break
        vals = table[cand, col] / d[cand]
        low = np.minimum.reduce(vals)
        cand = cand[vals <= low + lcp_module.LEX_TIE_TOL * (1.0 + np.abs(low))]
    return int(cand[0])


_X2 = -(2.0**-53)
_X1 = float(np.nextafter(_X2, -np.inf))
# Families of keys that tie, one family per column: the pair below
# -2**-53 whose smaller key has the larger tie limit, with both limits;
# keys within LEX_TIE_TOL of 1 (and one just outside); zeros of either
# sign and keys within the tolerance of 0; all of them mixed.
_TIE_FAMILIES = [
    [_X1, _X2, lcp_module._tie_limit(_X1), lcp_module._tie_limit(_X2)],
    [1.0, 1.0 + 5e-12, 1.0 - 5e-12, 1.0 + 2e-11],
    [0.0, -0.0, 1e-12, -1e-12],
]
_TIE_FAMILIES.append([x for family in _TIE_FAMILIES for x in family])
_columns = (
    st.sampled_from(_TIE_FAMILIES).flatmap(
        lambda family: st.lists(st.sampled_from(family), min_size=6, max_size=6)
    )
    | st.permutations(_TIE_FAMILIES[0] + _TIE_FAMILIES[0][:2])
    | st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6)
)
# One power of two for every row keeps ties exact; other ratios round.
_ratios = st.sampled_from([1.0, 2.0, 0.5]).map(lambda x: [x] * 6) | st.lists(
    st.sampled_from([1.0, 2.0, 3.0, 1e-3]) | st.floats(1e-10, 10.0), min_size=6, max_size=6
)


@settings(max_examples=300)
@given(
    n=st.integers(1, 6),
    columns=st.lists(_columns, min_size=7, max_size=7),
    copies=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=3),
    d=_ratios,
    picked=st.just([True] * 6) | st.lists(st.booleans(), min_size=6, max_size=6),
)
@example(  # the smallest key x1 has the larger limit, which keeps row 0
    n=3,
    columns=[[0.5] * 6, [lcp_module._tie_limit(_X1), _X2, _X1, 0.0, 0.0, 0.0]] + [[0.0] * 6] * 5,
    copies=[], d=[1.0] * 6, picked=[True] * 6,
)
def test_the_scalar_tie_walk_picks_the_numpy_walks_row(n, columns, copies, d, picked):
    table = np.zeros((n, 2 * n + 2))
    table[:, : n + 1] = np.array(columns).T[:n, : n + 1]
    for src, dst in copies:  # exact duplicate rows
        if max(src, dst) < n:
            table[dst] = table[src]
    cand = [r for r in range(n) if picked[r]] or [n - 1]
    d = np.array(d[:n])
    want = _numpy_lex_argmin(table, np.array(cand), d)
    assert lcp_module._lex_argmin(table, np.array(cand), d) == want


def test_a_degenerate_solve_keeps_the_signs_of_its_zeros(monkeypatch):
    # The first pivot lands on the zero row of q, and a -0.0 then reaches
    # the value column.  An update that forms d * pivot_row as 0 + d *
    # pivot_row (as einsum does) ends with z = [-0.0, -1e-13].
    m = np.array([[0.0, -1.0], [2.0, 0.0]])
    q = np.array([[-1e-13, 0.0]])
    for path in kernel_paths(monkeypatch):
        many = _assert_rows_alike(m, q)
        assert many.z[0].tobytes() == np.array([0.0, -1e-13]).tobytes(), path


def _dyadic_stack(kind):
    """A 96-row stack of LCPs with small dyadic entries, drawn with
    ``random.Random``, whose ``random()`` stream Python keeps fixed.
    Every product that builds it is exact, so it has the same bits on
    any BLAS or CPU.  "monotone" is a PSD plus skew 12x12 ``M`` whose
    rows all solve; "indefinite" a 6x6 ``M`` on which most rows end on
    a ray.  Both hold many ties, also at the first pivot, and -0.0 in
    ``q``."""
    rnd = random.Random(f"{kind}-7")

    def draw(values, shape):
        picks = [values[int(rnd.random() * len(values))] for _ in range(int(np.prod(shape)))]
        return np.array(picks).reshape(shape)

    if kind == "monotone":
        a = draw([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0], (12, 12))
        b = draw([-1.0, 0.0, 0.0, 1.0], (12, 12))
        return a @ a.T + b - b.T, draw([-1.0, -0.5, -0.0, 0.0, 0.0, 0.25, 1.0], (96, 12))
    m = draw([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0], (6, 6))
    return m, draw([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], (96, 6))


# sha256 of lemke_many's z, w, pivot counts and statuses on each stack.
PINNED_LEMKE = {
    "monotone": "36012d995166092126a030a425f6e5fb8f135c0e55c8c327195b4f50c26724b9",
    "indefinite": "985c7f46e9884550f40a9350b2b51634dd603d48033364cdb98efa2c000441d4",
}


@pytest.mark.parametrize("kind", sorted(PINNED_LEMKE))
def test_lemke_many_bytes_are_pinned(kind, monkeypatch):
    # lemke_many uses elementwise arithmetic and index-ordered sums
    # only, so these bytes hold on every platform and on both paths: a
    # change to either that moves a bit of any output shows here.
    for path in kernel_paths(monkeypatch):
        sol = lemke_many(*_dyadic_stack(kind))
        digest = hashlib.sha256()
        for part in (sol.z, sol.w, sol.pivot_count, sol.status):
            digest.update(part.astype(part.dtype.newbyteorder("<")).tobytes())
        assert digest.hexdigest() == PINNED_LEMKE[kind], path


def test_lemke_many_reports_a_status_per_row(monkeypatch):
    for path in kernel_paths(monkeypatch):
        q = np.array([[-1.0, -1.0], [0.0, 2.0], [-1.0, -2.0]])
        sol = lemke_many(-np.eye(2), q)
        assert list(sol.status) == ["ray_termination", "solved", "ray_termination"], path
        assert sol.pivot_count[1] == 0
        np.testing.assert_array_equal(sol.z[1], [0.0, 0.0])
        np.testing.assert_array_equal(sol.w[1], [0.0, 2.0])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lcp_module, "MAX_PIVOTS", 1)
            capped = lemke_many(np.eye(2), np.array([[-1.0, -2.0], [1.0, 1.0]]))
        assert list(capped.status) == ["max_pivots", "solved"], path
        assert list(capped.pivot_count) == [1, 0]


# Entries that make ties and signed zeros likely: few values, zeros of
# both signs, keys within LEX_TIE_TOL of each other, and negative entries,
# so that most matrices are not copositive and many rows end on a ray.
_TIE_HEAVY = [-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.0 + 5e-12, 2.0, 1e-12, -1e-12]


@pytest.mark.skipif(lcp_module.KERNEL is None, reason="the compiled kernel did not load")
@settings(max_examples=300)
@given(
    n=st.integers(1, 7),
    k=st.integers(1, 12),
    budget=st.sampled_from([lcp_module.MAX_PIVOTS, 1, 3]),
    data=st.data(),
)
def test_the_kernel_gives_the_numpy_bits_on_tie_heavy_stacks(n, k, budget, data):
    values = st.sampled_from(_TIE_HEAVY)
    m = np.array(data.draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    q = np.array(data.draw(st.lists(values, min_size=k * n, max_size=k * n))).reshape(k, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lcp_module, "MAX_PIVOTS", budget)
        kernel = lemke_many(m, q)
        patch.setattr(lcp_module, "KERNEL", None)
        fallback = lemke_many(m, q)
    assert solved_parts(kernel) == solved_parts(fallback)


@pytest.mark.skipif(lcp_module.KERNEL is None, reason="the compiled kernel did not load")
@pytest.mark.parametrize("case", ["overflow", "overflow-in-q"])
def test_the_kernel_decides_a_stack_whose_ratios_are_not_finite(case, monkeypatch):
    # The kernel's tie walk keeps a NaN key as numpy's minimum does, so it
    # decides these stacks itself, with the numpy body's bits or error.
    # In the overflow case every candidate ratio of row 0 turns NaN: the
    # walk keeps no row and raises on both paths (it once pivoted on
    # tableau row 0 and ended on a ray).  In the other, ratios overflow
    # to infinities and the stack solves.
    m = np.array([[1.0, 0.0, -1.0], [-1.0, 0.0, 1e308], [1e308, 1.0, 1e-300]])
    q = np.array([[-1.0, 0.0, -2.0], [1.0, 1.0, 1.0]])
    if case == "overflow-in-q":
        m, q = np.array([[1.0, 1.0], [0.5, 1.0]]), np.array([[-1e308, 1.0], [-1.0, -1.0]])
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        forbid_numpy(patch)
        if case == "overflow":
            with pytest.raises(ValueError, match=lcp_module._OVERFLOW):
                lcp_module._kernel_many(m, q)
        else:
            assert len(lcp_module._kernel_many(m, q)) == 4
    outcomes = {path: _outcome(m, q) for path in deciding_paths(monkeypatch)}
    assert outcomes["kernel"] == outcomes["numpy"]
    assert isinstance(outcomes["numpy"], str) == (case == "overflow")


@pytest.mark.parametrize("case", ["inf-in-q", "nan-in-q", "inf-in-m", "nan-in-m"])
def test_lemke_many_rejects_a_stack_that_is_not_finite(case, monkeypatch):
    m = np.array([[1.0, 0.0, -1.0], [-1.0, 0.0, 2.0], [3.0, 1.0, 1e-300]])
    q = np.array([[1.0, 0.0, 2.0], [-1.0, 1.0, 1.0]])
    bad = -np.inf if case.startswith("inf") else np.nan
    (q if case.endswith("q") else m)[0, 1] = bad
    for path in kernel_paths(monkeypatch):
        with pytest.raises(ValueError, match="must be finite"):
            lemke_many(m, q)


# Stacks whose numpy tie walk once met a NaN ratio after an overflow and
# kept no row.  In the first, rows that were not candidates tied at an
# infinite ratio and led the walk to the NaN; a walk among the candidates
# alone solves it as its rows solve alone.  In the second, row 1 raises
# alone too, so the stack raises.
_OVERFLOWING = [
    (
        [[1.0, -1e308, -2.0, 1e308], [0.5, 1e308, 1e308, 0.5],
         [1.0, -1e308, 1e308, 0.5], [0.0, 1e308, 1e308, 1.0]],
        [[-2.0, 0.5, -2.0, -2.0], [0.5, 0.0, 0.0, -1.0], [0.5, -1e308, -1.0, -1.0]],
    ),
    (
        [[0.0, 1.0, 0.5, -2.0], [0.5, 1e308, -1.0, 0.5],
         [0.0, 1e308, -1.0, 1.0], [1e308, -1e308, 1.0, -1.0]],
        [[1e308, -1e308, -2.0, 1.0], [-1e308, -1e308, -1.0, 0.5]],
    ),
]


def _outcome(m, q):
    """``lemke_many``'s bytes, or the message of the ``ValueError`` it raised."""
    try:
        with np.errstate(all="ignore"):
            return solved_parts(lemke_many(m, q))
    except ValueError as exc:
        return str(exc)


def test_stacks_of_huge_entries_solve_or_raise_alike_on_both_paths(monkeypatch):
    # The kernel decides every stack, with no numpy body to fall back on:
    # 58 of the 802 raise, and the other 744 solve.
    rng = np.random.default_rng(0)
    values = [-1e308, 1e308, -1.0, 0.0, 1.0, 0.5, -2.0]
    stacks = [(np.array(m), np.array(q)) for m, q in _OVERFLOWING]
    for _ in range(800):
        n, k = rng.integers(2, 5, size=2)
        stacks.append((rng.choice(values, size=(n, n)), rng.choice(values, size=(k, n))))
    outcomes = {path: [_outcome(m, q) for m, q in stacks] for path in deciding_paths(monkeypatch)}
    assert outcomes["kernel"] == outcomes["numpy"]
    raised = [isinstance(outcome, str) for outcome in outcomes["numpy"]]
    assert raised[: len(_OVERFLOWING)] == [False, True]
    assert outcomes["numpy"][1] == "the tableau overflowed: a pivot ratio is not a number"
    assert sum(raised) == 58
    m, q = stacks[0]
    with np.errstate(all="ignore"):
        stack = lemke_many(m, q)
        for i, row in enumerate(q):
            alone = lemke_many(m, row[None])
            assert alone.z.tobytes() == stack.z[i].tobytes()
            assert alone.status[0] == stack.status[i]


@pytest.mark.skipif(lcp_module.KERNEL is None, reason="the compiled kernel did not load")
@settings(max_examples=100)
@given(n=st.integers(1, 9), k=st.integers(1, 6), data=st.data())
def test_the_kernels_w_is_the_ordered_matvec_of_its_z(n, k, data):
    # On tie-heavy stacks with -0.0 entries, and on other draws; n up to
    # 9 takes every branch of the halving sum.  (The step LCPs' w is
    # compared with the numpy path's in the tests above.)
    values = st.sampled_from(_TIE_HEAVY) | st.floats(-4.0, 4.0)
    m = np.array(data.draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    q = np.array(data.draw(st.lists(values, min_size=k * n, max_size=k * n))).reshape(k, n)
    sol = lemke_many(m, q)
    assert sol.w.tobytes() == (ordered_matvec(m, sol.z) + q).tobytes()



def test_lemke_many_takes_a_square_m_of_the_width_of_q():
    with pytest.raises(ValueError, match="M has shape"):
        lemke_many(np.ones((1, 2)), -np.ones((3, 2)))


SET_SAMPLERS = {"sobol": SobolSampler(), "uniform": UniformSampler(seed=5)}


def _step_bytes(stepped):
    """A step's outputs (``v_after``, ``lambda_n``, ``beta`` and the
    verdicts) as (dtype, bytes) pairs."""
    return [(part.dtype, part.tobytes()) for part in stepped]


def _assert_steps_alike(problem, v, caps, impacting=None):
    """The compiled step, in one kernel call, and the numpy ``_step`` on
    the Lemke fallback give the same bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lcp_module, "KERNEL", None)
        reference = resolution._numpy_step(problem, v, caps, impacting)
    if lcp_module.KERNEL is not None:
        fused = resolution._kernel_step(problem, v, caps, impacting is None)
        assert _step_bytes(fused) == _step_bytes(reference)
    return reference


@pytest.mark.parametrize("sampler", sorted(SET_SAMPLERS))
@pytest.mark.parametrize("name", ["ball", *STEP_SCENES])
def test_a_sampled_set_has_the_same_bytes_on_both_lemke_paths(name, sampler, monkeypatch):
    # The exported sets match on both paths.  The set is one block, which
    # the kernel runs in one call; the reference loop (``sim_block``, then
    # the finishing ``_step``) gives its samples on the kernel, and each
    # step the loop takes there is taken again by the numpy ``_step`` and
    # compared bitwise.
    problem, v0, meta = build_example(name)
    h, n_max, m = float(meta["h"]), int(meta["n_steps"]), problem.n_contacts
    exported = {}
    for path in kernel_paths(monkeypatch):
        post = approximate(problem, v0, h, h / 10.0, n_max, 256, SET_SAMPLERS[sampler])
        exported[path] = set_to_csv(post, problem)
    assert exported["kernel"] == exported["numpy"]
    monkeypatch.undo()
    steps = []
    kernel_step = resolution._kernel_step

    def recording(*args):
        steps.append(args)
        return kernel_step(*args)

    monkeypatch.setattr(resolution, "_kernel_step", recording)
    on_step = []
    v = resolution.sim_block(
        problem, v0, h, n_max, SET_SAMPLERS[sampler], 0, 256, on_step=lambda *s: on_step.append(s)
    )
    finishing = np.broadcast_to(h / 10.0 / (3.0 * psi(problem)) * np.ones(m), (256, m))
    v_fin, _, _, impacting = resolution._step(problem, v, finishing)
    monkeypatch.undo()
    assert v_fin[~impacting].tobytes() == post.samples.tobytes()
    assert len(steps) == len(on_step) + 1 or lcp_module.KERNEL is None
    for problem, v, caps, test_rows in steps:
        _assert_steps_alike(problem, v, caps, None if test_rows else True)


def _count_kernel_calls(monkeypatch) -> collections.Counter:
    """Count each lookup of a kernel entry point from here on, by name;
    skip the test without a kernel."""
    kernel = lcp_module.KERNEL
    if kernel is None:
        pytest.skip("the compiled kernel did not load")
    calls = collections.Counter()

    class Counting:
        def __getattr__(self, name):
            calls[name] += 1
            return getattr(kernel, name)

    monkeypatch.setattr(lcp_module, "KERNEL", Counting())
    return calls


def test_a_lockstep_step_is_one_kernel_call(monkeypatch):
    # The uniform stream draws in numpy, and each step is one call that
    # steps every live row; nothing else is called.
    calls = _count_kernel_calls(monkeypatch)
    problem, v0, meta = build_example("disk_stack")
    steps = []
    resolution.sim_block(
        problem, v0, float(meta["h"]), int(meta["n_steps"]), UniformSampler(seed=2), 0, 64,
        on_step=lambda *step: steps.append(step),
    )
    assert len(steps) > 1
    assert calls == {"step_stack": len(steps)}


@pytest.mark.parametrize("sampler", sorted(SET_SAMPLERS))
def test_a_sampled_block_is_one_kernel_call(sampler, monkeypatch):
    # Each block of a sampled set is one call that takes every step, the
    # draws and the finishing step; the uniform states are seeded once
    # per block, and ``approximate``'s range probe calls nothing.
    calls = _count_kernel_calls(monkeypatch)
    monkeypatch.setattr(setapprox, "BLOCK_SIZE", 32)
    problem, v0, meta = build_example("disk_stack")
    h = float(meta["h"])
    approximate(problem, v0, h, h / 10.0, int(meta["n_steps"]), 64, SET_SAMPLERS[sampler])
    expected = {"sim_stack": 2}
    if sampler == "uniform":
        expected["pcg_seed"] = 2
    assert calls == expected


def test_a_problem_without_contacts_is_rejected():
    with pytest.raises(ValueError, match="a problem needs at least one contact"):
        ImpactProblem(mass=np.eye(2), jn=np.zeros((0, 2)), jt=np.zeros((0, 2)), mu=[])


def _failed_step(step, *args):
    """The type and message of what ``step(*args)`` raised, or ``None``."""
    try:
        step(*args)
    except (LcpSolveError, errors.ConeViolationError) as exc:
        return type(exc), str(exc)
    return None


def test_a_failing_step_raises_alike_on_both_paths(monkeypatch):
    # One stack holds a row that runs out of pivots (the last row), rows
    # that fail certification and rows that fail the cone audit, each
    # forced by a tolerance.  Both paths report the unsolved row, else
    # the first row that fails certification, else the audit.
    problem, v0, meta = build_example("disk_stack")
    rng = np.random.default_rng(3)
    v = v0 + 0.3 * rng.standard_normal((12, problem.n_v))
    caps = float(meta["h"]) * rng.random((12, problem.n_contacts))
    stack, _ = assemble_impact_lcp(problem, v, caps)
    sol = lemke_many(stack.m, stack.q)
    order = np.argsort(sol.pivot_count, kind="stable")
    v, caps, pivots = v[order], caps[order], sol.pivot_count[order]
    assert pivots[-1] > pivots[-2]
    neg_w = lcp_module._residuals(sol.z[order], sol.w[order])[2]
    residual_tol = float(np.median(neg_w))
    assert np.flatnonzero(neg_w > residual_tol)[0] < len(v) - 1
    tolerances = [
        (lcp_module, "MAX_PIVOTS", int(pivots[-1]) - 1),
        (resolution, "RESIDUAL_TOL", residual_tol),
        (contact, "CONE_TOL", -1.0),
    ]
    failures = []
    for first in range(len(tolerances) + 1):
        with pytest.MonkeyPatch.context() as patch:
            for module, name, value in tolerances[first:]:
                patch.setattr(module, name, value)
            if lcp_module.KERNEL is not None:
                fused = _failed_step(resolution._kernel_step, problem, v, caps, True)
            patch.setattr(lcp_module, "KERNEL", None)
            failures.append(_failed_step(resolution._numpy_step, problem, v, caps, True))
        if lcp_module.KERNEL is not None:
            assert fused == failures[-1]
    unsolved, uncertified, cone, passed = failures
    failed = "LCP solve failed with status"
    assert unsolved == (LcpSolveError, f"{failed} 'max_pivots': capped impact step")
    assert uncertified[0] is LcpSolveError
    assert uncertified[1].startswith(f"{failed} 'solved': capped impact step: residuals exceed")
    assert cone == (
        errors.ConeViolationError, "post-step state failed the friction-cone feasibility audit"
    )
    assert passed is None


def _tampered(solve, change):
    """``solve``, but returning ``change(z)`` with that candidate's own ``w``."""

    def broken(m, q):
        sol = solve(m, q)
        z = change(sol.z)
        return LcpSolution(z, ordered_matvec(m, z) + q, sol.pivot_count, sol.status)

    return broken


def _breaking_complementarity(solve):
    """``solve``, but returning ``z + 1``, so that ``z . w`` is far from zero."""
    return _tampered(solve, lambda z: z + 1.0)


@pytest.mark.parametrize(
    "q",
    [[-1.0, -2.0], [[-1.0, -2.0]], [[-1.0, -2.0], [-3.0, 0.5]]],
    ids=["single", "stack-of-one", "stack"],
)
def test_a_solution_breaking_complementarity_fails_certification(q, monkeypatch):
    lcp = LcpInstance(np.eye(2), np.array(q))
    np.testing.assert_array_equal(
        resolution._certified_solve(lcp.m, lcp.q, "capped impact step"), np.maximum(-lcp.q, 0.0)
    )
    monkeypatch.setattr(resolution, "lemke_many", _breaking_complementarity(lemke_many))
    with pytest.raises(LcpSolveError) as failed:
        resolution._certified_solve(lcp.m, lcp.q, "capped impact step")
    assert failed.value.status == "solved"
    assert failed.value.detail.startswith("capped impact step: residuals exceed tolerance (gap=")


def _returning_nan(solve):
    """``solve``, but with a NaN in the first entry of every ``z``."""

    def with_nan(z):
        z = z.copy()
        z[..., 0] = np.nan
        return z

    return _tampered(solve, with_nan)


@pytest.mark.parametrize(
    "q",
    [[-1.0, -2.0], [[-1.0, -2.0]], [[-1.0, -2.0], [-3.0, 0.5]]],
    ids=["single", "stack-of-one", "stack"],
)
def test_a_solution_holding_nan_fails_certification(q, monkeypatch):
    lcp = LcpInstance(np.eye(2), np.array(q))
    monkeypatch.setattr(resolution, "lemke_many", _returning_nan(lemke_many))
    with pytest.raises(LcpSolveError) as failed:
        resolution._certified_solve(lcp.m, lcp.q, "capped impact step")
    assert failed.value.status == "solved"
    assert failed.value.detail.startswith("capped impact step: residuals exceed tolerance (gap=nan")


def _returning_inf(solve):
    """``solve``, but with an infinite first entry in every ``z``, so
    that ``w`` and the residual scale are infinite too."""

    def with_inf(z):
        z = z.copy()
        z[..., 0] = np.inf
        return z

    return _tampered(solve, with_inf)


@pytest.mark.parametrize(
    "q", [[-1.0], [[-1.0]], [[-1.0], [-2.0]]], ids=["single", "stack-of-one", "stack"]
)
def test_a_solution_holding_inf_fails_certification(q, monkeypatch):
    lcp = LcpInstance(np.eye(1), np.array(q))
    monkeypatch.setattr(resolution, "lemke_many", _returning_inf(lemke_many))
    with pytest.raises(LcpSolveError) as failed:
        resolution._certified_solve(lcp.m, lcp.q, "capped impact step")
    assert failed.value.status == "solved"
    assert failed.value.detail.startswith("capped impact step: residuals exceed tolerance (gap=inf")


@pytest.mark.parametrize("name", ["compass", "disk_stack"])
def test_certification_from_the_solvers_w_matches_the_public_residuals(name):
    problem, v0, meta = build_example(name)
    rng = np.random.default_rng(17)
    v = v0 + 0.3 * rng.standard_normal((64, problem.n_v))
    caps = float(meta["h"]) * rng.random((64, problem.n_contacts))
    stack, _ = assemble_impact_lcp(problem, v, caps)
    many = lemke_many(stack.m, stack.q)
    for got, want in zip(lcp_module._residuals(many.z, many.w), residuals(stack, many.z)):
        np.testing.assert_array_equal(got, want)


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
    problem = ImpactProblem(
        mass=random_spd_matrix(rng, n_v),
        jn=jn,
        jt=jt,
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

    # The compiled step gives the numpy step's bytes, also with rows that
    # hold NaN or an infinity and no cap, and rows taken to impact.
    bad = np.vstack([v[:1]] * 3)
    bad[0, 0], bad[1, -1], bad[2, 0] = np.nan, np.inf, -np.inf
    mixed = np.vstack([v, bad])
    stepped = _assert_steps_alike(problem, mixed, np.vstack([caps, np.zeros((3, m))]))
    for got, want in zip(stepped, (v_after, lambda_n, beta)):
        assert got[:k].tobytes() == want.tobytes()
    assert stepped[0][k:].tobytes() == bad.tobytes()
    assert stepped[3][k:].all()
    _assert_steps_alike(problem, v, caps, True)

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


def _baseline_bytes(problem, v, first):
    """``anitescu_resolve``'s velocity and every field of each step record,
    ``v_final`` and ``terminated`` of ``sequential_resolve`` from contact
    ``first``, as bytes, or the type and message of what each raised."""
    outcomes = []
    for resolve in (anitescu_resolve, lambda p, x: sequential_resolve(p, x, [first])):
        try:
            got = resolve(problem, v)
        except errors.MultimpactError as exc:
            outcomes.append((type(exc), str(exc)))
            continue
        if isinstance(got, np.ndarray):
            outcomes.append(got.tobytes())
            continue
        records = [
            [np.asarray(getattr(step, field.name)).tobytes() for field in dataclasses.fields(step)]
            for step in got.steps
        ]
        outcomes.append((records, got.v_final.tobytes(), got.terminated))
    return outcomes


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), first=st.integers(0, 4))
def test_the_baselines_have_the_same_bytes_on_both_paths(seed, m, first):
    # Each uncapped resolution and each sweep is one kernel call.
    problem, v, _ = _random_step(np.random.default_rng(seed), m, 1)
    outcomes = {}
    with pytest.MonkeyPatch.context() as patch:
        for path in deciding_paths(patch):
            outcomes[path] = _baseline_bytes(problem, v[0], first % m)
    assert outcomes["kernel"] == outcomes["numpy"]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5))
def test_sweeps_of_random_problems_give_the_reference_loops_bytes(seed, m):
    # Every sweep is one kernel call, and gives the bytes of a loop on
    # ``restrict_contacts``' one-contact problems, on the kernel and in
    # numpy.
    problem, v, _ = _random_step(np.random.default_rng(seed), m, 1)
    with pytest.MonkeyPatch.context() as patch:
        for _ in deciding_paths(patch):
            ours, reference = _sweep_outcomes(problem, v[0])
            assert ours == reference


# Seeds of ``_random_step(rng, 3, 1)`` whose velocity impacts and whose
# sweep from contact 0 takes more than one resolution.
FAILING_SWEEP_SEEDS = [0, 5, 13]
_SWEEP_FAULTS = {
    "cap": (resolution, "SEQUENTIAL_CAP", 1),
    "pivots": (lcp_module, "MAX_PIVOTS", 1),
    "residuals": (resolution, "RESIDUAL_TOL", -1.0),
    "cone": (contact, "CONE_TOL", -1.0),
}


@pytest.mark.parametrize("seed", FAILING_SWEEP_SEEDS)
def test_a_failing_sweep_raises_alike_on_both_paths(seed):
    problem, v, _ = _random_step(np.random.default_rng(seed), 3, 1)
    assert sequential_resolve(problem, v[0], [0]).n_steps > 1
    raised = {}
    for fault, (module, name, value) in _SWEEP_FAULTS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, name, value)
            for path in kernel_paths(patch):
                with pytest.raises(errors.MultimpactError) as info:
                    sequential_resolve(problem, v[0], [0])
                raised[fault, path] = type(info.value), str(info.value)
        assert raised[fault, "kernel"] == raised[fault, "numpy"]
    failed = "LCP solve failed with status"
    assert raised["cap", "numpy"] == (
        errors.SequentialCapExceeded, "more than 1 single-contact resolutions without settling"
    )
    assert raised["pivots", "numpy"] == (
        LcpSolveError, f"{failed} 'max_pivots': uncapped resolution"
    )
    assert raised["residuals", "numpy"][0] is LcpSolveError
    assert raised["residuals", "numpy"][1].startswith(
        f"{failed} 'solved': uncapped resolution: residuals exceed tolerance (gap="
    )
    assert raised["cone", "numpy"] == (
        errors.ConeViolationError, "uncapped resolution failed the friction-cone feasibility audit"
    )


def test_a_sweep_is_one_kernel_call(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    problem, v0, _ = build_example("disk_stack")
    assert sequential_resolve(problem, v0, ["A"]).n_steps > 1
    assert calls == {"sequential_sweep": 1}


# disk_stack velocities, in units of 1e307, whose sweep from a contact
# overflows: the first's tie walk at contact D keeps no row, the
# second's rates at contact B overflow to give a q that is not finite.
_OVERFLOWING_SWEEPS = {
    "walk": ([3.0, 0.0, 5.0, -7.0, -2.0, -5.0, 6.0, 0.0, -3.0], "D",
             "the tableau overflowed: a pivot ratio is not a number"),
    "q": ([3.0, 8.0, 3.0, -13.0, 9.0, 4.0, -5.0, 6.0, 4.0], "B", "M and q must be finite"),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING_SWEEPS))
def test_an_overflowing_sweep_raises_alike_on_both_paths(case, monkeypatch):
    velocity, first, message = _OVERFLOWING_SWEEPS[case]
    problem, _, _ = build_example("disk_stack")
    v = 1e307 * np.array(velocity)
    raised = {}
    for path in deciding_paths(monkeypatch):
        with pytest.raises(ValueError) as info, np.errstate(all="ignore"):
            sequential_resolve(problem, v, [first])
        raised[path] = str(info.value)
    assert raised == {"kernel": message, "numpy": message}


def _step_outcome(problem, v, caps, impacting):
    """``_step``'s output bytes, or the type and message of its error."""
    try:
        with np.errstate(all="ignore"):
            return _step_bytes(resolution._step(problem, v, caps, impacting))
    except (ValueError, errors.MultimpactError) as exc:
        return type(exc), str(exc)


_HUGE = [1.7e308, -1.7e308, 1e308, -1e308, 1e200]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    capped=st.booleans(),
    test_rows=st.booleans(),
    huge=st.sampled_from([0.0, 0.1, 0.4]),
    bad=st.sampled_from([0.0, 0.1, 0.3]),
)
def test_a_step_of_huge_velocities_and_bad_caps_fails_in_numpys_order(
    seed, capped, test_rows, huge, bad
):
    # Some velocity entries are up to +-1.7e308, so that some rates
    # overflow, and some caps NaN, infinite or negative.
    # Numpy assembles every live row before it solves one, so its first
    # error is bad caps in a live row, else a live q that is not finite,
    # else the first row whose walk overflows, else an unsolved row, a
    # residual, the cone; the kernel, and no numpy body, raises the same.
    rng = np.random.default_rng(seed)
    problem, v, caps = _random_step(rng, int(rng.integers(1, 4)), 6)
    at = rng.random(v.shape) < huge
    v[at] = rng.choice(_HUGE, size=at.sum())
    at = rng.random(caps.shape) < bad
    caps[at] = rng.choice([np.nan, -1.0, -0.0, np.inf], size=at.sum())
    caps = caps if capped else None
    impacting = None if test_rows else True
    outcomes = {}
    with pytest.MonkeyPatch.context() as patch:
        for path in deciding_paths(patch):
            outcomes[path] = _step_outcome(problem, v, caps, impacting)
    assert outcomes["kernel"] == outcomes["numpy"]
    with np.errstate(all="ignore"):
        rates = ordered_matvec(problem.jbar, v)
        if capped:
            tested = is_impacting(problem, v) if test_rows else np.ones(len(v), dtype=bool)
            live = tested & np.any(caps > 0.0, axis=1)
            bad_caps = live & ~np.all(np.isfinite(caps) & (caps >= 0.0), axis=1)
        else:
            live = ~np.all(rates[:, : problem.n_contacts] >= 0.0, axis=1)
            bad_caps = np.zeros(len(v), dtype=bool)
    bad_q = live & ~np.all(np.isfinite(rates), axis=1)
    if bad_caps.any():
        assert outcomes["numpy"] == (ValueError, "impulse caps must be finite and nonnegative")
    elif bad_q.any():
        assert outcomes["numpy"] == (ValueError, "M and q must be finite")
    else:
        assert outcomes["numpy"] != (ValueError, "M and q must be finite")


@pytest.mark.skipif(lcp_module.KERNEL is None, reason="the compiled kernel did not load")
@pytest.mark.parametrize("name", ["ball", *STEP_SCENES])
def test_the_benchmarks_paths_never_enter_numpy(name, monkeypatch):
    # With the kernel loaded, sampling, the baselines and the certificate
    # solve every LCP in C: the numpy bodies are only its reference and
    # the path without a compiler.  So are the inputs that overflow, each
    # tested against that reference above with the numpy bodies raising:
    # the huge-entry stacks, the steps of huge velocities or bad caps and
    # the overflowing sweeps.  Here the bundled scene's step, at a live
    # row whose q is not finite or whose caps are bad, raises without them.
    forbid_numpy(monkeypatch)
    problem, v0, meta = build_example(name)
    h = float(meta["h"])
    for sampler in (SobolSampler(), UniformSampler(seed=1)):
        approximate(problem, v0, h, h / 10.0, int(meta["n_steps"]), 64, sampler)
    resolution.baselines(problem, v0)
    resolution.compute_r(problem)
    caps, bad_caps = np.full((2, problem.n_contacts), h), np.full((2, problem.n_contacts), h)
    bad_caps[1, 0] = np.inf  # a positive cap, so the row is live
    for v, row_caps, message in (
        (np.stack([v0, np.full(problem.n_v, np.inf)]), caps, "M and q must be finite"),
        (np.stack([v0, v0]), bad_caps, "impulse caps must be finite and nonnegative"),
    ):
        with pytest.raises(ValueError, match=message), np.errstate(all="ignore"):
            resolution._step(problem, v, row_caps, True)


def _random_problem(seed):
    """A random problem of ``_random_step``'s kind with 2 to 5 contacts,
    both drawn from ``seed``, and its start velocity."""
    rng = np.random.default_rng(seed)
    problem, v, _ = _random_step(rng, int(rng.integers(2, 6)), 1)
    return problem, v[0]


def _run_or_error(run, *args, **kwargs):
    """``run(*args, **kwargs)``, or the type and message of the error it
    raised."""
    try:
        return run(*args, **kwargs)
    except errors.MultimpactError as exc:
        return type(exc), str(exc)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sobol=st.booleans())
@example(seed=26, sobol=False)  # trajectory 4's step 18 ends on a ray, on both paths
def test_random_multi_contact_problems_end_to_end(seed, sobol):
    # Energy never rises along a trajectory, and the sampled set, or the
    # error it raises, is the same on both paths, for any job count and
    # block size.
    problem, v0 = _random_problem(seed)
    h, n_max = 1.0, 20
    sampler = SobolSampler() if sobol else UniformSampler(seed=seed)
    block_size = setapprox.BLOCK_SIZE
    sets = []
    with pytest.MonkeyPatch.context() as patch:
        for _ in kernel_paths(patch):
            for index in range(3):
                traj = _run_or_error(sim, problem, v0, h, n_max, sampler, traj_index=index)
                for step in getattr(traj, "steps", ()):
                    assert step.energy_after <= step.energy_before * (1.0 + 1e-9)
            for jobs, block in ((1, block_size), (3, block_size), (1, 7)):
                patch.setattr(setapprox, "BLOCK_SIZE", block)
                post = _run_or_error(
                    approximate, problem, v0, h, h / 10.0, n_max, 16, sampler, jobs=jobs
                )
                if isinstance(post, tuple):
                    sets.append(post)
                else:
                    sets.append((post.samples.tobytes(), post.traj_indices.tobytes(),
                                 post.rejected_count))
    assert all(got == sets[0] for got in sets[1:])


class _StreamOnly:
    """``sampler`` with only its stream, as a user-written sampler has it:
    ``approximate`` then takes the reference loop, on the kernel too."""

    def __init__(self, sampler):
        self.stream, self.kind, self.seed = sampler.stream, sampler.kind, sampler.seed


def _block_outcome(*args):
    """The bytes of ``setapprox._run_block(*args)``'s velocities and
    verdicts, or the type and message of the error it raised."""
    block = _run_or_error(setapprox._run_block, *args)
    return block if isinstance(block[0], type) else [part.tobytes() for part in block]


def _set_outcome(*args, **kwargs):
    """The bytes of ``approximate(*args, **kwargs)``'s set, or the type and
    message of the error it raised."""
    post = _run_or_error(approximate, *args, **kwargs)
    if isinstance(post, tuple):
        return post
    return post.samples.tobytes(), post.traj_indices.tobytes(), post.rejected_count


@pytest.mark.skipif(lcp_module.KERNEL is None, reason="the compiled kernel did not load")
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), sobol=st.booleans())
def test_a_kernel_block_gives_the_loops_bytes(seed, m, sobol):
    # One kernel call per block, and the reference loop on the kernel,
    # give the same velocities, verdicts and sets, or the same error: for
    # one start velocity or one per trajectory, and for any block size
    # and job count.
    problem, v, _ = _random_step(np.random.default_rng(seed), m, 9)
    h, n_max = 1.0, 20
    sampler = SobolSampler() if sobol else UniformSampler(seed=seed)
    finishing = h / 10.0 / (3.0 * psi(problem)) * np.ones(m)
    for first, count in ((0, 9), (5, 4)):
        for v0 in (v[0], v[:count], np.asfortranarray(v[:count])):
            outcomes = [
                _block_outcome(problem, v0, h, n_max, draws, finishing, first, count)
                for draws in (sampler, _StreamOnly(sampler))
            ]
            assert outcomes[0] == outcomes[1]
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        for block, jobs in ((7, 1), (7, 3), (256, 1), (256, 3)):
            patch.setattr(setapprox, "BLOCK_SIZE", block)
            for draws in (sampler, _StreamOnly(sampler)):
                outcomes.append(_set_outcome(problem, v[0], h, h / 10.0, n_max, 16, draws, jobs=jobs))
    assert all(got == outcomes[0] for got in outcomes[1:])


@pytest.mark.parametrize(
    "n_max, tolerance",
    [(20, None), (20, "residuals"), (0, "residuals"), (20, "cone"), (0, "cone")],
    ids=["ray", "residuals", "finishing-residuals", "cone", "finishing-cone"],
)
def test_a_failing_block_raises_as_the_loop_does(n_max, tolerance, monkeypatch):
    # Seed 26's trajectory 4 ends a step on a ray; a tolerance that fails
    # every certification or every cone audit fails the first step, or
    # with no steps the finishing step.  The kernel block, the loop on
    # the kernel and the numpy loop raise the same error, its residuals
    # included.
    problem, v0 = _random_problem(26)
    if tolerance == "residuals":
        monkeypatch.setattr(resolution, "RESIDUAL_TOL", -1.0)
    elif tolerance == "cone":
        monkeypatch.setattr(contact, "CONE_TOL", -1.0)
    sampler = UniformSampler(seed=26)
    failures = []
    for _ in kernel_paths(monkeypatch):
        for draws in (sampler, _StreamOnly(sampler)):
            failures.append(_set_outcome(problem, v0, 1.0, 0.1, n_max, 16, draws))
    assert all(got == failures[0] for got in failures[1:])
    kind, message = failures[0]
    if tolerance == "cone":
        assert (kind, message) == (
            errors.ConeViolationError, "post-step state failed the friction-cone feasibility audit"
        )
    else:
        assert kind is LcpSolveError
        failed = "LCP solve failed with status"
        if tolerance is None:
            assert message == f"{failed} 'ray_termination': capped impact step"
        else:
            assert message.startswith(f"{failed} 'solved': capped impact step: residuals exceed")
