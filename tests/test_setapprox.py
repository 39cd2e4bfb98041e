"""Tests for quasi-random streams, samplers, and set approximation."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from multimpact import (
    ImpactProblem,
    PostImpactSet,
    SobolSampler,
    UniformSampler,
    approximate,
    baselines,
    build_ball,
    build_example,
    epsilon_net_check,
    estimate_step_lipschitz,
    psi,
    restrict_contacts,
    sample_count_bound,
    sim,
)
from multimpact import io as mio
from multimpact import lcp, setapprox
from multimpact.resolution import _workspace
from multimpact.setapprox import MAX_DIMENSION, MAXBIT, _byte_table, _direction_table, sobol_block
from conftest import kernel_paths

SENTINEL = 2**63 - 1


def test_first_sobol_points_are_the_classical_ones():
    block = sobol_block(2, range(8))
    np.testing.assert_array_equal(block[0], [0.0, 0.0])
    np.testing.assert_array_equal(block[1], [0.5, 0.5])
    np.testing.assert_array_equal(block[2], [0.75, 0.25])
    np.testing.assert_array_equal(block[3], [0.25, 0.75])
    # First coordinate is the bit-reversal (van der Corput) sequence.
    np.testing.assert_array_equal(
        block[:, 0], [0.0, 0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125]
    )


@pytest.mark.parametrize("dimension", [1, 2, 5, 13, 32])
def test_sobol_matches_scipy_reference(dimension):
    qmc = pytest.importorskip("scipy.stats.qmc")
    reference = qmc.Sobol(d=dimension, scramble=False).random(256)
    np.testing.assert_array_equal(sobol_block(dimension, range(256)), reference)


def test_sobol_random_access_matches_streaming():
    block = sobol_block(3, range(64))
    np.testing.assert_array_equal(sobol_block(3, range(17, 28)), block[17:28])
    # Samplers start at index 1, skipping the all-zero point.
    np.testing.assert_array_equal(sobol_block(3, range(1, 64)), block[1:])
    # Any order, with repeats.
    picks = [40, 3, 3, 63, 0, 17]
    np.testing.assert_array_equal(sobol_block(3, picks), block[picks])


def test_consecutive_sobol_points_flip_every_leading_bit():
    # The first direction number is 1/2 in every dimension, so points at
    # even indices differ from their successors by exactly one half per
    # coordinate.  This is why blocked low-discrepancy draws cannot starve
    # a contact twice in a row (see the uniform sampler used for corner
    # coverage).
    block = sobol_block(4, range(128))
    deltas = np.abs(block[1::2] - block[0::2])
    np.testing.assert_array_equal(deltas, 0.5 * np.ones_like(deltas))


@pytest.mark.parametrize("dimension", [2, 5, 32])
@pytest.mark.parametrize("start", [371, 10_000_001])
def test_sobol_bits_match_scipy_after_fast_forward(dimension, start):
    qmc = pytest.importorskip("scipy.stats.qmc")
    engine = qmc.Sobol(d=dimension, scramble=False)
    engine.fast_forward(start)
    reference = engine.random(64)
    np.testing.assert_array_equal(
        sobol_block(dimension, range(start, start + 64)).view(np.uint64),
        reference.view(np.uint64),
    )


def _slow_sobol_block(dimension, indices):
    """Reference construction: XOR the direction column of every set bit
    of each index's Gray code, one pass per bit."""
    table = _direction_table(dimension)
    indices = np.asarray(indices, dtype=np.uint64)
    gray = indices ^ (indices >> np.uint64(1))
    out = np.zeros((len(indices), dimension), dtype=np.uint64)
    for bit in range(MAXBIT):
        mask = (gray >> np.uint64(bit)) & np.uint64(1) == 1
        if mask.any():
            out[mask] ^= table[:, bit]
    return out / float(1 << MAXBIT)


@pytest.mark.parametrize("count", [0, 1, 257])
@pytest.mark.parametrize("dimension", [1, 3, 32])
def test_sobol_bits_match_the_per_bit_reference_near_the_index_cap(dimension, count):
    indices = range(2**MAXBIT - 300, 2**MAXBIT - 300 + count)
    block = sobol_block(dimension, indices)
    assert block.shape == (count, dimension)
    np.testing.assert_array_equal(
        block.view(np.uint64), _slow_sobol_block(dimension, indices).view(np.uint64)
    )


@pytest.mark.parametrize("dimension", [1, 5, 32])
def test_random_access_sobol_matches_the_per_bit_reference(dimension):
    rng = np.random.default_rng(dimension)
    for high in (2, 1000, 2**30, 2**MAXBIT):
        indices = rng.integers(0, high, size=97)
        np.testing.assert_array_equal(
            sobol_block(dimension, indices).view(np.uint64),
            _slow_sobol_block(dimension, indices).view(np.uint64),
        )
    np.testing.assert_array_equal(
        sobol_block(dimension, [2**MAXBIT - 1]), _slow_sobol_block(dimension, [2**MAXBIT - 1])
    )


def test_sobol_indices_stay_in_the_sequence():
    for bad in ([-1], [3, 2**MAXBIT]):
        with pytest.raises(ValueError, match="52-bit sequence"):
            sobol_block(2, bad)
    # Trajectory 0 with step cap n draws indices 1 .. n, so a cap of
    # 2**MAXBIT - 1 reaches the sequence's last point.
    draw = SobolSampler().stream(0, 1, 2**MAXBIT - 2, 3)
    assert draw(np.array([0]), 2**MAXBIT - 3).shape == (1, 3)
    draw = SobolSampler().stream(0, 1, 2**MAXBIT - 1, 3)
    last = draw(np.array([0]), 2**MAXBIT - 2)
    assert last.tobytes() == sobol_block(3, [2**MAXBIT - 1]).tobytes()
    for first, count, n in (
        (0, 1, 2**MAXBIT), (1, 1, 2**MAXBIT - 1), (2**40, 2**12, 2**30)
    ):
        with pytest.raises(ValueError, match="52-bit sequence"):
            SobolSampler().stream(first, count, n, 3)


def test_cached_direction_tables_are_read_only():
    # The byte table is C-ordered too, as the compiled block reads it.
    for build in (_direction_table, _byte_table):
        table = build(4)
        assert build(4) is table
        assert table.flags.c_contiguous
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_sobol_dimension_limits():
    with pytest.raises(ValueError):
        sobol_block(0, range(4))
    with pytest.raises(ValueError):
        sobol_block(MAX_DIMENSION + 1, range(4))


def _block_layout(sampler, first, count, n, m):
    """Every draw of trajectories ``first .. first+count-1`` at once,
    shape (count, n, m), laid out independently of ``stream``: Sobol
    indices ``1 + i*n .. 1 + (i+1)*n - 1`` per trajectory ``i``, or one
    ``random((n, m))`` per trajectory."""
    if sampler.kind == "sobol":
        indices = range(1 + first * n, 1 + (first + count) * n)
        return _slow_sobol_block(m, indices).reshape(count, n, m)
    return np.array(
        [np.random.default_rng([sampler.seed, i]).random((n, m)) for i in range(first, first + count)]
    )


def _kernel_stream(sampler, first, count, n, m):
    """A uniform stream drawn as the compiled block draws it: the PCG64
    states of ``_kernel_draws``, stepped by the kernel's ``pcg_draw``."""
    states = sampler._kernel_draws(first, count, n, m)[3]

    def draw(rows, step):
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        out = np.empty((rows.size, m))
        drawn = lcp.KERNEL.pcg_draw(
            rows.size, rows.ctypes.data, count, m, states.ctypes.data, out.ctypes.data
        )
        assert drawn == 0
        return out

    return draw


def _streams(sampler, first, count, n, m):
    """``(name, draw)`` of each way to draw these trajectories: the
    sampler's ``stream`` and, for the uniform sampler with the kernel
    loaded, the kernel's draws."""
    yield "stream", sampler.stream(first, count, n, m)
    if sampler.kind == "uniform" and lcp.KERNEL is not None:
        yield "kernel", _kernel_stream(sampler, first, count, n, m)


def _live_draws(draw, count, n, seed):
    """``(rows, step, draws)`` of one stream over a random run of live rows:
    every step keeps a random subset of the rows live at the step before."""
    rng = np.random.default_rng(seed)
    rows = np.arange(count)
    out = []
    for step in range(n):
        rows = np.sort(rng.choice(rows, size=rng.integers(1, len(rows) + 1), replace=False))
        out.append((rows, step, draw(rows, step)))
    return out


@pytest.mark.parametrize("sampler", [SobolSampler(), UniformSampler(seed=11)], ids=["sobol", "uniform"])
@pytest.mark.parametrize("first, count", [(0, 1), (0, 9), (37, 20)])
def test_stream_draws_the_block_layout_bit_for_bit(sampler, first, count):
    n, m = 6, 3
    layout = _block_layout(sampler, first, count, n, m)
    for seed in range(5):
        for name, draw in _streams(sampler, first, count, n, m):
            for rows, step, drawn in _live_draws(draw, count, n, seed):
                assert drawn.shape == (len(rows), m)
                want = layout[rows, step]
                np.testing.assert_array_equal(drawn.view(np.uint64), want.view(np.uint64), name)


_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30]
_INDICES = [0, 2**32 - 1, 2**32, 2**52 - 1]


def test_uniform_draws_are_numpys_for_any_seed_and_index():
    # Seeds of one to four 32-bit words and indices of one or two, with
    # the stream's next index crossing a word boundary at 2**32 - 1.
    rng = np.random.default_rng(8)
    seeds = _SEEDS + [int(x) for x in rng.integers(0, 2**63, 6)]
    seeds.append(int(rng.integers(1, 2**62)) << 70)
    indices = _INDICES + [int(x) for x in rng.integers(0, 2**52, 4)]
    n, m = 3, 5
    for k, seed in enumerate(seeds):
        for first in indices:
            want = np.array(
                [np.random.default_rng([seed, i]).random((n, m)) for i in (first, first + 1)]
            )
            for name, draw in _streams(UniformSampler(seed), first, 2, n, m):
                for rows, step, drawn in _live_draws(draw, 2, n, k):
                    assert drawn.tobytes() == want[rows, step].tobytes(), (name, seed, first)


def _refuse_draws(monkeypatch):
    """Make building a numpy generator raise ``AssertionError``."""

    def refused(*args):
        raise AssertionError("a numpy generator was built")

    monkeypatch.setattr(np.random, "default_rng", refused)


def test_a_kernel_set_builds_no_numpy_generator(monkeypatch):
    # The kernel draws every block, and ``approximate``'s range probe
    # opens a stream that builds nothing until it draws.
    if lcp.KERNEL is None:
        pytest.skip("the compiled kernel did not load")
    monkeypatch.setattr(setapprox, "BLOCK_SIZE", 20)
    problem, v0, _ = build_example("phone")

    def sampled_set():
        post = approximate(problem, v0, 0.3, 0.03, 10, 40, UniformSampler(7))
        return mio.set_to_json(post, problem)

    with monkeypatch.context() as patch:
        patch.setattr(lcp, "KERNEL", None)
        want = sampled_set()
    _refuse_draws(monkeypatch)
    assert sampled_set() == want


@pytest.mark.parametrize("rows", [[-1], [3], [0, -3], [2, 4]])
def test_a_uniform_draw_rejects_rows_outside_the_stream(rows, monkeypatch):
    want = np.random.default_rng([7, 3]).random(4)
    for path in kernel_paths(monkeypatch):
        draw = UniformSampler(7).stream(2, 3, 2, 4)
        with pytest.raises(IndexError, match=r"draw rows must lie in \[0, 3\)"):
            draw(np.array(rows), 0)
        # Nothing was drawn: row 1 (trajectory 3) still starts its stream.
        assert draw(np.array([1]), 0)[0].tobytes() == want.tobytes(), path


def test_sobol_sampler_uses_disjoint_index_blocks():
    n, m = 7, 3
    draw = SobolSampler().stream(0, 3, n, m)
    rows = np.arange(3)
    steps = np.stack([draw(rows, j) for j in range(n)], axis=1)
    np.testing.assert_array_equal(steps[2], sobol_block(m, range(1 + 2 * n, 1 + 3 * n)))
    np.testing.assert_array_equal(steps[0], sobol_block(m, range(1, 1 + n)))
    # Random access: any step of any row, in any order.
    again = SobolSampler().stream(2, 1, n, m)
    np.testing.assert_array_equal(again(np.array([0]), 4)[0], steps[2, 4])


def test_uniform_sampler_is_scheduling_independent(monkeypatch):
    sampler = UniformSampler(seed=11)

    def steps(first, count, row):
        draw = sampler.stream(first, count, 5, 2)
        return np.array([draw(np.array([row]), j)[0] for j in range(5)])

    for path in kernel_paths(monkeypatch):
        first = steps(4, 1, 0)
        again = steps(3, 2, 1)  # the same trajectory in another block
        np.testing.assert_array_equal(first, again)
        other = steps(5, 1, 0)
        assert not np.array_equal(first, other)
        assert first.min() >= 0.0 and first.max() < 1.0
        # Drawing step by step gives the bits of one call.
        rng = np.random.default_rng([11, 4])
        np.testing.assert_array_equal(first, rng.random((5, 2)))


@pytest.mark.parametrize("sampler", [SobolSampler(), UniformSampler(seed=3)], ids=["sobol", "uniform"])
def test_memory_does_not_grow_with_the_step_cap(sampler, monkeypatch):
    problem, v0, meta = build_example("compass")
    h = float(meta["h"])
    for path in kernel_paths(monkeypatch):
        peaks = {}
        for n_max in (10, 10**9, 10):
            tracemalloc.start()
            try:
                approximate(problem, v0, h, h / 10.0, n_max, 256, sampler)
                peaks[n_max] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10**9] <= 1.1 * peaks[10], path


@pytest.mark.parametrize("sampler", [SobolSampler(), UniformSampler()], ids=["sobol", "uniform"])
def test_a_negative_step_cap_is_rejected_on_entry(sampler):
    problem, v0, meta = build_example("phone")
    h = float(meta["h"])
    with pytest.raises(ValueError, match="step cap must be nonnegative"):
        approximate(problem, v0, h, h / 10.0, -1, 4, sampler)
    with pytest.raises(ValueError, match="step cap must be nonnegative"):
        sim(problem, v0, h, -1, sampler)


def test_psi_frozen_on_the_ball():
    ball, _, _ = build_ball()
    assert psi(ball) == pytest.approx(3.0, abs=1e-12)


def _psi_closed_form(problem) -> float:
    sigma = np.linalg.svd(np.linalg.solve(problem.mass, problem.jbar.T), compute_uv=False)[0]
    return sigma * problem.n_contacts * (1.0 + problem.mu.max()) + 1.0


@pytest.mark.parametrize("name", ["ball", "phone", "compass", "box_wall", "disk_stack"])
def test_psi_equals_its_closed_form(name):
    problem, v0, _ = build_example(name)
    # Problem set-up and the baselines leave it uncomputed.
    baselines(problem, v0)
    assert _workspace(problem).psi is None
    first = psi(problem)
    assert first == pytest.approx(_psi_closed_form(problem), rel=1e-12)
    assert psi(problem) == first


def test_psi_is_kept_per_problem():
    phone, _, _ = build_example("phone")
    variants = [
        phone,
        ImpactProblem(mass=2.0 * phone.mass, jn=phone.jn, jt=phone.jt, mu=phone.mu),
        ImpactProblem(mass=phone.mass, jn=phone.jn, jt=phone.jt, mu=2.0 * phone.mu),
        restrict_contacts(phone, [0]),
    ]
    values = [psi(problem) for problem in variants]
    assert len(set(values)) == len(values)
    for problem, value in zip(variants[::-1], values[::-1]):
        assert psi(problem) == value
        assert value == pytest.approx(_psi_closed_form(problem), rel=1e-12)


def test_ball_set_collapses_to_rest():
    ball, v0, _ = build_ball()
    result = approximate(
        ball, v0, h=1.0, epsilon=0.5, n_max=12, m_trajectories=64,
        sampler=UniformSampler(seed=0),
    )
    assert result.rejected_count == 0
    assert result.samples.shape == (64, 1)
    np.testing.assert_array_equal(result.samples, np.zeros((64, 1)))
    np.testing.assert_array_equal(result.traj_indices, np.arange(64))
    assert result.params["sampler"] == "uniform"


def test_approximate_validates_epsilon_window():
    ball, v0, _ = build_ball()
    with pytest.raises(ValueError):
        approximate(ball, v0, h=1.0, epsilon=1.0, n_max=5, m_trajectories=4,
                    sampler=UniformSampler())
    with pytest.raises(ValueError):
        approximate(ball, v0, h=1.0, epsilon=0.0, n_max=5, m_trajectories=4,
                    sampler=UniformSampler())


def test_approximate_is_identical_across_job_counts():
    problem, v0, _ = build_example("phone")
    serial = approximate(problem, v0, h=0.3, epsilon=0.03, n_max=10,
                         m_trajectories=48, sampler=UniformSampler(seed=5), jobs=1)
    parallel = approximate(problem, v0, h=0.3, epsilon=0.03, n_max=10,
                           m_trajectories=48, sampler=UniformSampler(seed=5), jobs=3)
    np.testing.assert_array_equal(serial.samples, parallel.samples)
    np.testing.assert_array_equal(serial.traj_indices, parallel.traj_indices)
    assert serial.rejected_count == parallel.rejected_count


def test_epsilon_net_audit():
    reference = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ok, worst = epsilon_net_check(reference[:2], reference, 1.01)
    assert ok and worst == pytest.approx(1.0)
    ok, worst = epsilon_net_check(reference[:1], reference, 0.5)
    assert not ok and worst == pytest.approx(1.0)


@pytest.mark.parametrize(
    "candidate, reference",
    [
        (np.zeros(3), np.zeros((2, 3))),
        (np.zeros((2, 3)), np.zeros(3)),
        (np.zeros((2, 3)), np.zeros((2, 2))),
        (np.zeros((1, 2, 3)), np.zeros((2, 3))),
    ],
)
def test_epsilon_net_audit_requires_2d_sets_of_equal_width(candidate, reference):
    with pytest.raises(ValueError, match="2-D and of equal width"):
        epsilon_net_check(candidate, reference, 1.0)


@pytest.mark.parametrize(
    "params",
    [
        (math.inf, 1.0, 1, 0.5, 0.1),
        (1.0, math.inf, 1, 0.5, 0.1),
        (1.0, 1.0, 1, math.nan, 0.1),
        (math.nan, 1.0, 1, 0.5, 0.1),
        (1.0, 1.0, 1, math.inf, 0.1),
        (1.0, 1.0, 1, 0.5, math.nan),
    ],
)
def test_sample_count_bound_rejects_non_finite_inputs(params):
    with pytest.raises(ValueError, match="must"):
        sample_count_bound(*params)


def test_sample_count_bound_frozen_and_edges():
    assert sample_count_bound(1.0, 1.0, 1, 0.5, 0.1) == 5
    # A single cell always suffices: one trajectory hits it.
    assert sample_count_bound(1.0, 1.0, 1, 2.0, 0.1) == 1
    # Astronomical requirements saturate at the 63-bit sentinel.
    assert sample_count_bound(10.0, 100.0, 8, 1e-6, 0.01) == SENTINEL
    assert sample_count_bound(1e300, 1e300, 1, 0.5, 0.1) == SENTINEL  # cells overflow
    with pytest.raises(ValueError):
        sample_count_bound(0.0, 1.0, 1, 0.5, 0.1)
    with pytest.raises(ValueError):
        sample_count_bound(1.0, 1.0, 0, 0.5, 0.1)
    with pytest.raises(ValueError):
        sample_count_bound(1.0, 1.0, 1, 0.5, 1.5)


def test_lipschitz_probe_is_deterministic_and_positive():
    ball, _, _ = build_ball()
    first = estimate_step_lipschitz(ball, h=1.0, n_pairs=200, seed=2)
    second = estimate_step_lipschitz(ball, h=1.0, n_pairs=200, seed=2)
    assert first == second
    assert first > 0.0


@pytest.mark.parametrize(
    "name, expected", [("phone", 41.61587888036644), ("disk_stack", 28.411735872733548)]
)
def test_lipschitz_probe_frozen_values(name, expected):
    # The values of the one-pair-at-a-time probe, which stepping the
    # pairs in lockstep reproduces bit for bit.
    problem, _, meta = build_example(name)
    assert estimate_step_lipschitz(problem, float(meta["h"]), n_pairs=500, seed=0) == expected


def test_post_impact_set_is_a_plain_record():
    ps = PostImpactSet(
        samples=np.zeros((2, 3)),
        traj_indices=np.array([0, 1]),
        rejected_count=0,
        params={"h": 1.0},
    )
    assert ps.samples.shape == (2, 3)
    assert ps.rejected_count == 0


@pytest.mark.parametrize("h", [math.nan, -1.0, 0.0, math.inf])
def test_step_lipschitz_rejects_caps_from_a_bad_budget(h, monkeypatch):
    phone, _, _ = build_example("phone")
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match="impulse budget h must be positive and finite"):
        estimate_step_lipschitz(phone, h=h, n_pairs=4)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_step_lipschitz_rejects_a_bad_scale(scale, monkeypatch):
    phone, _, _ = build_example("phone")
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        estimate_step_lipschitz(phone, h=1.0, n_pairs=4, scale=scale)


def test_a_run_made_with_numpy_integers_exports_the_plain_runs_json():
    phone, v0, _ = build_example("phone")
    made = {}
    for number in (int, np.int64):
        post = approximate(phone, v0, 1.0, 0.1, number(10), number(8), SobolSampler(number(0)))
        traj = sim(phone, v0, 1.0, number(10), SobolSampler(number(0)))
        made[number] = (mio.set_to_json(post, phone), mio.trajectory_to_json(traj, phone))
    assert made[np.int64] == made[int]
    assert type(SobolSampler(np.int64(3)).seed) is int
    for bad in (-1, True, 2.0):
        with pytest.raises(ValueError, match="seed must be"):
            SobolSampler(bad)


def test_a_user_samplers_numpy_integer_seed_exports_as_the_plain_seed():
    # ``approximate`` and ``sim`` record the seed of a sampler they did
    # not check: an integer as an ``int``, which JSON writes.
    phone, v0, _ = build_example("phone")

    class Mine:
        kind = "mine"

        def __init__(self, seed):
            self.seed = seed

        def stream(self, first, count, n, m):
            return UniformSampler(5).stream(first, count, n, m)

    made = {}
    for seed in (5, np.int64(5)):
        post = approximate(phone, v0, 1.0, 0.1, 10, 8, Mine(seed))
        traj = sim(phone, v0, 1.0, 10, Mine(seed))
        made[type(seed)] = (mio.set_to_json(post, phone), mio.trajectory_to_json(traj, phone))
        assert type(post.params["seed"]) is int and type(traj.rng_seed) is int
    assert made[np.int64] == made[int]


@pytest.mark.parametrize(
    "name, value",
    [("jobs", 2.5), ("jobs", True), ("m_trajectories", 4.0), ("n_max", 2.5), ("n_max", False)],
)
def test_approximate_rejects_counts_that_are_not_integers(name, value):
    problem, v0, _ = build_example("phone")
    kwargs = {"n_max": 5, "m_trajectories": 4, "jobs": 1, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        approximate(problem, v0, 0.3, 0.03, sampler=UniformSampler(), **kwargs)


def test_the_sobol_stream_checks_its_dimension_when_it_opens():
    with pytest.raises(ValueError, match=f"at most {MAX_DIMENSION} dimensions, got 33"):
        SobolSampler().stream(0, 2, 3, MAX_DIMENSION + 1)
    draw = UniformSampler().stream(0, 2, 3, MAX_DIMENSION + 1)
    assert draw(np.arange(2), 0).shape == (2, MAX_DIMENSION + 1)


def test_a_sobol_range_beyond_the_sequence_fails_before_any_trajectory(monkeypatch):
    import multimpact.setapprox as setapprox

    def never(*args, **kwargs):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(setapprox, "_run_block", never)
    problem, v0, _ = build_example("phone")
    # 1 + m*n must stay below 2**52; m = 2**49, n = 8 gives exactly 2**52 + 1.
    with pytest.raises(ValueError, match="exceeds the 52-bit sequence"):
        approximate(problem, v0, 0.3, 0.03, 8, 2**49, SobolSampler(), jobs=1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"jobs": 0}, "jobs must be at least 1, got 0"),
        ({"jobs": -4}, "jobs must be at least 1, got -4"),
        ({"m_trajectories": 0}, "at least one trajectory is required"),
    ],
    ids=["jobs-zero", "jobs-negative", "no-trajectories"],
)
def test_approximate_rejects_counts_below_their_floor(kwargs, message):
    problem, v0, _ = build_example("phone")
    kwargs = {"n_max": 5, "m_trajectories": 4, "jobs": 1, **kwargs}
    with pytest.raises(ValueError, match=message):
        approximate(problem, v0, 0.3, 0.03, sampler=UniformSampler(), **kwargs)


@pytest.mark.parametrize(
    "n_pairs, message",
    [(0, "n_pairs must be at least 1, got 0"), (True, "n_pairs must be an integer"),
     (2.0, "n_pairs must be an integer")],
    ids=["zero", "bool", "float"],
)
def test_step_lipschitz_needs_at_least_one_pair(n_pairs, message):
    ball, _, _ = build_ball()
    with pytest.raises(ValueError, match=message):
        estimate_step_lipschitz(ball, h=1.0, n_pairs=n_pairs)


@pytest.mark.parametrize("box_dim", [True, 2.5])
def test_sample_count_bound_needs_an_integer_box_dimension(box_dim):
    with pytest.raises(ValueError, match="box_dim must be an integer"):
        sample_count_bound(1.0, 1.0, box_dim, 0.5, 0.1)


def test_sample_count_bound_saturates_where_the_hit_probability_underflows():
    # 31,623 cells per axis in 1,000 dimensions: omega = cells**-1000 is 0.0.
    assert sample_count_bound(1.0, 1.0, 1000, 1e-3, 0.1) == SENTINEL


@pytest.mark.parametrize(
    "candidate, reference",
    [(np.zeros((0, 2)), np.zeros((3, 2))), (np.zeros((3, 2)), np.zeros((0, 2)))],
    ids=["no-candidates", "no-references"],
)
def test_epsilon_net_audit_requires_points(candidate, reference):
    with pytest.raises(ValueError, match="both point sets must be nonempty"):
        epsilon_net_check(candidate, reference, 1.0)


@pytest.mark.parametrize(
    "params, expected",
    [((1.0, 1.0, 10**400, 0.5, 0.1), SENTINEL), ((1e-300, 1.0, 10**400, 1.0, 0.1), 1)],
    ids=["many-cells", "one-cell"],
)
def test_sample_count_bound_takes_a_box_dimension_beyond_the_float_range(params, expected):
    # ``math.sqrt(10**400)`` overflows; in logs the grid either has one
    # cell or a hit probability that underflows.
    assert sample_count_bound(*params) == expected


@pytest.mark.parametrize(
    "h, message",
    [(math.nan, "h must be positive and finite, got nan"),
     (math.inf, "h must be positive and finite, got inf")],
    ids=["nan", "inf"],
)
def test_approximate_checks_the_budget_before_epsilon_and_any_work(monkeypatch, h, message):
    import multimpact.setapprox as setapprox

    def never(*args, **kwargs):
        raise AssertionError("the sampling started")

    monkeypatch.setattr(setapprox, "_fan_out", never)
    problem, v0, _ = build_example("phone")
    with pytest.raises(ValueError, match=message):
        approximate(problem, v0, h, 0.03, 5, 4, UniformSampler(), jobs=2)


@pytest.mark.parametrize(
    "seed, message",
    [(1.5, "seed must be an integer, got 1.5"), (True, "seed must be an integer, got True"),
     (None, "seed must be an integer, got None"), (-1, "seed must be nonnegative, got -1")],
    ids=["float", "bool", "none", "negative"],
)
def test_uniform_sampler_takes_a_nonnegative_integer_seed(seed, message):
    with pytest.raises(ValueError, match=message):
        UniformSampler(seed)


def test_uniform_sampler_keeps_an_integer_seed():
    seed = UniformSampler(np.int64(7)).seed
    assert seed == 7 and type(seed) is int

