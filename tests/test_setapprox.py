"""Tests for quasi-random streams, samplers, and set approximation."""

from __future__ import annotations

import numpy as np
import pytest

from multimpact import (
    PostImpactSet,
    SobolSampler,
    SobolStream,
    UniformSampler,
    approximate,
    build_ball,
    build_example,
    epsilon_net_check,
    estimate_step_lipschitz,
    psi,
    sample_count_bound,
    sobol_next,
)
from multimpact.setapprox import MAX_DIMENSION, MAXBIT, _direction_table, sobol_block

SENTINEL = 2**63 - 1


def test_first_sobol_points_are_the_classical_ones():
    block = sobol_block(2, 0, 8)
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
    np.testing.assert_array_equal(sobol_block(dimension, 0, 256), reference)


def test_sobol_random_access_matches_streaming():
    block = sobol_block(3, 0, 64)
    np.testing.assert_array_equal(sobol_block(3, 17, 11), block[17:28])
    stream = SobolStream(dimension=3)  # streams skip the all-zero point
    streamed = np.array([sobol_next(stream) for _ in range(63)])
    np.testing.assert_array_equal(streamed, block[1:])


def test_consecutive_sobol_points_flip_every_leading_bit():
    # The first direction number is 1/2 in every dimension, so points at
    # even indices differ from their successors by exactly one half per
    # coordinate.  This is why blocked low-discrepancy draws cannot starve
    # a contact twice in a row (see the uniform sampler used for corner
    # coverage).
    block = sobol_block(4, 0, 128)
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
        sobol_block(dimension, start, 64).view(np.uint64), reference.view(np.uint64)
    )


def _slow_sobol_block(dimension, start, count):
    """Reference construction: XOR the direction column of every set bit
    of each index's Gray code, one pass per bit."""
    table = _direction_table(dimension)
    indices = np.arange(start, start + count, dtype=np.uint64)
    gray = indices ^ (indices >> np.uint64(1))
    out = np.zeros((count, dimension), dtype=np.uint64)
    for bit in range(MAXBIT):
        mask = (gray >> np.uint64(bit)) & np.uint64(1) == 1
        if mask.any():
            out[mask] ^= table[:, bit]
    return out / float(1 << MAXBIT)


@pytest.mark.parametrize("count", [0, 1, 257])
@pytest.mark.parametrize("dimension", [1, 3, 32])
def test_sobol_bits_match_the_per_bit_reference_near_the_index_cap(dimension, count):
    start = 2**MAXBIT - 300
    block = sobol_block(dimension, start, count)
    assert block.shape == (count, dimension)
    np.testing.assert_array_equal(
        block.view(np.uint64), _slow_sobol_block(dimension, start, count).view(np.uint64)
    )


def test_cached_direction_tables_are_read_only():
    table = _direction_table(4)
    assert _direction_table(4) is table
    assert SobolStream(dimension=4).direction_numbers is table
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_sobol_dimension_limits():
    with pytest.raises(ValueError):
        sobol_block(0, 0, 4)
    with pytest.raises(ValueError):
        sobol_block(MAX_DIMENSION + 1, 0, 4)


def test_sobol_sampler_uses_disjoint_index_blocks():
    sampler = SobolSampler()
    n, m = 7, 3
    block = sampler.draw_block(0, 3, n, m)
    assert block.shape == (3, n, m)
    np.testing.assert_array_equal(block[2], sobol_block(m, 1 + 2 * n, n))
    np.testing.assert_array_equal(block[0], sobol_block(m, 1, n))
    np.testing.assert_array_equal(sampler.draw_block(2, 1, n, m)[0], block[2])


def test_uniform_sampler_is_scheduling_independent():
    sampler = UniformSampler(seed=11)
    first = sampler.draw_block(4, 1, 5, 2)[0]
    again = sampler.draw_block(3, 2, 5, 2)[1]  # the same trajectory in another block
    np.testing.assert_array_equal(first, again)
    other = sampler.draw_block(5, 1, 5, 2)[0]
    assert not np.array_equal(first, other)
    assert first.min() >= 0.0 and first.max() < 1.0
    # One call gives the same bits as drawing step by step.
    rng = np.random.default_rng([11, 4])
    np.testing.assert_array_equal(first, [rng.random(2) for _ in range(5)])


def test_psi_frozen_on_the_ball():
    ball, _, _ = build_ball()
    assert psi(ball) == pytest.approx(3.0, abs=1e-12)


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


def test_sample_count_bound_frozen_and_edges():
    assert sample_count_bound(1.0, 1.0, 1, 0.5, 0.1) == 5
    # A single cell always suffices: one trajectory hits it.
    assert sample_count_bound(1.0, 1.0, 1, 2.0, 0.1) == 1
    # Astronomical requirements saturate at the 63-bit sentinel.
    assert sample_count_bound(10.0, 100.0, 8, 1e-6, 0.01) == SENTINEL
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
