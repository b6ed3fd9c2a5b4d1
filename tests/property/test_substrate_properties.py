"""Property tests for packing, item memory, streaming, and RL substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops.generate import random_binary
from repro.runtime.packing import (
    pack_bits,
    packed_hamming_distance,
    unpack_bits,
)
from repro.ops.similarity import hamming_distance
from repro.rl.envs import CartPole, GridWorld
from repro.streaming import PageHinkley


class TestPackingProperties:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40)
    def test_roundtrip(self, rows, dim, seed):
        bits = random_binary(rows, dim, seed)
        packed, out_dim = pack_bits(bits)
        assert out_dim == dim
        np.testing.assert_array_equal(unpack_bits(packed, dim), bits)

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40)
    def test_packed_distance_matches_unpacked(self, dim, seed_a, seed_b):
        a = random_binary(1, dim, seed_a)[0]
        b = random_binary(1, dim, seed_b)[0]
        pa, _ = pack_bits(a)
        pb, _ = pack_bits(b)
        assert packed_hamming_distance(pa, pb) == hamming_distance(a, b)

    @given(st.integers(min_value=1, max_value=200), st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_distance_symmetry_and_identity(self, dim, seed):
        a = random_binary(2, dim, seed)
        pa, _ = pack_bits(a)
        assert packed_hamming_distance(pa[0], pa[0]) == 0.0
        assert packed_hamming_distance(pa[0], pa[1]) == packed_hamming_distance(
            pa[1], pa[0]
        )


class TestPageHinkleyProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=30)
    def test_bounded_noise_with_high_threshold_never_fires(self, errors):
        detector = PageHinkley(delta=0.05, threshold=100.0)
        assert not any(detector.update(e) for e in errors)

    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=20)
    def test_constant_stream_never_fires(self, level):
        detector = PageHinkley(delta=0.0, threshold=0.5)
        fired = [detector.update(level) for _ in range(200)]
        assert not any(fired)


class TestEnvironmentProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=30)
    def test_gridworld_observations_always_in_unit_square(self, actions, size):
        env = GridWorld(size, obstacles=())
        obs = env.reset()
        for action in actions:
            obs, reward, done = env.step(action)
            assert 0.0 <= obs[0] <= 1.0 and 0.0 <= obs[1] <= 1.0
            assert reward in (1.0, -1.0, -0.01)
            if done:
                break

    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=50),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30)
    def test_cartpole_deterministic_given_seed(self, actions, seed):
        def rollout():
            env = CartPole()
            env.reset(seed=seed)
            trace = []
            for action in actions:
                obs, _, done = env.step(action)
                trace.append(obs.copy())
                if done:
                    break
            return np.array(trace)

        np.testing.assert_array_equal(rollout(), rollout())

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20)
    def test_cartpole_reset_bounded(self, seed):
        env = CartPole()
        obs = env.reset(seed=seed)
        assert np.all(np.abs(obs) <= 0.05)
