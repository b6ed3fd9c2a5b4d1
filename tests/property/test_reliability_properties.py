"""Property-based tests for the scrubber's replica vote."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.reliability.scrub import majority_vote

#: finite values plus every IEEE special the vote must order like np.median
special_floats = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
)


@st.composite
def replica_sets(draw):
    count = draw(st.sampled_from([1, 3, 5, 7]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=12))
    return [
        draw(hnp.arrays(np.float64, shape, elements=special_floats))
        for _ in range(count)
    ]


class TestMajorityVote:
    @settings(max_examples=200, deadline=None)
    @given(replica_sets())
    def test_equals_numpy_median(self, replicas):
        expected = np.median(np.stack(replicas), axis=0)
        voted = majority_vote(replicas)
        assert voted.shape == expected.shape
        assert np.array_equal(voted, expected, equal_nan=True)

    @settings(max_examples=100, deadline=None)
    @given(replica_sets())
    def test_bit_identical_off_nan(self, replicas):
        expected = np.median(np.stack(replicas), axis=0)
        voted = majority_vote(replicas)
        real = ~np.isnan(expected)
        assert np.array_equal(
            voted[real].view(np.int64), expected[real].view(np.int64)
        )

    @settings(max_examples=50, deadline=None)
    @given(replica_sets())
    def test_inputs_untouched(self, replicas):
        before = [r.copy() for r in replicas]
        majority_vote(replicas)
        for r, b in zip(replicas, before):
            assert np.array_equal(r, b, equal_nan=True)
