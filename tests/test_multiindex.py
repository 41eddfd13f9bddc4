"""Multi-index enumeration in grevlex order and the flattened layout."""
from math import comb

import pytest
from hypothesis import given, strategies as st

from affine_cf.multiindex import (
    enumerate_indices,
    flattened_indices,
    flattened_position,
)


class TestEnumerate:
    def test_univariate_single_index_per_order(self):
        assert enumerate_indices(1, 3) == ((3,),)

    def test_d2_order2(self):
        assert set(enumerate_indices(2, 2)) == {(2, 0), (1, 1), (0, 2)}
        assert len(enumerate_indices(2, 2)) == 3

    def test_d3_order2_count(self):
        assert len(enumerate_indices(3, 2)) == 6

    def test_d3_grevlex_order(self):
        # the last entry descending, ties broken the same way on the prefix
        assert enumerate_indices(3, 2) == (
            (0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0))
        assert flattened_indices(3, 2) == (
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_order_zero(self):
        assert enumerate_indices(4, 0) == ((0, 0, 0, 0),)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            enumerate_indices(0, 1)
        with pytest.raises(ValueError):
            enumerate_indices(2, -1)

    @given(st.integers(1, 4), st.integers(0, 6))
    def test_stars_and_bars_count_and_uniqueness(self, d, k):
        indices = enumerate_indices(d, k)
        assert len(indices) == comb(k + d - 1, d - 1)
        assert len(set(indices)) == len(indices)
        assert all(len(eps) == d and sum(eps) == k for eps in indices)

    @given(st.integers(1, 3), st.integers(1, 5))
    def test_flattened_position_round_trip(self, d, max_order):
        flat = flattened_indices(d, max_order)
        for pos, eps in enumerate(flat):
            assert flattened_position(d, eps) == pos
