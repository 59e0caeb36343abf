import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpod import (
    Assignment,
    PairCounts,
    ShapeMismatchError,
    adjusted_rand_index,
    pair_counts,
    rand_index,
)


def pair_enumeration(a, b):
    """O(n^2) oracle: walk every pair and tally agreement."""
    a, b = np.asarray(a), np.asarray(b)
    ss = sd = ds = dd = 0
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                ss += 1
            elif same_a:
                sd += 1
            elif same_b:
                ds += 1
            else:
                dd += 1
    return PairCounts(same_same=ss, same_diff=sd, diff_same=ds, diff_diff=dd)


class TestRandIndex:
    def test_identical_partitions(self):
        a = [0, 1, 1, 2, 0]
        assert rand_index(a, a) == 1.0

    def test_relabeling_invariance(self):
        a = np.array([0, 0, 1, 1, 2])
        relabeled = np.array([2, 2, 0, 0, 1])
        assert rand_index(a, relabeled) == 1.0

    def test_hand_enumerated_case(self):
        # pairs (0,1),(2,3) split one way, (0,2),(1,3) the other:
        # only (0,3)-style opposite pairs agree -> 2 of 6
        assert rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(1 / 3)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 30)
        b = rng.integers(0, 3, 30)
        assert rand_index(a, b) == rand_index(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            rand_index([0, 1], [0, 1, 2])

    def test_too_few_objects(self):
        with pytest.raises(ValueError):
            rand_index([0], [0])

    # With at most 5 labels a side, most tables have no more cells than rows;
    # with up to 60, most have more, and their joint labels are renumbered.
    @pytest.mark.parametrize("most_labels", [6, 61], ids=["few_labels", "many_labels"])
    def test_matches_pair_enumeration(self, most_labels):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, int(rng.integers(1, most_labels)), n)
            b = rng.integers(0, int(rng.integers(1, most_labels)), n)
            oracle = pair_enumeration(a, b)
            fast = pair_counts(a, b)
            assert fast == oracle
            assert rand_index(a, b) == (oracle.same_same + oracle.diff_diff) / oracle.total

    def test_accepts_assignment_objects(self):
        a = Assignment(labels=np.array([0, 0, 1]))
        assert rand_index(a, a) == 1.0

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(0, 4), min_size=2, max_size=40), st.integers(0, 2**31 - 1))
    def test_pair_counts_total_and_permutation_invariance(self, labels, seed):
        a = np.array(labels)
        rng = np.random.default_rng(seed)
        b = rng.integers(0, 3, len(a))
        counts = pair_counts(a, b)
        n = len(a)
        assert counts.total == n * (n - 1) // 2
        relabel = rng.permutation(5)
        assert rand_index(relabel[a], b) == rand_index(a, b)

    @pytest.mark.parametrize("a, b", [
        ([0, 10**12, 5], [0, 1, 1]),  # a dense table would take 14.6 TiB
        ([0, 2**62, 5], [0, 2**62, 1]),  # a * kb + b would overflow int64
    ])
    def test_large_labels_are_counted_as_labels(self, a, b):
        assert pair_counts(a, b) == pair_enumeration(a, b)
        dense = [np.unique(side, return_inverse=True)[1] for side in (a, b)]
        assert rand_index(a, b) == rand_index(*dense)
        assert adjusted_rand_index(a, b) == adjusted_rand_index(*dense)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 2**62))] * 2),
                    min_size=2, max_size=40))
    def test_recoded_tables_match_pair_enumeration(self, pairs):
        a, b = (np.array(side) for side in zip(*pairs))
        assert pair_counts(a, b) == pair_enumeration(a, b)

    def test_singletons_take_memory_of_order_n(self):
        # A dense table of 3000 x 3000 singleton labels would take 69 MiB.
        labels = np.arange(3000)
        tracemalloc.start()
        try:
            counts = pair_counts(labels, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == PairCounts(same_same=0, same_diff=0, diff_same=0,
                                    diff_diff=3000 * 2999 // 2)
        assert peak < 2**20


class TestAdjustedRand:
    def test_identical_partitions_score_one(self):
        assert adjusted_rand_index([0, 1, 2, 0], [2, 0, 1, 2]) == 1.0

    def test_degenerate_identical_trivial_partitions(self):
        assert adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0
        assert adjusted_rand_index([0, 1, 2], [2, 1, 0]) == 1.0

    def test_matches_pair_count_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(4, 50))
            a = rng.integers(0, 4, n)
            b = rng.integers(0, 4, n)
            c = pair_enumeration(a, b)
            if c.same_diff == 0 and c.diff_same == 0:
                expected = 1.0
            else:
                expected = 2 * (c.same_same * c.diff_diff - c.same_diff * c.diff_same) / (
                    (c.same_same + c.same_diff) * (c.same_diff + c.diff_diff)
                    + (c.same_same + c.diff_same) * (c.diff_same + c.diff_diff)
                )
            assert adjusted_rand_index(a, b) == pytest.approx(expected, abs=1e-12)

    def test_independent_labels_score_near_zero(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 5, 2000)
        b = rng.integers(0, 5, 2000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

