import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpod import (
    Assignment,
    Centroids,
    DuplicateCentersWarning,
    InfeasibleError,
    KMeansResult,
    MaskedMatrix,
    ShapeMismatchError,
    assign_step,
    delete_cluster,
    kmeans_objective,
    kmeanspp_init,
    lloyd,
    mean_impute_cluster,
    rand_index,
    update_step,
)
from kpod.kmeans import _BLOCK_ROWS, RowBounds, _sq_dists
from kpod.mm import validate_clusterable

# Cases for the exact-oracle properties: a layout of rows and centers, then a
# scale. Small integers give exact ties and duplicate rows; midpoints between
# two centers, plus noise, give near ties. The 1e6 offset makes the expanded
# distance cancel badly; near 5e153 some exact distances overflow, at 1e160
# |x|^2 does, and at 1e-160 it underflows, so the exact path has to decide.
LAYOUTS = ("normal", "grid", "on_centers", "midpoints")
SCALES = ((1.0, 0.0), (1.0, 1e6), (5e153, 0.0), (1e160, 0.0), (1e-160, 0.0))
SHAPES = st.tuples(
    st.sampled_from([1, 2, 7, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]),
    st.integers(1, 5),
    st.integers(1, 6),
)
CASES = st.tuples(st.integers(0, 2**32 - 1), SHAPES, st.sampled_from(LAYOUTS), st.sampled_from(SCALES))


def exact_case(seed, shape, layout, scale_offset):
    (n, p, k), (scale, offset) = shape, scale_offset
    rng = np.random.default_rng(seed)
    if layout == "grid":
        data = rng.integers(-2, 3, (n, p)).astype(float)
        centers = rng.integers(-2, 3, (k, p)).astype(float)
    else:
        data, centers = rng.normal(0, 1, (n, p)), rng.normal(0, 1, (k, p))
    if layout == "on_centers":
        data = centers[rng.integers(0, k, n)]
    elif layout == "midpoints":
        pairs = centers[rng.integers(0, k, (2, n))]
        data = (pairs[0] + pairs[1]) / 2 + rng.normal(0, 1, (n, p)) * 10.0 ** rng.uniform(-15, -5)
    return data * scale + offset, centers * scale + offset


def update_oracle(data, labels, k):
    """update_step as written with np.add.at, the reference for its sums."""
    counts = np.bincount(labels, minlength=k)
    sums = np.zeros((k, data.shape[1]))
    np.add.at(sums, labels, data)
    centers = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None], 0.0)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        own_d2 = np.sum((data - centers[labels]) ** 2, axis=1)
        for cluster in empty:
            far = int(np.argmax(own_d2))
            centers[cluster] = data[far]
            own_d2[far] = -np.inf
    return centers


class TestAssignment:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -1e300, 2.0**63, 0.5])
    def test_non_integer_float_labels_are_rejected_without_a_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^labels must be integers$"):
                Assignment(labels=np.array([bad, 1.0]))

    @pytest.mark.parametrize("bad", [
        np.array([1 + 0j, 2]),
        np.array([None, 1], dtype=object),
        np.array([0, 2**64, 1]),
        np.array([0, 1, 1], dtype=object),
        np.array(["0", "1"]),
        np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"),
    ], ids=["complex", "none", "past-uint64", "object-ints", "strings", "datetimes"])
    def test_labels_of_other_dtypes_are_rejected_without_a_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^labels must be integers$"):
                Assignment(labels=bad)
            with pytest.raises(ValueError, match="^labels must be integers$"):
                rand_index(bad, np.zeros(len(bad), dtype=int))

    def test_integral_floats_in_int64_range_are_labels(self):
        got = Assignment(labels=np.array([3.0, 2.0**62, -0.0])).labels
        assert got.dtype == np.int64 and got.tolist() == [3, 2**62, 0]
        with pytest.raises(ValueError, match="^labels must be nonnegative$"):
            Assignment(labels=np.array([-(2.0**63)]))


class TestCentroids:
    def test_the_callers_array_stays_writable(self):
        c = np.zeros((2, 3))
        b = Centroids(centers=c)
        c[0, 0] = 5.0
        assert b.centers[0, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            b.centers[0, 0] = 1.0
        data = np.arange(12.0).reshape(4, 3)
        seeded = kmeanspp_init(data, 2, seed=0).centers
        assert not seeded.flags.writeable and not np.shares_memory(seeded, data)


class TestObjective:
    def test_rows_on_centroids_give_zero(self):
        centers = np.array([[0.0, 0.0], [5.0, 5.0]])
        labels = np.array([0, 1, 1, 0])
        assert kmeans_objective(centers[labels], Assignment(labels=labels),
                                Centroids(centers=centers)) == 0.0

    def test_hand_case(self):
        data = np.array([[0.0], [2.0]])
        result = kmeans_objective(data, Assignment(labels=[0, 0]),
                                  Centroids(centers=[[1.0]]))
        assert result == 2.0

    def test_random_matches_double_loop(self):
        rng = np.random.default_rng(11)
        data = rng.normal(0, 2, (9, 3))
        labels = rng.integers(0, 3, 9)
        centers = rng.normal(0, 2, (3, 3))
        oracle = sum(
            float(np.sum((data[i] - centers[labels[i]]) ** 2)) for i in range(9)
        )
        got = kmeans_objective(data, Assignment(labels=labels), Centroids(centers=centers))
        assert got == pytest.approx(oracle, rel=1e-12)

    @settings(deadline=None, max_examples=80)
    @given(CASES)
    def test_bit_identical_to_difference_expression(self, case):
        data, centers = exact_case(*case)
        labels = np.random.default_rng(case[0]).integers(0, len(centers), len(data))
        with np.errstate(over="ignore", invalid="ignore"):
            diff = data - centers[labels]
            want = float(np.sum(diff * diff))
            got = kmeans_objective(data, Assignment(labels=labels), Centroids(centers=centers))
        assert got.hex() == want.hex()

    def test_out_of_range_label(self):
        with pytest.raises(IndexError):
            kmeans_objective(np.ones((2, 1)), Assignment(labels=[0, 5]),
                             Centroids(centers=[[1.0]]))


class TestSeeding:
    def test_k_equals_n_is_a_permutation_of_rows(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, (6, 2))
        centers = kmeanspp_init(data, 6, seed=1).centers
        matched = {int(np.argmin(np.sum((data - c) ** 2, axis=1))) for c in centers}
        assert matched == set(range(6))

    def test_k_one_returns_a_data_row(self):
        data = np.arange(10.0).reshape(5, 2)
        center = kmeanspp_init(data, 1, seed=3).centers[0]
        assert any(np.array_equal(center, row) for row in data)

    def test_k_greater_than_n(self):
        with pytest.raises(InfeasibleError):
            kmeanspp_init(np.ones((2, 1)), 3, seed=0)

    def test_duplicate_rows_warn(self):
        data = np.ones((4, 2))
        with pytest.warns(DuplicateCentersWarning):
            centers = kmeanspp_init(data, 2, seed=0).centers
        assert np.array_equal(centers[0], centers[1])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        data = rng.normal(0, 1, (20, 3))
        a = kmeanspp_init(data, 4, seed=123).centers
        b = kmeanspp_init(data, 4, seed=123).centers
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [7, 70])
    def test_blocks_sample_from_whole_matrix_distances(self, k):
        # Over two blocks of rows, all but 22 of them copies of 40 distinct
        # ones: at k = 70 the 62 distinct rows run out, so the branch for
        # duplicate centers runs too. Every probability vector handed to
        # choice must be that of whole-matrix distances, bit for bit.
        class Recorded(np.random.Generator):
            def choice(self, n, p=None):
                self.probabilities.append(p.tobytes())
                return super().choice(n, p=p)

        rng = np.random.default_rng(17)
        pool = rng.normal(0, 1, (40, 6))
        data = pool[rng.integers(0, 40, 2 * _BLOCK_ROWS + 37)]
        data[::97] += rng.normal(0, 1e-9, (len(data[::97]), 6))
        for seed in range(3):
            want_rng, want_p = np.random.default_rng(seed), []
            chosen = [int(want_rng.integers(len(data)))]
            d2 = _sq_dists(data, data[chosen[-1:]])[:, 0]
            for _ in range(1, k):
                total = d2.sum()
                if total > 0:
                    want_p.append((d2 / total).tobytes())
                    chosen.append(int(want_rng.choice(len(data), p=d2 / total)))
                else:
                    chosen.append(int(want_rng.integers(len(data))))
                d2 = np.minimum(d2, _sq_dists(data, data[chosen[-1:]])[:, 0])
            got_rng = Recorded(np.random.PCG64(seed))
            got_rng.probabilities = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DuplicateCentersWarning)
                got = kmeanspp_init(data, k, seed=got_rng).centers
            assert got_rng.probabilities == want_p
            assert got.tobytes() == data[chosen].tobytes()

    def test_distance_squared_sampling_frequency(self):
        # Two tight pairs, far apart. Given the first pick, the second center
        # lands in the opposite pair with probability (sum of opposite-pair
        # squared distances) / (total squared distances); that analytic value
        # is both the Monte Carlo target and above the far^2/(far^2+near^2)
        # lower bound.
        far, near = 5.0, 1.0
        data = np.array([[0.0, 0.0], [0.0, near], [far, 0.0], [far, near]])
        pair = np.array([0, 0, 1, 1])

        def analytic():
            total = 0.0
            for first in range(4):
                d2 = np.sum((data - data[first]) ** 2, axis=1)
                total += 0.25 * d2[pair != pair[first]].sum() / d2.sum()
            return total

        trials = 1500
        hits = 0
        for seed in range(trials):
            centers = kmeanspp_init(data, 2, seed=seed).centers
            first, second = (
                int(np.argmin(np.sum((data - c) ** 2, axis=1))) for c in centers
            )
            hits += pair[first] != pair[second]
        freq = hits / trials
        expected = analytic()
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 4 * sigma
        assert freq >= far**2 / (far**2 + near**2) - 4 * sigma


class TestAssign:
    def test_rows_equal_centroids(self):
        centers = np.array([[0.0, 0.0], [4.0, 4.0], [9.0, 0.0]])
        got = assign_step(centers[[2, 0, 1]], Centroids(centers=centers))
        assert got.labels.tolist() == [2, 0, 1]

    def test_tie_goes_to_lowest_index(self):
        b = Centroids(centers=[[0.0], [1.0]])
        assert assign_step(np.array([[0.5]]), b).labels.tolist() == [0]

    def test_random_matches_argmin_oracle(self):
        rng = np.random.default_rng(21)
        data = rng.normal(0, 1, (15, 4))
        centers = rng.normal(0, 1, (5, 4))
        got = assign_step(data, Centroids(centers=centers))
        for i in range(15):
            dists = [float(np.sum((data[i] - c) ** 2)) for c in centers]
            assert got.labels[i] == int(np.argmin(dists))

    def test_shape_check(self):
        with pytest.raises(ShapeMismatchError):
            assign_step(np.ones((2, 3)), Centroids(centers=np.ones((2, 2))))

    @settings(deadline=None, max_examples=150)
    @given(CASES)
    def test_labels_equal_exact_argmin_on_whole_matrix(self, case):
        data, centers = exact_case(*case)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.argmin(_sq_dists(data, centers), axis=1)
        got = assign_step(data, Centroids(centers=centers)).labels
        assert np.array_equal(got, want)

    def test_allocates_less_than_one_copy_of_the_data(self):
        rng = np.random.default_rng(5)
        data = rng.normal(0, 1, (50000, 50))
        b = Centroids(centers=rng.normal(0, 1, (20, 50)))
        tracemalloc.start()
        try:
            assign_step(data, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes

    @pytest.mark.parametrize("row, centers", [
        # The expanded form overflows for center 0 only.
        (-1.0e154, [0.8e154, 0.35e154]),
        # The expanded form is finite, and farther from center 0 by far more
        # than its rounding error.
        (-1.2247e154, [0.25e154, 0.15e154]),
    ])
    def test_overflowing_distances_tie_at_lowest_index(self, row, centers):
        # Both exact distances overflow to inf, so center 0 wins the tie.
        data = np.array([[row]])
        b = Centroids(centers=np.array(centers)[:, None])
        with np.errstate(over="ignore"):
            assert np.isinf(_sq_dists(data, b.centers)).all()
        assert assign_step(data, b).labels.tolist() == [0]


def fit_of(a, b):
    return KMeansResult(assignment=a, centroids=b, objective=0.0, iterations=1, converged=False)


class TestRowBounds:
    @settings(deadline=None, max_examples=150)
    @given(CASES, st.sampled_from([0.0, 0.3, 0.7]))
    def test_bounded_sweeps_equal_plain_assign_step(self, case, rate):
        # The sweeps and refills of a k-POD fit. The unobserved cells start
        # filled from random rows, so the first refill moves rows far, toward
        # any center; each round then runs warm sweeps that carry the bounds
        # across center moves, and refills from its own centers.
        data, centers = exact_case(*case)
        (n, p, k), rng = case[1], np.random.default_rng(case[0])
        unobserved = rng.random((n, p)) < rate
        filled_from = fit_of(Assignment(labels=rng.integers(0, k, n)),
                             Centroids(centers=data[rng.integers(0, n, k)]))
        b, bounds = Centroids(centers=centers), RowBounds(n)
        with np.errstate(over="ignore", invalid="ignore"):
            old = filled_from.centroids.centers[filled_from.assignment.labels]
            data[unobserved] = old[unobserved]
            for _ in range(3):
                for _ in range(2):
                    a = assign_step(data, b, bounds=bounds)
                    assert np.array_equal(a.labels, assign_step(data, b).labels)
                    moved, b = b, update_step(data, a, k)
                    bounds.centers_moved(moved, b)
                data[unobserved] = b.centers[a.labels][unobserved]
                bounds.refilled(fit_of(a, b), filled_from)
                filled_from = fit_of(a, b)
            assert np.array_equal(assign_step(data, b, bounds=bounds).labels,
                                  assign_step(data, b).labels)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs 80-bit long double")
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([5, 60, 200]), st.integers(2, 4),
           st.sampled_from(SCALES))
    def test_skip_rule_holds_for_the_tightest_valid_bounds(self, seed, p, k, scale_offset):
        # Bounds from GEMM values are loose by their error bound; these are
        # the true distances to within one float step, taken in extended
        # precision, on rows a few ulps from a tie, where the exact path's
        # rounding (larger for wider rows) can reverse the true order. Only the
        # skip rule's own margins then keep its labels equal to the exact path's.
        n, rng = 2048, np.random.default_rng(seed)
        centers = rng.normal(0, 1, (k, p))
        pairs = centers[rng.integers(0, k, (2, n))]
        noise = rng.normal(0, 1, (n, p)) * 10.0 ** rng.uniform(-16, -14.5, (n, 1))
        (scale, offset), ld = scale_offset, np.longdouble
        data = ((pairs[0] + pairs[1]) / 2 + noise) * scale + offset
        centers = centers * scale + offset
        diff = data.astype(ld)[:, None, :] - centers.astype(ld)
        true = np.sqrt(np.sum(diff * diff, axis=2))
        own = np.argmin(true, axis=1)
        rows = np.arange(n)
        near = true[rows, own] * (1 + ld(2.0**-57))
        true[rows, own] = np.inf
        far = true.min(axis=1) * (1 - ld(2.0**-57))
        bounds = RowBounds(n)
        bounds.labels[:] = own
        with np.errstate(over="ignore"):
            up, down = near.astype(float), far.astype(float)
            bounds.upper[:] = np.where(up.astype(ld) < near, np.nextafter(up, np.inf), up)
            bounds.lower[:] = np.where(down.astype(ld) > far, np.nextafter(down, -np.inf), down)
            want = assign_step(data, Centroids(centers=centers)).labels
        got = assign_step(data, Centroids(centers=centers), bounds=bounds).labels
        assert np.array_equal(got, want)

    def test_a_refill_toward_another_center_reopens_the_row(self):
        # Cell 1 is unobserved. Filled from (0, -3), the row is nearer center
        # 0; refilled from center 0's value 0 it is nearer center 1, though
        # its bounds from before the refill would keep label 0.
        data = np.array([[0.9, -3.0]])
        filled_from = fit_of(Assignment(labels=[0]), Centroids(centers=[[0.0, -3.0], [1.0, 0.5]]))
        b, bounds = Centroids(centers=[[0.0, 0.0], [1.0, 0.5]]), RowBounds(1)
        a = assign_step(data, b, bounds=bounds)
        assert a.labels.tolist() == [0] and bounds.undecided(2).size == 0
        data[0, 1] = b.centers[0, 1]
        bounds.refilled(fit_of(a, b), filled_from)
        assert assign_step(data, b, bounds=bounds).labels.tolist() == [1]

    def test_warm_sweeps_skip_most_rows_of_separated_clusters(self):
        rng = np.random.default_rng(3)
        centers = rng.normal(0, 10, (4, 10))
        data = centers[rng.integers(0, 4, 2000)] + rng.normal(0, 1, (2000, 10))
        bounds = RowBounds(len(data))
        b = Centroids(centers=centers + 0.5)
        assert bounds.undecided(10).size == len(data)
        a = assign_step(data, b, bounds=bounds)
        moved, b = b, update_step(data, a, 4)
        bounds.centers_moved(moved, b)
        assert bounds.undecided(10).size < len(data) // 10

    def test_bounds_need_a_warm_start_and_matching_rows(self):
        data = np.arange(12.0).reshape(6, 2)
        with pytest.raises(ValueError, match="init"):
            lloyd(data, 2, seed=0, bounds=RowBounds(6))
        with pytest.raises(ShapeMismatchError):
            lloyd(data, 2, init=Centroids(centers=data[:2]), bounds=RowBounds(5))


class TestUpdate:
    def test_singletons(self):
        data = np.array([[1.0, 2.0], [5.0, 6.0]])
        got = update_step(data, Assignment(labels=[0, 1]), 2)
        assert np.array_equal(got.centers, data)

    def test_pair_mean(self):
        data = np.array([[0.0, 0.0], [2.0, 2.0]])
        got = update_step(data, Assignment(labels=[0, 0]), 1)
        assert np.array_equal(got.centers, [[1.0, 1.0]])

    def test_random_matches_groupby_mean(self):
        rng = np.random.default_rng(31)
        data = rng.normal(0, 1, (12, 3))
        labels = rng.integers(0, 3, 12)
        labels[:3] = [0, 1, 2]  # no empty clusters
        got = update_step(data, Assignment(labels=labels), 3)
        for c in range(3):
            assert np.allclose(got.centers[c], data[labels == c].mean(axis=0), rtol=1e-12)

    def test_empty_cluster_reseeded_from_farthest_point(self):
        data = np.array([[0.0], [0.1], [10.0]])
        got = update_step(data, Assignment(labels=[0, 0, 0]), 2)
        # cluster 0 center is the grand mean; cluster 1 takes the farthest row
        grand = data.mean(axis=0)
        assert np.allclose(got.centers[0], grand)
        assert np.array_equal(got.centers[1], data[2])

    @settings(deadline=None, max_examples=100)
    @given(CASES, st.booleans())
    def test_bit_identical_to_add_at_oracle(self, case, signed_zeros):
        data, _ = exact_case(*case)
        (n, p, k), rng = case[1], np.random.default_rng(case[0])
        if signed_zeros:
            data = rng.choice([0.0, -0.0, 1.0], (n, p))
        labels = rng.integers(0, k, n)  # k > n, or chance, leaves clusters empty
        with np.errstate(over="ignore", invalid="ignore"):
            want = update_oracle(data, labels, k)
            got = update_step(data, Assignment(labels=labels), k).centers
        assert got.tobytes() == want.tobytes()

    def test_two_empty_clusters_take_distinct_rows(self):
        data = np.array([[0.0], [8.0], [10.0]])  # grand mean 6: farthest rows are 0 then 10
        got = update_step(data, Assignment(labels=[0, 0, 0]), 3)
        assert got.centers[1][0] == 0.0
        assert got.centers[2][0] == 10.0


class TestLloyd:
    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(41)
        centers = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]])
        labels = np.repeat(np.arange(3), 25)
        data = centers[labels] + rng.normal(0, 1, (75, 2))
        result = lloyd(data, 3, seed=5)
        # same partition up to relabeling
        mapping = {}
        for mine, true in zip(result.assignment.labels, labels):
            mapping.setdefault(int(mine), int(true))
            assert mapping[int(mine)] == true

    def test_repeated_rows_reach_zero(self):
        data = np.repeat(np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]]), 4, axis=0)
        result = lloyd(data, 3, seed=0)
        assert result.objective == 0.0
        assert result.converged

    def test_objective_monotone_across_manual_sweeps(self):
        rng = np.random.default_rng(51)
        data = rng.normal(0, 1, (40, 3))
        centers = kmeanspp_init(data, 4, seed=9)
        prev = np.inf
        for _ in range(12):
            assignment = assign_step(data, centers)
            mid = kmeans_objective(data, assignment, centers)
            assert mid <= prev + 1e-9
            centers = update_step(data, assignment, 4)
            prev = kmeans_objective(data, assignment, centers)
            assert prev <= mid + 1e-9

    def test_fixed_point_after_convergence(self):
        rng = np.random.default_rng(61)
        data = rng.normal(0, 1, (30, 2))
        result = lloyd(data, 3, seed=2, max_iter=200)
        assert result.converged
        again = assign_step(data, result.centroids)
        assert np.array_equal(again.labels, result.assignment.labels)
        centers = update_step(data, again, 3)
        assert np.allclose(centers.centers, result.centroids.centers, atol=1e-9)

    def test_objective_equals_recomputed_loss(self):
        rng = np.random.default_rng(71)
        data = rng.normal(0, 1, (25, 2))
        result = lloyd(data, 4, seed=3)
        assert result.objective == pytest.approx(
            kmeans_objective(data, result.assignment, result.centroids), rel=1e-12
        )

    def test_infeasible_k(self):
        with pytest.raises(InfeasibleError):
            lloyd(np.ones((3, 1)), 4, seed=0)
        with pytest.raises(InfeasibleError):
            lloyd(np.ones((3, 1)), 0, seed=0)

    @pytest.mark.parametrize("bad", [2.5, True, np.float64(2.0)], ids=repr)
    def test_k_must_be_an_integer(self, bad):
        data = np.arange(12.0).reshape(6, 2)
        x = MaskedMatrix(values=data, observed=np.ones(data.shape, bool))
        for call in (lambda: lloyd(data, bad), lambda: kmeanspp_init(data, bad),
                     lambda: update_step(data, Assignment(labels=[0] * 6), bad),
                     lambda: validate_clusterable(x, bad), lambda: mean_impute_cluster(x, bad),
                     lambda: delete_cluster(x, bad)):
            with pytest.raises(ValueError, match="k must be an integer"):
                call()

    @pytest.mark.parametrize("settings_", [
        dict(n_init=0), dict(n_init=2.0), dict(tol=float("nan")), dict(tol=0.0),
        dict(max_iter=2.5), dict(max_iter=0),
    ], ids=str)
    def test_engine_arguments_checked(self, settings_):
        with pytest.raises(ValueError):
            lloyd(np.arange(12.0).reshape(6, 2), 3, seed=0, **settings_)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(81)
        data = rng.normal(0, 1, (30, 3))
        a = lloyd(data, 3, seed=17)
        b = lloyd(data, 3, seed=17)
        assert np.array_equal(a.assignment.labels, b.assignment.labels)
        assert np.array_equal(a.centroids.centers, b.centroids.centers)

    def test_n_init_never_hurts(self):
        rng = np.random.default_rng(91)
        data = rng.normal(0, 1, (40, 2))
        single = lloyd(data, 5, seed=7, n_init=1)
        multi = lloyd(data, 5, seed=7, n_init=8)
        assert multi.objective <= single.objective + 1e-9

    def test_permutation_equivariance_with_explicit_init(self):
        rng = np.random.default_rng(101)
        data = rng.normal(0, 1, (24, 3))
        init = Centroids(centers=rng.normal(0, 1, (3, 3)))
        perm = rng.permutation(24)
        base = lloyd(data, 3, init=init)
        permuted = lloyd(data[perm], 3, init=init)
        assert np.array_equal(permuted.assignment.labels, base.assignment.labels[perm])
        assert np.allclose(permuted.centroids.centers, base.centroids.centers, atol=1e-12)

    def test_multi_restart_attains_brute_force_optimum_on_tiny_instances(self):
        rng = np.random.default_rng(111)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, 4))
            data = rng.normal(0, 1, (n, 2))

            def wcss(labeling):
                total = 0.0
                for c in range(k):
                    rows = data[np.asarray(labeling) == c]
                    if rows.size:
                        total += float(np.sum((rows - rows.mean(axis=0)) ** 2))
                return total

            best = min(wcss(labeling) for labeling in itertools.product(range(k), repeat=n))
            result = lloyd(data, k, seed=int(rng.integers(2**31)), n_init=20)
            assert result.objective >= best - 1e-9
