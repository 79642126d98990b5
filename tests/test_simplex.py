"""Softmax, log-partition, entropy, KL, Jacobian, and face operations.

Expected values marked "direct evaluation" are frozen from independent
arithmetic (math.exp / math.log), never from the functions under test.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from simplexflow import (
    DegenerateFaceError,
    FaceMask,
    InvalidInputError,
    ScoreVector,
    SimplexPoint,
    SupportMismatchError,
    build_face_nucleus,
    build_face_topk,
    embed_in_face,
    entropy,
    free_energy,
    kl_divergence,
    log_partition,
    log_softmax,
    restrict_to_face,
    softmax,
    softmax_jacobian,
)
from simplexflow.oracles import fd_gradient, fd_jacobian
from simplexflow.simplex import PROB_FLOOR, check_step_size, check_temperature

from conftest import score_lists, weight_lists

# direct evaluation: e/(1+e) and e^2/(1+e^2)
P_EXP_1 = math.exp(1.0) / (1.0 + math.exp(1.0))        # 0.7310585786300049
P_EXP_2 = math.exp(2.0) / (1.0 + math.exp(2.0))        # 0.8807970779778823


class TestRealNumberChecks:
    """``check_temperature`` and ``check_step_size`` take a real number, or a
    string of one, and refuse anything else with a typed error naming it."""

    CHECKS = [(check_temperature, "temperature"), (check_step_size, "step size")]

    @pytest.mark.parametrize("check, name", CHECKS)
    @pytest.mark.parametrize(
        "value", [[1.0, 2.0], (1.0,), np.array([1.0]), None, "abc"],
        ids=["list", "tuple", "array", "none", "string"],
    )
    def test_a_value_that_is_no_real_number_is_named(self, check, name, value):
        message = f"^{name} must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidInputError, match=message):
            check(value)

    @pytest.mark.parametrize("check", [check for check, _ in CHECKS])
    @pytest.mark.parametrize(
        "value", ["1.0", np.float64(1.0), np.array(1.0), 1],
        ids=["string", "numpy-scalar", "0-d-array", "int"],
    )
    def test_a_real_number_is_accepted(self, check, value):
        assert check(value) == 1.0 and type(check(value)) is float


class TestScoreVector:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidInputError):
            ScoreVector([1.0, math.nan])
        with pytest.raises(InvalidInputError):
            ScoreVector([1.0, math.inf])

    def test_rejects_single_entry(self):
        with pytest.raises(InvalidInputError):
            ScoreVector([1.0])

    def test_values_are_immutable(self):
        s = ScoreVector([1.0, 0.0])
        with pytest.raises(ValueError):
            s.values[0] = 2.0

    def test_json_round_trip_is_exact(self):
        s = ScoreVector([1.0 / 3.0, -2.7182818284590451, 1e-15])
        back = ScoreVector.from_json(s.to_json())
        assert np.array_equal(back.values, s.values)


class TestSimplexPoint:
    def test_small_drift_is_renormalized(self):
        p = SimplexPoint([0.5, 0.5 + 1e-10])
        assert abs(p.probs.sum() - 1.0) <= 1e-12

    def test_large_drift_raises(self):
        with pytest.raises(InvalidInputError):
            SimplexPoint([0.5, 0.6])

    def test_negative_entry_raises(self):
        with pytest.raises(InvalidInputError):
            SimplexPoint([1.1, -0.1])

    def test_interior_flag(self):
        assert SimplexPoint.uniform(3).interior
        assert not SimplexPoint.vertex(3, 0).interior

    def test_json_round_trip_is_exact(self):
        p = SimplexPoint([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
        back = SimplexPoint.from_json(p.to_json())
        assert np.array_equal(back.probs, p.probs)


class TestSoftmax:
    def test_uniform_scores_give_uniform(self):
        pi = softmax(ScoreVector([0.0, 0.0, 0.0, 0.0]), 1.0)
        assert np.allclose(pi.probs, 0.25, atol=1e-15)

    def test_two_point_values(self):
        pi = softmax(ScoreVector([1.0, 0.0]), 1.0)
        assert pi.probs[0] == pytest.approx(P_EXP_1, abs=1e-15)
        assert pi.probs[1] == pytest.approx(1.0 - P_EXP_1, abs=1e-15)

    def test_halving_temperature_squares_the_odds(self):
        pi = softmax(ScoreVector([1.0, 0.0]), 0.5)
        assert pi.probs[0] == pytest.approx(P_EXP_2, abs=1e-15)

    def test_shift_invariance_exact_example(self):
        a = softmax(ScoreVector([5.0, 4.0]), 1.0)
        b = softmax(ScoreVector([1.0, 0.0]), 1.0)
        assert np.max(np.abs(a.probs - b.probs)) <= 1e-12

    def test_no_overflow_at_large_scaled_scores(self):
        pi = softmax(ScoreVector([700.0, -700.0]), 1.0)
        assert np.all(np.isfinite(pi.probs))
        assert pi.interior

    def test_extreme_spread_stays_interior(self):
        pi = softmax(ScoreVector([1.0, 0.0]), 1e-3)
        assert pi.interior
        assert pi.probs[0] > 1.0 - 1e-6

    def test_invalid_temperature_raises(self):
        with pytest.raises(InvalidInputError):
            softmax(ScoreVector([1.0, 0.0]), 0.0)
        with pytest.raises(InvalidInputError):
            softmax(ScoreVector([1.0, 0.0]), math.inf)

    @given(score_lists(), st.floats(0.1, 10.0))
    def test_output_is_normalized_and_interior(self, values, t):
        pi = softmax(ScoreVector(values), t)
        assert abs(pi.probs.sum() - 1.0) <= 1e-12
        assert pi.interior

    @given(score_lists(), st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    def test_shift_invariance(self, values, t, c):
        s = ScoreVector(values)
        a = softmax(s, t)
        b = softmax(s.shifted(c), t)
        assert np.max(np.abs(a.probs - b.probs)) <= 1e-12

    @given(score_lists(), st.floats(0.1, 10.0), st.floats(0.25, 4.0))
    def test_score_scaling_matches_temperature_scaling(self, values, t, alpha):
        s = ScoreVector(values)
        a = softmax(ScoreVector(alpha * s.values), t)
        b = softmax(s, t / alpha)
        assert np.max(np.abs(a.probs - b.probs)) <= 1e-12


class TestTemperatureLimits:
    def _gapped_scores(self, rng, size):
        # unique argmax with a gap of at least 5% of the spread, so the
        # low-temperature limit concentrates within float range
        values = np.sort(rng.uniform(-3.0, 3.0, size))
        values[-1] = values[-2] + max(0.05 * (values[-2] - values[0]), 0.5)
        return ScoreVector(rng.permutation(values))

    def test_low_temperature_concentrates_on_argmax(self, rng):
        for size in (2, 5, 16):
            s = self._gapped_scores(rng, size)
            spread = float(s.values.max() - s.values.min())
            pi = softmax(s, 1e-3 * spread)
            assert pi.probs[int(np.argmax(s.values))] > 1.0 - 1e-6

    def test_high_temperature_flattens_to_uniform(self, rng):
        for size in (2, 5, 16):
            s = self._gapped_scores(rng, size)
            spread = float(s.values.max() - s.values.min())
            pi = softmax(s, 1e6 * spread)
            assert np.max(np.abs(pi.probs - 1.0 / size)) < 1e-5


class TestLogPartition:
    def test_uniform_scores(self):
        assert log_partition(ScoreVector([0.0] * 4), 1.0) == pytest.approx(
            math.log(4.0), abs=1e-15
        )

    def test_two_point_value(self):
        assert log_partition(ScoreVector([1.0, 0.0]), 1.0) == pytest.approx(
            math.log(1.0 + math.exp(1.0)), abs=1e-15
        )

    def test_shift_moves_value_by_the_constant(self):
        s = ScoreVector([1.0, 0.0])
        gap = log_partition(s.shifted(3.0), 1.0) - log_partition(s, 1.0)
        assert gap == pytest.approx(3.0, abs=1e-12)

    @given(score_lists(), st.floats(0.1, 10.0))
    def test_gradient_is_softmax(self, values, t):
        s = ScoreVector(values)
        grad = fd_gradient(lambda v: log_partition(ScoreVector(v), t), s.values)
        assert np.max(np.abs(grad - softmax(s, t).probs)) < 1e-6


class TestScoresBeyondTheTemperature:
    """s / T overflows while the spread (max s - min s) / T is finite: the
    three primitives shift by max s and stay finite.  Where s / T is finite
    they keep the unshifted arithmetic."""

    def test_equal_huge_scores_at_a_tiny_temperature(self):
        s = ScoreVector([1e259] * 3)
        assert np.array_equal(softmax(s, 1e-281).probs, np.full(3, 1.0 / 3.0))
        assert np.array_equal(log_softmax(s, 1e-281), np.full(3, -math.log(3.0)))
        assert log_partition(s, 1e-281) == 1e259

    def test_a_finite_spread_over_an_overflowing_scale(self):
        s = ScoreVector([1e10, 1e10 - 1.0])  # s / T = 1e310, spread / T = 1e300
        assert np.array_equal(log_softmax(s, 1e-300), [0.0, -1.0 / 1e-300])
        assert np.array_equal(softmax(s, 1e-300).probs, [1.0, PROB_FLOOR])
        assert log_partition(s, 1e-300) == 1e10

    @given(score_lists(bound=1e3), st.floats(1e-3, 1e3))
    def test_finite_scaled_scores_keep_the_unshifted_arithmetic(self, values, t):
        s = ScoreVector(values)
        z = s.values / t
        m = float(z.max())
        assert np.array_equal(log_softmax(s, t), (z - m) - math.log(float(np.exp(z - m).sum())))
        assert log_partition(s, t) == t * (m + math.log(float(np.exp(z - m).sum())))


class TestEntropy:
    def test_uniform_attains_log_v(self):
        assert entropy(SimplexPoint.uniform(4)) == pytest.approx(math.log(4.0), abs=1e-15)

    def test_vertex_is_zero(self):
        assert entropy(SimplexPoint.vertex(5, 2)) == 0.0

    def test_two_point_direct_evaluation(self):
        # direct evaluation of -(p log p + q log q) at p = e/(1+e)
        p, q = P_EXP_1, 1.0 - P_EXP_1
        expected = -(p * math.log(p) + q * math.log(q))  # 0.5822031088882179
        assert entropy(SimplexPoint([p, q])) == pytest.approx(expected, abs=1e-15)

    @given(weight_lists())
    def test_bounds(self, weights):
        w = np.asarray(weights)
        p = SimplexPoint(w / w.sum())
        h = entropy(p)
        assert 0.0 <= h <= math.log(p.size)

    @given(st.integers(2, 32))
    def test_maximum_only_at_uniform(self, size):
        uniform = SimplexPoint.uniform(size)
        tilted = np.full(size, 1.0)
        tilted[0] = 2.0
        p = SimplexPoint(tilted / tilted.sum())
        assert entropy(p) < entropy(uniform)


class TestFreeEnergy:
    def test_at_softmax_equals_log_partition(self, rng):
        for _ in range(25):
            size = int(rng.integers(2, 65))
            s = ScoreVector(rng.uniform(-3, 3, size))
            t = float(rng.uniform(0.1, 5.0))
            report = free_energy(softmax(s, t), s, t)
            assert report.value == pytest.approx(log_partition(s, t), abs=1e-10)

    def test_uniform_zero_scores(self):
        report = free_energy(SimplexPoint.uniform(4), ScoreVector([0.0] * 4), 1.0)
        assert report.value == pytest.approx(math.log(4.0), abs=1e-15)
        assert report.inner == 0.0

    def test_vertex_has_no_entropy_term(self):
        report = free_energy(SimplexPoint.vertex(2, 0), ScoreVector([1.0, 0.0]), 1.0)
        assert report.value == 1.0
        assert report.entropy == 0.0

    def test_report_is_consistent(self):
        report = free_energy(SimplexPoint([0.25, 0.75]), ScoreVector([1.0, -1.0]), 2.0)
        assert report.value == report.inner + 2.0 * report.entropy

    @given(score_lists(max_size=8), weight_lists(max_size=8), st.floats(0.25, 4.0))
    def test_duality_upper_bound(self, values, weights, t):
        size = min(len(values), len(weights))
        s = ScoreVector(values[:size]) if size >= 2 else ScoreVector([0.0, 0.0])
        w = np.asarray(weights[: s.size] if size >= 2 else [1.0, 1.0])
        p = SimplexPoint(w / w.sum())
        bound = log_partition(s, t)
        value = free_energy(p, s, t).value
        assert value <= bound + 1e-10
        # the gap is exactly T * KL(p || softmax), so equality happens only at softmax
        gap = bound - value
        kl = kl_divergence(p, softmax(s, t))
        assert gap == pytest.approx(t * kl, abs=1e-9)

    def test_duality_over_1000_random_triples(self, rng):
        for _ in range(1000):
            size = int(rng.integers(2, 65))
            s = ScoreVector(rng.uniform(-3, 3, size))
            t = float(rng.uniform(0.25, 4.0))
            p = SimplexPoint(rng.dirichlet(np.ones(size)))
            bound = log_partition(s, t)
            assert free_energy(p, s, t).value <= bound + 1e-10
            assert abs(free_energy(softmax(s, t), s, t).value - bound) <= 1e-10
            # strictly below the bound whenever measurably away from softmax
            if t * kl_divergence(p, softmax(s, t)) > 1e-8:
                assert free_energy(p, s, t).value < bound - 1e-10


class TestKLDivergence:
    def test_self_divergence_is_zero(self):
        p = softmax(ScoreVector([1.0, 0.0, -1.0]), 1.0)
        assert kl_divergence(p, p) == 0.0

    def test_uniform_to_softmax_direct_evaluation(self):
        # direct evaluation of 0.5 log(0.5/pi_1) + 0.5 log(0.5/pi_2)
        expected = 0.5 * math.log(0.5 / P_EXP_1) + 0.5 * math.log(0.5 / (1.0 - P_EXP_1))
        assert expected == pytest.approx(0.12011450695827758, abs=1e-15)
        got = kl_divergence(SimplexPoint.uniform(2), softmax(ScoreVector([1.0, 0.0]), 1.0))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_single_atom_case(self):
        d = kl_divergence(SimplexPoint([1.0, 0.0]), SimplexPoint([0.5, 0.5]))
        assert d == pytest.approx(math.log(2.0), abs=1e-15)

    def test_support_violation_raises(self):
        with pytest.raises(SupportMismatchError):
            kl_divergence(SimplexPoint([0.5, 0.5]), SimplexPoint([1.0, 0.0]))

    @given(weight_lists(max_size=8), weight_lists(max_size=8))
    def test_nonnegative(self, wp, wq):
        size = min(len(wp), len(wq))
        p = SimplexPoint(np.asarray(wp[:size]) / np.sum(wp[:size]))
        q = SimplexPoint(np.asarray(wq[:size]) / np.sum(wq[:size]))
        assert kl_divergence(p, q) >= 0.0


class TestSoftmaxJacobian:
    def test_uniform_two_point(self):
        jac = softmax_jacobian(ScoreVector([0.0, 0.0]), 1.0)
        assert np.allclose(jac, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_diagonal_entry_direct_evaluation(self):
        jac = softmax_jacobian(ScoreVector([1.0, 0.0]), 1.0)
        assert jac[0, 0] == pytest.approx(P_EXP_1 * (1.0 - P_EXP_1), abs=1e-12)

    @given(score_lists(max_size=8), st.floats(0.25, 4.0))
    def test_rows_sum_to_zero_and_symmetric(self, values, t):
        jac = softmax_jacobian(ScoreVector(values), t)
        assert np.max(np.abs(jac.sum(axis=1))) < 1e-14
        assert np.array_equal(jac, jac.T)

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            size = int(rng.integers(2, 9))
            s = ScoreVector(rng.uniform(-3, 3, size))
            t = float(rng.uniform(0.25, 4.0))
            jac = softmax_jacobian(s, t)
            fd = fd_jacobian(lambda v: softmax(ScoreVector(v), t).probs, s.values)
            rel = np.max(np.abs(fd - jac)) / np.max(np.abs(jac))
            assert rel < 1e-5

    def test_positive_semidefinite(self, rng):
        s = ScoreVector(rng.uniform(-3, 3, 6))
        eigenvalues = np.linalg.eigvalsh(softmax_jacobian(s, 1.0))
        assert eigenvalues.min() > -1e-12


class TestFaces:
    def test_full_mask_is_identity(self):
        s = ScoreVector([3.0, 1.0, -1.0])
        p = SimplexPoint([0.5, 0.3, 0.2])
        s2, p2 = restrict_to_face(s, p, FaceMask.full(3))
        assert np.array_equal(s2.values, s.values)
        assert np.max(np.abs(p2.probs - p.probs)) <= 1e-15

    def test_renormalization_example(self):
        s = ScoreVector([1.0, 0.0, -1.0])
        p = SimplexPoint([0.5, 0.3, 0.2])
        _, p2 = restrict_to_face(s, p, FaceMask.from_indices(3, [0, 1]))
        assert np.allclose(p2.probs, [0.625, 0.375], atol=1e-15)

    def test_no_mass_on_face_raises(self):
        s = ScoreVector([1.0, 0.0, -1.0])
        p = SimplexPoint([0.0, 0.0, 1.0])
        with pytest.raises(DegenerateFaceError):
            restrict_to_face(s, p, FaceMask.from_indices(3, [0, 1]))

    def test_single_token_face_raises(self):
        s = ScoreVector([1.0, 0.0])
        p = SimplexPoint([0.5, 0.5])
        with pytest.raises(DegenerateFaceError):
            restrict_to_face(s, p, FaceMask.from_indices(2, [0]))

    def test_embed_puts_exact_zeros_off_face(self):
        mask = FaceMask.from_indices(4, [1, 3])
        full = embed_in_face(mask, SimplexPoint([0.25, 0.75]))
        assert full.probs[0] == 0.0 and full.probs[2] == 0.0
        assert full.probs[1] == 0.25 and full.probs[3] == 0.75

    def test_topk_matches_sort_oracle(self, rng):
        for _ in range(20):
            size = int(rng.integers(2, 12))
            s = ScoreVector(rng.uniform(-3, 3, size))
            k = int(rng.integers(1, size + 1))
            mask = build_face_topk(s, k)
            expected = set(sorted(range(size), key=lambda i: (-s.values[i], i))[:k])
            assert set(mask.indices.tolist()) == expected

    def test_topk_example(self):
        mask = build_face_topk(ScoreVector([3.0, 2.0, 1.0, 0.0]), 2)
        assert mask.indices.tolist() == [0, 1]

    def test_topk_tie_goes_to_lowest_index(self):
        mask = build_face_topk(ScoreVector([1.0, 1.0, 0.0]), 1)
        assert mask.indices.tolist() == [0]

    def test_topk_full_and_out_of_range(self):
        s = ScoreVector([1.0, 0.0, 2.0])
        assert build_face_topk(s, 3).k == 3
        with pytest.raises(InvalidInputError):
            build_face_topk(s, 0)
        with pytest.raises(InvalidInputError):
            build_face_topk(s, 4)

    def test_nucleus_example(self):
        # softmax(3,2,1) puts ~0.665 on the top token, already past 0.6
        mask = build_face_nucleus(ScoreVector([3.0, 2.0, 1.0]), 1.0, 0.6)
        assert mask.indices.tolist() == [0]

    def test_nucleus_cumulative_oracle(self, rng):
        for _ in range(20):
            size = int(rng.integers(2, 12))
            s = ScoreVector(rng.uniform(-3, 3, size))
            mass = float(rng.uniform(0.05, 1.0))
            mask = build_face_nucleus(s, 1.0, mass)
            pi = softmax(s, 1.0).probs
            order = sorted(range(size), key=lambda i: (-pi[i], i))
            cum, k = 0.0, 0
            while cum < mass - 1e-12:
                cum += pi[order[k]]
                k += 1
            assert set(mask.indices.tolist()) == set(order[:k])

    def test_nucleus_full_mass_selects_everything(self):
        mask = build_face_nucleus(ScoreVector([1.0, 0.0, -1.0]), 1.0, 1.0)
        assert mask.k == 3

    def test_nucleus_out_of_range_mass(self):
        s = ScoreVector([1.0, 0.0])
        with pytest.raises(InvalidInputError):
            build_face_nucleus(s, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            build_face_nucleus(s, 1.0, 1.5)

    def test_mask_requires_a_token(self):
        with pytest.raises(InvalidInputError):
            FaceMask(np.zeros(3, dtype=bool))
