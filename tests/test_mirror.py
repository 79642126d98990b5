"""Exact KL-prox step, multiplicative-weights step, iteration driver, certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from simplexflow import (
    InteriorityError,
    InvalidInputError,
    MirrorStepKind,
    ScoreVector,
    SimplexPoint,
    TerminalStatus,
    ascent_certificate,
    exact_prox_step,
    iterate,
    kl_divergence,
    printed_mw_step,
    softmax,
)
from simplexflow.mirror import (
    DEFAULT_KL_TOL,
    STALL_RATIO,
    ascent_certificates,
    step_agreement_exponent,
)
from simplexflow.oracles import (
    closed_form_entropic,
    closed_form_literal,
    prox_objective_maximizer,
)
from simplexflow.replicator import ConstantSchedule

from conftest import score_lists, weight_lists


def interior_point(weights):
    w = np.asarray(weights)
    return SimplexPoint(w / w.sum())


class TestExactProxStep:
    def test_half_half_example(self):
        # direct evaluation: q_1 = sqrt(.5) e^{1/2} / (sqrt(.5) e^{1/2} + sqrt(.5))
        q = exact_prox_step(SimplexPoint([0.5, 0.5]), ScoreVector([1.0, 0.0]), 1.0, 1.0)
        expected = math.exp(0.5) / (math.exp(0.5) + 1.0)  # 0.6224593312018546
        assert q.probs[0] == pytest.approx(expected, abs=1e-14)

    def test_huge_step_lands_on_softmax(self):
        s = ScoreVector([1.0, 0.0])
        q = exact_prox_step(SimplexPoint([0.9, 0.1]), s, 1.0, 1e12)
        assert np.max(np.abs(q.probs - softmax(s, 1.0).probs)) < 1e-9

    @pytest.mark.parametrize("eta", [0.1, 1.0, 10.0])
    def test_softmax_is_a_fixed_point(self, eta):
        s = ScoreVector([1.0, 0.0, -0.5])
        pi = softmax(s, 1.0)
        q = exact_prox_step(pi, s, 1.0, eta)
        assert np.max(np.abs(q.probs - pi.probs)) < 1e-12

    def test_matches_numerical_maximizer(self, rng):
        for _ in range(40):
            size = int(rng.integers(2, 17))
            s = ScoreVector(rng.uniform(-3, 3, size))
            p = SimplexPoint(rng.dirichlet(np.ones(size)))
            t = float(rng.uniform(0.25, 4.0))
            eta = float(rng.uniform(0.05, 2.0))
            closed = exact_prox_step(p, s, t, eta)
            numerical = prox_objective_maximizer(p, s, t, eta)
            assert np.max(np.abs(closed.probs - numerical.probs)) < 1e-8

    def test_boundary_start_raises(self):
        with pytest.raises(InteriorityError):
            exact_prox_step(SimplexPoint([1.0, 0.0]), ScoreVector([1.0, 0.0]), 1.0, 1.0)


class TestPrintedMWStep:
    def test_half_half_example(self):
        q = printed_mw_step(SimplexPoint([0.5, 0.5]), ScoreVector([1.0, 0.0]), 1.0, 1.0)
        expected = math.exp(1.0) / (1.0 + math.exp(1.0))
        assert q.probs[0] == pytest.approx(expected, abs=1e-14)

    def test_constant_scores_do_nothing(self):
        p = SimplexPoint([0.2, 0.3, 0.5])
        q = printed_mw_step(p, ScoreVector([2.0, 2.0, 2.0]), 1.0, 1.0)
        assert np.max(np.abs(q.probs - p.probs)) == 0.0

    @given(weight_lists(max_size=8), score_lists(max_size=8), st.floats(0.05, 2.0))
    def test_telescoping(self, weights, values, eta):
        size = min(len(weights), len(values))
        if size < 2:
            return
        p = interior_point(weights[:size])
        s = ScoreVector(values[:size])
        stepped = p
        for _ in range(3):
            stepped = printed_mw_step(stepped, s, 1.0, eta)
        direct = printed_mw_step(p, s, 1.0, 3.0 * eta)
        assert np.max(np.abs(stepped.probs - direct.probs)) <= 1e-12

    def test_long_run_concentrates_on_argmax(self):
        s = ScoreVector([1.0, 0.0, -1.0])
        p = SimplexPoint.uniform(3)
        # closed form after t steps: p_i proportional to exp(t * eta * s_i / T)
        q = printed_mw_step(p, s, 1.0, 60.0)
        assert q.probs[0] > 1.0 - 1e-8

    @given(weight_lists(max_size=8), score_lists(max_size=8), st.floats(0.05, 2.0))
    def test_both_steps_preserve_normalization_and_interiority(self, weights, values, eta):
        size = min(len(weights), len(values))
        if size < 2:
            return
        p = interior_point(weights[:size])
        s = ScoreVector(values[:size])
        for fn in (printed_mw_step, exact_prox_step):
            q = fn(p, s, 1.0, eta)
            assert abs(q.probs.sum() - 1.0) <= 1e-12
            assert q.interior


class TestIterate:
    @pytest.mark.parametrize("kind", list(MirrorStepKind))
    def test_a_temperature_whose_free_energy_overflows_is_refused(self, kind):
        # T H(p) <= T log V, which overflows at V = 10 although T does not
        s = ScoreVector([1.0, 0.0, -0.5, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(InvalidInputError, match="^free energy overflows: T log V is "
                           r"infinite at T=1e\+308, V=10$"):
            iterate(kind, SimplexPoint.uniform(10), s, 1e308)
        record = iterate(kind, SimplexPoint.uniform(10), s, 7e307, max_steps=3)
        assert np.isfinite(record.free_energy).all() and np.isfinite(record.slack).all()

    def test_exact_prox_converges_to_softmax(self, rng):
        s = ScoreVector(rng.uniform(-3, 3, 16))
        p0 = SimplexPoint(rng.dirichlet(np.ones(16)))
        record = iterate(
            MirrorStepKind.EXACT_PROX, p0, s, 1.0, 0.5, kl_tol=1e-15
        )
        assert record.terminal_status is TerminalStatus.CONVERGED
        assert record.terminal.kl_to_target < 1e-10

    def test_printed_mw_converges_to_argmax_not_softmax(self):
        s = ScoreVector([1.0, 0.0, -1.0])
        p0 = SimplexPoint.uniform(3)
        record = iterate(
            MirrorStepKind.PRINTED_MW, p0, s, 1.0, 0.5, max_steps=2000, kl_tol=1e-18
        )
        terminal = record.terminal.p
        assert abs(terminal.probs[0] - 1.0) < 1e-6
        assert record.terminal.kl_to_target > 0.1  # far from softmax

    def test_exact_prox_whose_move_vanishes_far_from_softmax_is_stalled(self):
        s, p0 = ScoreVector([1.0, 0.0]), SimplexPoint.uniform(2)
        record = iterate(MirrorStepKind.EXACT_PROX, p0, s, 1e-300, 0.5)
        assert record.terminal_status is TerminalStatus.STALLED
        assert record.terminal.kl_to_target > STALL_RATIO * DEFAULT_KL_TOL
        assert record.kl_move[-1] < DEFAULT_KL_TOL
        assert "per-step KL move below" in record.diagnostics
        # the ratio scales with the tolerance: a loose one still converges
        loose = iterate(MirrorStepKind.EXACT_PROX, p0, s, 1.0, 0.05, kl_tol=1e-4)
        assert loose.terminal_status is TerminalStatus.CONVERGED
        assert loose.terminal.kl_to_target > 1e-4

    def test_printed_mw_far_from_softmax_still_converges(self):
        record = iterate(MirrorStepKind.PRINTED_MW, SimplexPoint.uniform(2),
                         ScoreVector([1.0, 0.0]), 1.0, 0.5, max_steps=2000, kl_tol=1e-12)
        assert record.terminal_status is TerminalStatus.CONVERGED
        assert record.terminal.kl_to_target > 0.1

    def test_fixed_point_start_does_not_move(self):
        s = ScoreVector([1.0, 0.0])
        pi = softmax(s, 1.0)
        record = iterate(MirrorStepKind.EXACT_PROX, pi, s, 1.0, 1.0, max_steps=5)
        assert all(c.kl_move < 1e-14 for c in record.certificates)

    def test_zero_steps_allowed(self):
        s = ScoreVector([1.0, 0.0])
        record = iterate(MirrorStepKind.EXACT_PROX, SimplexPoint.uniform(2), s, 1.0, 1.0, max_steps=0)
        assert len(record.samples) == 1
        assert record.certificates == []
        assert record.terminal_status is TerminalStatus.MAX_TIME

    def test_samples_carry_no_field_norm_and_certificates_the_kl_move(self):
        s = ScoreVector([1.0, 0.0, -0.5])
        p0 = SimplexPoint([0.2, 0.3, 0.5])
        for kind in MirrorStepKind:
            record = iterate(kind, p0, s, 1.0, 0.5, max_steps=5, kl_tol=0.0)
            assert all(math.isnan(sample.field_norm) for sample in record.samples)
            for before, after, cert in zip(record.samples, record.samples[1:], record.certificates):
                assert cert.kl_move == pytest.approx(kl_divergence(after.p, before.p), rel=1e-9)
                # the certificate's free energies are the samples'
                assert (cert.f_before, cert.f_after) == (before.free_energy, after.free_energy)
                assert cert.slack == cert.f_after - cert.f_before - cert.kl_move / 0.5

    def test_max_steps_reported_not_raised(self):
        s = ScoreVector([1.0, 0.0])
        record = iterate(
            MirrorStepKind.PRINTED_MW, SimplexPoint.uniform(2), s, 1.0, 0.1, max_steps=3, kl_tol=0.0
        )
        assert record.terminal_status is TerminalStatus.MAX_TIME
        assert record.accepted_steps == 3

    @pytest.mark.parametrize("kl_tol", [-1.0, -math.inf, math.nan, math.inf])
    def test_a_stop_tolerance_that_is_not_finite_and_nonnegative_raises(self, kl_tol):
        # inf stopped after one step as converged; NaN and -inf ran every step
        s = ScoreVector([1.0, 0.0, -2.0])
        with pytest.raises(InvalidInputError, match="kl_tol"):
            iterate(MirrorStepKind.EXACT_PROX, SimplexPoint.uniform(3), s, 1.0, kl_tol=kl_tol)

    def test_mw_survives_deep_concentration(self):
        # log-space state keeps iterating far past float underflow of p_2
        s = ScoreVector([1.0, 0.0])
        record = iterate(
            MirrorStepKind.PRINTED_MW,
            SimplexPoint.uniform(2),
            s,
            1.0,
            1.0,
            max_steps=5000,
            kl_tol=0.0,
        )
        assert record.terminal.p.probs[0] == 1.0
        assert np.isfinite(record.terminal.free_energy)


class TestIteratesAreFlowSamples:
    """Iterate k against the independent closed forms of the flow it samples:
    exact prox at entropic time k log(1 + eta T), printed MW at literal time
    k eta.  Bounds pinned here."""

    INSTANCES = [
        (size, temp, eta)
        for size in (2, 8, 64, 1000)
        for temp in (0.25, 1.0, 4.0)
        for eta in (0.1, 1.0)
    ]

    def test_every_iterate_matches_the_flow_oracles(self):
        rng = np.random.default_rng(401)
        for size, temp, eta in self.INSTANCES:
            s = ScoreVector(rng.uniform(-3, 3, size))
            p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
            for kind in MirrorStepKind:
                record = iterate(kind, p0, s, temp, eta, max_steps=2000, kl_tol=1e-15)
                for k, sample in enumerate(record.samples):
                    if kind is MirrorStepKind.EXACT_PROX:
                        t_k = k * math.log1p(eta * temp)
                        exact = closed_form_entropic(p0, s, ConstantSchedule(temp), t_k).probs
                    else:
                        exact = closed_form_literal(p0, s, temp, k * eta).probs
                    mask = exact > 1e-300
                    assert np.max(np.abs(sample.p.probs[mask] / exact[mask] - 1.0)) <= 1e-12
                    assert np.max(np.abs(sample.p.probs - exact)) <= 5e-15

    def test_first_iterate_matches_the_printed_maps(self):
        rng = np.random.default_rng(402)
        for size, temp, eta in self.INSTANCES:
            s = ScoreVector(rng.uniform(-3, 3, size))
            p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
            for kind, step in (
                (MirrorStepKind.EXACT_PROX, exact_prox_step),
                (MirrorStepKind.PRINTED_MW, printed_mw_step),
            ):
                first = iterate(kind, p0, s, temp, eta, max_steps=1, kl_tol=0.0).terminal.p
                assert np.max(np.abs(first.probs - step(p0, s, temp, eta).probs)) <= 1e-15


class TestAscentCertificate:
    def test_exact_prox_slack_nonnegative_monte_carlo(self, rng):
        worst = math.inf
        for _ in range(1000):
            size = int(rng.integers(2, 65))
            s = ScoreVector(rng.uniform(-3, 3, size))
            p = SimplexPoint(rng.dirichlet(np.ones(size)))
            t = float(rng.uniform(0.25, 4.0))
            eta = float(rng.uniform(0.05, 2.0))
            cert = ascent_certificate(MirrorStepKind.EXACT_PROX, p, s, t, eta)
            worst = min(worst, cert.slack)
            assert cert.kl_move >= 0.0
        assert worst >= -1e-10

    def test_at_fixed_point_nothing_moves(self):
        s = ScoreVector([1.0, 0.0])
        pi = softmax(s, 1.0)
        cert = ascent_certificate(MirrorStepKind.EXACT_PROX, pi, s, 1.0, 1.0)
        assert cert.kl_move < 1e-14
        assert abs(cert.f_after - cert.f_before) < 1e-12

    def test_overflowing_step_weights_raise(self):
        s = ScoreVector([1.0, 0.0])
        with pytest.raises(InvalidInputError, match="overflow"):
            ascent_certificate(MirrorStepKind.PRINTED_MW, SimplexPoint.uniform(2), s, 1e-300, 1e10)

    def test_printed_mw_from_softmax_loses_free_energy(self):
        s = ScoreVector([1.0, 0.0])
        pi = softmax(s, 1.0)
        cert = ascent_certificate(MirrorStepKind.PRINTED_MW, pi, s, 1.0, 0.5)
        assert cert.f_after < cert.f_before
        assert cert.slack < 0.0

    def test_iterated_certificates_stay_consistent(self):
        s = ScoreVector([2.0, 0.0, -1.0])
        record = iterate(MirrorStepKind.EXACT_PROX, SimplexPoint.uniform(3), s, 1.0, 0.5)
        for cert in record.certificates:
            assert cert.slack >= -1e-10
        energies = record.free_energy
        assert np.all(np.diff(energies) >= -1e-12)


class TestAscentCertificates:
    @pytest.mark.parametrize("kind", list(MirrorStepKind))
    @pytest.mark.parametrize("size", [2, 3, 8, 64, 300])
    def test_each_row_is_the_one_step_iterate(self, rng, kind, size):
        n = 40
        S = rng.uniform(-3.0, 3.0, (n, size))
        P = rng.dirichlet(np.ones(size), n)
        temperatures = rng.uniform(0.25, 4.0, n)
        etas = rng.uniform(0.05, 2.0, n)
        columns = ascent_certificates(kind, P, S, temperatures, etas)
        assert all(column.shape == (n,) for column in columns)
        for row in range(n):
            record = iterate(
                kind, SimplexPoint(P[row]), ScoreVector(S[row]), temperatures[row], etas[row],
                max_steps=1, kl_tol=0.0,
            )
            cert = record.certificates[0]
            want = (cert.f_before, cert.f_after, cert.kl_move, cert.slack)
            assert [float(column[row]) for column in columns] == list(want), row

    @pytest.mark.parametrize(
        "kind, change, error, match",
        [
            ("exact-prox", {"S": [1.0, math.nan, 0.0]}, InvalidInputError, "finite"),
            ("exact-prox", {"P": [0.5, 0.5, 0.5]}, InvalidInputError, "sum to"),
            ("exact-prox", {"P": [0.5, -0.1, 0.6]}, InvalidInputError, "negative"),
            ("exact-prox", {"P": [0.5, 0.5, 0.0]}, InteriorityError, "interior"),
            ("exact-prox", {"T": 0.0}, InvalidInputError, "temperature"),
            ("exact-prox", {"T": math.inf}, InvalidInputError, "temperature"),
            ("printed-mw", {"T": math.nan}, InvalidInputError, "temperature"),
            ("exact-prox", {"eta": -1.0}, InvalidInputError, "step size"),
            ("printed-mw", {"eta": math.inf}, InvalidInputError, "step size"),
            ("exact-prox", {"S": [1.7e308, -1.7e308, 0.0]}, InvalidInputError, "spread"),
            ("printed-mw", {"T": 1e-300, "eta": 1e10}, InvalidInputError, "overflow"),
            # T log 3 overflows, although T does not
            ("exact-prox", {"T": 1.7e308}, InvalidInputError, "T log V is infinite"),
            (
                "exact-prox",
                {"S": [1.5e8, 0.0, 0.0], "T": 1e-300, "eta": 1e300},
                InvalidInputError,
                "overflow",
            ),
        ],
    )
    def test_a_failing_row_is_named(self, kind, change, error, match):
        n, bad = 5, 3
        S = np.tile([1.0, 0.0, -0.5], (n, 1))
        P = np.tile([0.2, 0.3, 0.5], (n, 1))
        temperatures, etas = np.ones(n), np.full(n, 0.5)
        for name, value in change.items():
            {"S": S, "P": P, "T": temperatures, "eta": etas}[name][bad] = value
        with pytest.raises(error, match=f"^row {bad}: .*{match}"):
            ascent_certificates(MirrorStepKind(kind), P, S, temperatures, etas)
        # the same rows without the failing one pass
        keep = np.arange(n) != bad
        ascent_certificates(MirrorStepKind(kind), P[keep], S[keep], temperatures[keep], etas[keep])

    def test_the_first_failing_row_is_named(self):
        S = np.tile([1.0, 0.0], (4, 1))
        P = np.tile([0.5, 0.5], (4, 1))
        with pytest.raises(InvalidInputError, match="^row 1: "):
            ascent_certificates(MirrorStepKind.EXACT_PROX, P, S, [1.0, -1.0, 0.0, 1.0], np.ones(4))

    @pytest.mark.parametrize(
        "P, S, temperatures, etas",
        [
            (np.full((2, 1), 1.0), np.zeros((2, 1)), np.ones(2), np.ones(2)),
            (np.full((2, 3), 1 / 3), np.zeros((2, 2)), np.ones(2), np.ones(2)),
            (np.full((2, 2), 0.5), np.zeros((2, 2)), np.ones(3), np.ones(2)),
            (np.full((2, 2), 0.5), np.zeros((2, 2)), np.ones(2), 1.0),
        ],
    )
    def test_shapes_that_do_not_fit_raise(self, P, S, temperatures, etas):
        with pytest.raises(InvalidInputError):
            ascent_certificates(MirrorStepKind.EXACT_PROX, P, S, temperatures, etas)


class TestFixedPointCharacterization:
    def test_fixed_iff_at_softmax(self, rng):
        s = ScoreVector([1.0, 0.0, -0.5])
        pi = softmax(s, 1.0)
        cert = ascent_certificate(MirrorStepKind.EXACT_PROX, pi, s, 1.0, 1.0)
        assert cert.kl_move < 1e-14
        assert kl_divergence(pi, pi) < 1e-12
        for _ in range(50):
            p = SimplexPoint(rng.dirichlet(np.ones(3)))
            if kl_divergence(p, pi) < 1e-12:
                continue
            cert = ascent_certificate(MirrorStepKind.EXACT_PROX, p, s, 1.0, 1.0)
            assert cert.kl_move >= 1e-14


class TestStepAgreement:
    def test_uniform_unit_temperature_is_second_order(self):
        # the two maps share their O(eta) velocity exactly where the centered
        # log p vanishes and T = 1; measure, don't assume
        p = SimplexPoint.uniform(4)
        s = ScoreVector([1.0, 0.0, -0.5, 0.25])
        slope, gaps = step_agreement_exponent(p, s, 1.0)
        assert slope >= 2.0 - 0.1
        assert np.all(np.diff(gaps) < 0)

    def test_perturbed_point_shows_the_first_order_remainder(self):
        # away from the zero-centered-log regime the gap picks up an O(eta)
        # component, so the measured exponent drops below 2
        p = SimplexPoint(np.array([0.2505, 0.2495, 0.2502, 0.2498]))
        s = ScoreVector([1.0, 0.0, -0.5, 0.25])
        slope, _ = step_agreement_exponent(p, s, 1.0)
        assert 0.9 <= slope < 2.0

    def test_generic_point_is_measured_and_recorded(self):
        p = SimplexPoint([0.6, 0.3, 0.1])
        s = ScoreVector([1.0, 0.0, -0.5])
        slope, gaps = step_agreement_exponent(p, s, 2.0)
        assert np.all(np.isfinite(gaps))
        assert math.isfinite(slope)
