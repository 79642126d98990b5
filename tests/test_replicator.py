"""Replicator fields, the simplex-preserving integrator, schedules, diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from simplexflow import (
    ConstantSchedule,
    ExponentialSchedule,
    FieldKind,
    IntegratorControls,
    InteriorityError,
    InvalidInputError,
    MirrorStepKind,
    PiecewiseConstantSchedule,
    ScoreVector,
    SimplexPoint,
    TerminalStatus,
    UnsupportedIdentityError,
    build_face_topk,
    check_time_reparameterization,
    effective_time,
    embed_in_face,
    euler_consistency,
    eval_field,
    integrate,
    iterate,
    kl_divergence,
    log_softmax,
    lyapunov_report,
    parse_schedule,
    restrict_to_face,
    softmax,
)
from simplexflow import replicator
from simplexflow.oracles import closed_form_entropic, closed_form_literal
from simplexflow.path_fields import linear_field, rotation_coupling
from simplexflow.replicator import BLOCK_BYTES, FIRST_BLOCK, LOG_CLAMP, _run_flow
from simplexflow.trajectory import BlockCounts, TrajectoryRecord

from conftest import score_lists, weight_lists


class TestSchedules:
    def test_constant_effective_time(self):
        assert effective_time(ConstantSchedule(2.0), 4.0) == pytest.approx(2.0, abs=1e-15)

    def test_piecewise_effective_time_example(self):
        sched = PiecewiseConstantSchedule((1.0,), (1.0, 2.0))
        assert effective_time(sched, 3.0) == pytest.approx(2.0, abs=1e-15)
        assert sched.at(0.5) == 1.0
        assert sched.at(1.0) == 2.0

    def test_exponential_effective_time_example(self):
        sched = ExponentialSchedule(1.0, 1.0)
        assert effective_time(sched, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    def test_exponential_effective_time_when_initial_times_rate_underflows(self):
        # 1e-24 * 1e-300 is 0.0 in double precision; tau(t) ~ t / T0 for r t << 1
        for rate in (1e-300, -1e-300):
            assert effective_time(ExponentialSchedule(1e-24, rate), 1.0) == pytest.approx(1e24)

    def test_exponential_zero_rate_is_constant(self):
        assert effective_time(ExponentialSchedule(2.0, 0.0), 4.0) == pytest.approx(2.0)

    @given(st.floats(0.1, 10.0), st.lists(st.floats(0.01, 5.0), min_size=1, max_size=20))
    def test_effective_time_is_monotone(self, temp, increments):
        sched = ExponentialSchedule(temp, -0.2)
        ts = np.cumsum(increments)
        taus = [effective_time(sched, float(t)) for t in ts]
        assert np.all(np.diff(taus) > 0)

    def test_invalid_schedules_raise(self):
        with pytest.raises(InvalidInputError):
            PiecewiseConstantSchedule((2.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(InvalidInputError):
            PiecewiseConstantSchedule((1.0,), (1.0, -2.0))
        with pytest.raises(InvalidInputError):
            ConstantSchedule(0.0)

    def test_parse_round_trips(self):
        assert parse_schedule("constant:2.0") == ConstantSchedule(2.0)
        assert parse_schedule("piecewise:0:1.0,1:2.0") == PiecewiseConstantSchedule(
            (1.0,), (1.0, 2.0)
        )
        assert parse_schedule("exponential:1.0:0.5") == ExponentialSchedule(1.0, 0.5)
        with pytest.raises(InvalidInputError):
            parse_schedule("linear:1.0")
        with pytest.raises(InvalidInputError):
            parse_schedule("piecewise:1:1.0")


class TestEvalField:
    def test_literal_two_point_example(self):
        x = eval_field(FieldKind.LITERAL, SimplexPoint([0.5, 0.5]), ScoreVector([1.0, 0.0]), 1.0)
        assert np.allclose(x, [0.25, -0.25], atol=1e-15)

    def test_constant_scores_give_zero_field(self):
        x = eval_field(
            FieldKind.LITERAL, SimplexPoint([0.2, 0.3, 0.5]), ScoreVector([2.0, 2.0, 2.0]), 1.0
        )
        assert np.all(x == 0.0)

    def test_entropic_vanishes_at_softmax(self):
        s = ScoreVector([1.0, 0.0, -0.5])
        pi = softmax(s, 1.0)
        x = eval_field(FieldKind.ENTROPIC, pi, s, 1.0)
        assert np.max(np.abs(x)) <= 1e-12

    def test_literal_does_not_vanish_at_softmax(self):
        # the stationarity witness: score-only fitness is not equilibrated by softmax
        s = ScoreVector([1.0, 0.0])
        x = eval_field(FieldKind.LITERAL, softmax(s, 1.0), s, 1.0)
        assert np.max(np.abs(x)) > 0.1

    def test_entropic_boundary_raises(self):
        with pytest.raises(InteriorityError):
            eval_field(FieldKind.ENTROPIC, SimplexPoint([1.0, 0.0]), ScoreVector([1.0, 0.0]), 1.0)

    def test_zero_coordinates_stay_exactly_zero(self):
        x = eval_field(
            FieldKind.LITERAL, SimplexPoint([0.6, 0.0, 0.4]), ScoreVector([1.0, 5.0, 0.0]), 1.0
        )
        assert x[1] == 0.0

    @given(score_lists(max_size=12), weight_lists(max_size=12), st.floats(0.1, 5.0))
    def test_tangency_at_ulp_level(self, values, weights, t):
        size = min(len(values), len(weights))
        if size < 2:
            return
        p = SimplexPoint(np.asarray(weights[:size]) / np.sum(weights[:size]))
        s = ScoreVector(values[:size])
        for kind in FieldKind:
            x = eval_field(kind, p, s, t)
            # exact zero is not representable for a rounded product sum; a few
            # ulps of the largest component is the attainable contract
            assert abs(float(np.sum(x))) <= 1e-13

    @given(score_lists(max_size=8), weight_lists(max_size=8), st.floats(-4.0, 4.0))
    def test_shift_invariance(self, values, weights, c):
        size = min(len(values), len(weights))
        if size < 2:
            return
        p = SimplexPoint(np.asarray(weights[:size]) / np.sum(weights[:size]))
        s = ScoreVector(values[:size])
        for kind in FieldKind:
            a = eval_field(kind, p, s, 1.0)
            b = eval_field(kind, p, s.shifted(c), 1.0)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_entropic_equilibrium_is_unique_by_probing(self, rng):
        s = ScoreVector(rng.uniform(-3, 3, 6))
        t = 1.0
        pi = softmax(s, t)
        assert np.max(np.abs(eval_field(FieldKind.ENTROPIC, pi, s, t))) <= 1e-12
        for _ in range(10_000):
            p = SimplexPoint(rng.dirichlet(np.ones(6)))
            if kl_divergence(p, pi) > 1e-4:
                assert np.max(np.abs(eval_field(FieldKind.ENTROPIC, p, s, t))) > 1e-8


class TestIntegrateEntropic:
    def test_converges_to_softmax_with_monotone_free_energy(self, rng):
        s = ScoreVector(rng.uniform(-3, 3, 8))
        p0 = SimplexPoint(rng.dirichlet(np.ones(8)))
        traj = integrate(FieldKind.ENTROPIC, p0, s, 1.0)
        assert traj.terminal_status is TerminalStatus.CONVERGED
        assert kl_divergence(traj.terminal.p, softmax(s, 1.0)) < 1e-8
        report = lyapunov_report(traj, s, 1.0)
        assert report.monotone

    def test_probability_sums_stay_tight(self, rng):
        s = ScoreVector(rng.uniform(-3, 3, 16))
        p0 = SimplexPoint(rng.dirichlet(np.ones(16)))
        traj = integrate(FieldKind.ENTROPIC, p0, s, 0.5)
        for sample in traj.samples:
            assert abs(float(sample.p.probs.sum()) - 1.0) <= 1e-12
        assert traj.renormalizations == 0  # corrective events counted, none expected
        assert np.all(np.diff(traj.times) > 0)

    def test_boundary_push_hits_clamp_and_reports_diverged(self):
        # equilibrium mass below 1e-300: with early stopping disabled the flow
        # keeps driving log p_1 down until the clamp flags the run
        s = ScoreVector([0.0, 1600.0])
        traj = integrate(
            FieldKind.ENTROPIC,
            SimplexPoint.uniform(2),
            s,
            1.0,
            10.0,
            IntegratorControls(convergence_kl=0.0),
        )
        assert traj.terminal_status is TerminalStatus.DIVERGED
        assert "clamp" in traj.diagnostics

    def test_boundary_start_raises(self):
        with pytest.raises(InteriorityError):
            integrate(FieldKind.ENTROPIC, SimplexPoint([1.0, 0.0]), ScoreVector([1.0, 0.0]), 1.0)

    @pytest.mark.parametrize("kind", list(FieldKind))
    def test_annealing_weight_overflow_reports_diverged_without_nan(self, kind):
        # T(t) = e^{-t} drives the flow weight past the float range near t = 710
        traj = integrate(
            kind,
            SimplexPoint.uniform(2),
            ScoreVector([1.0, 0.0]),
            ExponentialSchedule(1.0, -1.0),
            1e3,
            IntegratorControls(convergence_kl=0.0),
        )
        assert traj.terminal_status is TerminalStatus.DIVERGED
        for sample in traj.samples:
            values = [sample.free_energy, sample.kl_to_target, sample.field_norm]
            assert np.all(np.isfinite(values)) and np.all(np.isfinite(sample.p.probs))


class TestIntegrateLiteral:
    def test_matches_closed_form(self, rng):
        s = ScoreVector(rng.uniform(-3, 3, 32))
        p0 = SimplexPoint(rng.dirichlet(np.ones(32)))
        grid = tuple(np.linspace(0.0, 20.0, 11))
        traj = integrate(
            FieldKind.LITERAL,
            p0,
            s,
            1.0,
            20.0,
            IntegratorControls(sample_times=grid, convergence_kl=0.0),
        )
        for sample in traj.samples:
            exact = closed_form_literal(p0, s, 1.0, sample.t)
            mask = exact.probs > 0
            rel = np.max(np.abs(sample.p.probs[mask] / exact.probs[mask] - 1.0))
            assert rel < 1e-6

    def test_concentrates_on_argmax(self, rng):
        s = ScoreVector([1.0, 0.2, 0.0])
        p0 = SimplexPoint(rng.dirichlet(np.ones(3)))
        traj = integrate(FieldKind.LITERAL, p0, s, 1.0, 100.0, IntegratorControls(convergence_kl=1e-14))
        assert traj.terminal.p.probs[0] > 1.0 - 1e-6

    def test_face_coordinates_stay_exactly_zero(self, rng):
        p0 = SimplexPoint([0.4, 0.0, 0.35, 0.25, 0.0])
        s = ScoreVector(rng.uniform(-3, 3, 5))
        traj = integrate(FieldKind.LITERAL, p0, s, 1.0, 50.0)
        for sample in traj.samples:
            assert sample.p.probs[1] == 0.0
            assert sample.p.probs[4] == 0.0

    def test_face_restricted_run_matches_restricted_system(self, rng):
        s = ScoreVector(rng.uniform(-3, 3, 6))
        mask = build_face_topk(s, 4)
        p_face = SimplexPoint(rng.dirichlet(np.ones(4)))
        p_full = embed_in_face(mask, p_face)
        s_face, _ = restrict_to_face(s, p_full, mask)
        grid = tuple(np.linspace(0.0, 15.0, 16))
        controls = IntegratorControls(sample_times=grid, convergence_kl=0.0)
        full = integrate(FieldKind.LITERAL, p_full, s, 1.0, 15.0, controls)
        restricted = integrate(FieldKind.LITERAL, p_face, s_face, 1.0, 15.0, controls)
        for a, b in zip(full.samples, restricted.samples):
            assert np.max(np.abs(a.p.probs[mask.support] - b.p.probs)) < 1e-8

    def test_tied_argmax_freezes_within_set_ratios(self):
        s = ScoreVector([1.0, 1.0, 0.0])
        p0 = SimplexPoint([0.2, 0.4, 0.4])
        traj = integrate(FieldKind.LITERAL, p0, s, 1.0, 200.0, IntegratorControls(convergence_kl=1e-16))
        terminal = traj.terminal.p.probs
        # closed form: tied-set mass goes to 1 with ratios locked at 0.2 : 0.4
        assert terminal[0] + terminal[1] > 1.0 - 1e-8
        assert terminal[0] / terminal[1] == pytest.approx(0.5, abs=1e-8)


class TestLyapunovReport:
    def test_entropic_runs_are_monotone(self, rng):
        for _ in range(40):
            size = int(rng.integers(2, 9))
            s = ScoreVector(rng.uniform(-3, 3, size))
            p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
            traj = integrate(FieldKind.ENTROPIC, p0, s, 1.0)
            assert lyapunov_report(traj, s, 1.0).monotone

    def test_literal_from_softmax_loses_free_energy(self):
        s = ScoreVector([1.0, 0.0])
        pi = softmax(s, 1.0)
        traj = integrate(FieldKind.LITERAL, pi, s, 1.0, 50.0)
        report = lyapunov_report(traj, s, 1.0)
        assert not report.monotone
        assert report.worst_drop < 0.0

    def test_stationary_start_is_flat(self):
        s = ScoreVector([1.0, 0.0])
        pi = softmax(s, 1.0)
        traj = integrate(FieldKind.ENTROPIC, pi, s, 1.0, 10.0)
        report = lyapunov_report(traj, s, 1.0)
        assert report.worst_drop >= -1e-12


class TestEulerConsistency:
    def test_symmetric_point_degenerates_to_second_order(self):
        # at p = (1/2, 1/2) the second derivative of the MW map vanishes by
        # symmetry (sigmoid inflection), so the residual is O(eta^2) there;
        # the >= 0.9 first-order contract still holds
        report = euler_consistency(
            SimplexPoint([0.5, 0.5]), ScoreVector([1.0, 0.0]), 1.0, (1e-2, 1e-3, 1e-4)
        )
        assert report.order == pytest.approx(2.0, abs=0.1)
        assert report.order >= 0.9

    def test_generic_point_slope_near_one(self):
        report = euler_consistency(
            SimplexPoint([0.7, 0.3]), ScoreVector([1.0, 0.0]), 1.0, (1e-2, 1e-3, 1e-4)
        )
        assert report.order == pytest.approx(1.0, abs=0.1)

    def test_constant_scores_have_zero_residuals(self):
        report = euler_consistency(
            SimplexPoint([0.3, 0.7]), ScoreVector([2.0, 2.0]), 1.0, (1e-2, 1e-3)
        )
        assert all(r <= 1e-15 for r in report.residuals)
        assert report.order == math.inf

    def test_prox_step_linearizes_to_the_entropic_field(self, rng):
        for _ in range(20):
            size = int(rng.integers(2, 9))
            s = ScoreVector(rng.uniform(-3, 3, size))
            p = SimplexPoint(rng.dirichlet(np.ones(size)))
            t = float(rng.uniform(0.5, 2.0))
            report = euler_consistency(p, s, t, kind=FieldKind.ENTROPIC)
            assert report.order >= 0.9


class TestTimeReparameterization:
    def test_constant_schedule(self, rng):
        s = ScoreVector(rng.uniform(-3, 3, 3))
        p0 = SimplexPoint(rng.dirichlet(np.ones(3)))
        dev = check_time_reparameterization(s, p0, ConstantSchedule(2.0), 5.0)
        assert dev < 1e-8

    def test_unit_schedule_is_trivial(self, rng):
        s = ScoreVector(rng.uniform(-3, 3, 3))
        p0 = SimplexPoint(rng.dirichlet(np.ones(3)))
        dev = check_time_reparameterization(s, p0, ConstantSchedule(1.0), 5.0)
        assert dev < 1e-12

    def test_piecewise_schedule(self, rng):
        s = ScoreVector(rng.uniform(-3, 3, 3))
        p0 = SimplexPoint(rng.dirichlet(np.ones(3)))
        sched = PiecewiseConstantSchedule((1.0,), (1.0, 0.5))
        dev = check_time_reparameterization(s, p0, sched, 5.0)
        assert dev < 1e-7

    def test_exponential_schedule(self, rng):
        s = ScoreVector(rng.uniform(-3, 3, 3))
        p0 = SimplexPoint(rng.dirichlet(np.ones(3)))
        dev = check_time_reparameterization(s, p0, ExponentialSchedule(1.0, 0.4), 5.0)
        assert dev < 1e-7

    def test_entropic_kind_is_unsupported(self, rng):
        s = ScoreVector(rng.uniform(-3, 3, 3))
        p0 = SimplexPoint(rng.dirichlet(np.ones(3)))
        with pytest.raises(UnsupportedIdentityError):
            check_time_reparameterization(s, p0, ConstantSchedule(2.0), 5.0, kind=FieldKind.ENTROPIC)


#: schedule of each kind, including the r = 1 branch of the exponential weight
GATE_SCHEDULES = (
    ConstantSchedule(0.5),
    PiecewiseConstantSchedule((1.0, 2.5), (1.0, 0.5, 2.0)),
    ExponentialSchedule(1.0, 0.4),
    ExponentialSchedule(2.0, -0.1),
    ExponentialSchedule(1.0, 1.0),
)


def constant_scores(s):
    return lambda p: s.values, lambda p: float(p @ s.values)


class TestClosedFormGates:
    """Exact fixed-score solutions against the quadrature oracle, and the
    adaptive driver against both closed forms; tolerances pinned here."""

    def test_entropic_solution_matches_the_quadrature_oracle(self):
        rng = np.random.default_rng(301)
        grid = tuple(np.linspace(0.0, 20.0, 21))
        controls = IntegratorControls(sample_times=grid, convergence_kl=0.0)
        for schedule in GATE_SCHEDULES:
            for size in (2, 64, 1000):
                s = ScoreVector(rng.uniform(-3, 3, size))
                p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
                traj = integrate(FieldKind.ENTROPIC, p0, s, schedule, 20.0, controls)
                assert len(traj.samples) == len(grid)
                for sample in traj.samples:
                    exact = closed_form_entropic(p0, s, schedule, sample.t).probs
                    mask = exact > 1e-300
                    assert np.max(np.abs(sample.p.probs[mask] / exact[mask] - 1.0)) <= 1e-9

    def test_adaptive_driver_matches_both_closed_forms(self):
        rng = np.random.default_rng(302)
        grid = tuple(np.linspace(0.0, 8.0, 9))
        controls = IntegratorControls(rel_tol=1e-10, abs_tol=1e-12, sample_times=grid)
        for schedule in GATE_SCHEDULES:
            for size in (2, 8, 64):
                s = ScoreVector(rng.uniform(-3, 3, size))
                p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
                for kind in FieldKind:
                    traj = _run_flow(kind, p0, *constant_scores(s), schedule, 8.0, controls)
                    assert len(traj.samples) == len(grid)
                    for sample in traj.samples:
                        if kind is FieldKind.ENTROPIC:
                            exact = closed_form_entropic(p0, s, schedule, sample.t)
                        else:
                            tau = effective_time(schedule, sample.t)
                            exact = closed_form_literal(p0, s, 1.0, tau)
                        assert np.max(np.abs(sample.p.probs - exact.probs)) <= 5e-7

    def test_adaptive_driver_on_criterion_4_instances(self):
        rng = np.random.default_rng(104)
        grid = tuple(np.linspace(0.0, 20.0, 21))
        controls = IntegratorControls(sample_times=grid)
        for size in (2, 64, 1000):
            s = ScoreVector(rng.uniform(-3, 3, size))
            p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
            traj = _run_flow(
                FieldKind.LITERAL, p0, *constant_scores(s), ConstantSchedule(1.0), 20.0, controls
            )
            assert len(traj.samples) == len(grid)
            for sample in traj.samples:
                exact = closed_form_literal(p0, s, 1.0, sample.t)
                mask = exact.probs > 0
                assert np.max(np.abs(sample.p.probs[mask] / exact.probs[mask] - 1.0)) < 1e-6


def scalar_logs(kind, p0, s, schedule, times):
    """Each stop alone: normalize(a log p0 + b (s - max s)) with (a, b) =
    (1, effective_time) for LITERAL and (e^{-t}, entropic_weight) for ENTROPIC."""
    entropic = kind is FieldKind.ENTROPIC
    ell0, shifted = np.log(p0.probs), s.values - s.values.max()
    rows = []
    for t in times:
        a = math.exp(-t) if entropic else 1.0
        b = schedule.entropic_weight(t) if entropic else schedule.effective_time(t)
        rows.append(normalized(a * ell0 + b * shifted))
    return rows


def normalized(ell):
    m = float(ell.max())
    return ell - (m + math.log(float(np.exp(ell - m).sum())))


def scalar_probs(rows):
    return np.array([SimplexPoint(np.exp(ell)).probs for ell in rows])


def scalar_moves(rows):
    """Per-step KL move D(p_k || p_{k-1}), k = 1, 2, ..."""
    return [max(float(np.exp(b) @ (b - a)), 0.0) for a, b in zip(rows, rows[1:])]


class TestBlockedClosedForm:
    """The (K, V) blocks of ``_solve_blocks`` against each stop evaluated alone
    (``scalar_logs``): probabilities equal to the bit, stop rows equal, KL
    values within 1e-15.  Blocks hold FIRST_BLOCK = 16, 32, 64, ... rows."""

    P0 = SimplexPoint([0.1, 0.2, 0.3, 0.4])
    S = ScoreVector([1.0, 0.0, -0.5, 2.0])

    @pytest.mark.parametrize("row", [1, 15, 16, 17, 48])
    def test_iterates_stop_at_the_first_row_below_the_tolerance(self, row):
        temp, eta = 1.0, 0.05
        h = math.log1p(eta * temp)
        rows = scalar_logs(FieldKind.ENTROPIC, self.P0, self.S, ConstantSchedule(temp),
                           [k * h for k in range(200)])
        moves = scalar_moves(rows)
        assert moves[row - 1] < min(moves[: row - 1], default=math.inf) / 1.01
        tol = moves[row - 1] * (1.005 if row == 1 else math.sqrt(moves[row - 2] / moves[row - 1]))
        record = iterate(MirrorStepKind.EXACT_PROX, self.P0, self.S, temp, eta,
                         max_steps=199, kl_tol=tol)
        assert record.terminal_status is TerminalStatus.CONVERGED
        assert record.accepted_steps == row and len(record.samples) == row + 1
        assert np.array_equal(record.P, scalar_probs(rows[: row + 1]))
        assert np.max(np.abs(record.kl_move - moves[:row])) <= 1e-15
        assert record.block_counts.stops_kept == row + 1

    @pytest.mark.parametrize("row", [1, 15, 16, 17, 48])
    def test_flows_stop_at_the_first_row_below_the_tolerance(self, row):
        grid = np.linspace(0.0, 6.0, 121)
        rows = scalar_logs(FieldKind.ENTROPIC, self.P0, self.S, ConstantSchedule(1.0), grid)
        target = log_softmax(self.S, 1.0)
        kls = [max(float(np.exp(ell) @ (ell - target)), 0.0) for ell in rows]
        assert all(np.diff(kls) < 0)
        tol = math.sqrt(kls[row] * kls[row - 1])
        controls = IntegratorControls(sample_times=tuple(grid), convergence_kl=tol)
        traj = integrate(FieldKind.ENTROPIC, self.P0, self.S, 1.0, 6.0, controls)
        assert traj.terminal_status is TerminalStatus.CONVERGED
        assert len(traj.samples) == row + 1 and traj.terminal.t == grid[row]
        assert np.array_equal(traj.P, scalar_probs(rows[: row + 1]))
        assert np.max(np.abs(traj.kl_to_target - kls[: row + 1])) <= 1e-15

    def test_blocks_are_capped_in_bytes_at_a_wide_vocabulary(self):
        rng = np.random.default_rng(501)
        size = 10_000
        s = ScoreVector(rng.uniform(-3, 3, size))
        p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
        cap = BLOCK_BYTES // (8 * size)
        assert cap < FIRST_BLOCK
        record = iterate(MirrorStepKind.PRINTED_MW, p0, s, 1.0, 0.5, max_steps=40, kl_tol=0.0)
        assert record.block_counts == BlockCounts(41, 41, math.ceil(41 / cap))
        rows = scalar_logs(FieldKind.LITERAL, p0, s, ConstantSchedule(1.0),
                           [k * 0.5 for k in range(41)])
        assert np.array_equal(record.P, scalar_probs(rows))

    def test_max_steps_off_a_block_edge(self):
        record = iterate(MirrorStepKind.PRINTED_MW, self.P0, self.S, 1.0, 0.5,
                         max_steps=20, kl_tol=0.0)
        assert record.terminal_status is TerminalStatus.MAX_TIME
        assert record.accepted_steps == 20 and len(record.certificates) == 20
        assert record.block_counts == BlockCounts(21, 21, 2)
        rows = scalar_logs(FieldKind.LITERAL, self.P0, self.S, ConstantSchedule(1.0),
                           [k * 0.5 for k in range(21)])
        assert np.array_equal(record.P, scalar_probs(rows))

    def test_overflow_diverges_keeping_the_earlier_rows(self):
        temp, eta = 1e-306, 0.5
        first = next(k for k in range(401) if not math.isfinite(k * eta / temp + 1.0 / temp))
        record = iterate(MirrorStepKind.PRINTED_MW, SimplexPoint.uniform(2),
                         ScoreVector([1.0, 0.0]), temp, eta, max_steps=400, kl_tol=0.0)
        assert record.terminal_status is TerminalStatus.DIVERGED
        assert record.diagnostics.endswith(f"at step {first}")
        assert len(record.samples) == first
        assert record.block_counts == BlockCounts(first, first, 5)
        rows = scalar_logs(FieldKind.LITERAL, SimplexPoint.uniform(2), ScoreVector([1.0, 0.0]),
                           ConstantSchedule(temp), [k * eta for k in range(first)])
        assert np.array_equal(record.P, scalar_probs(rows))

    def test_clamp_row_ends_the_run(self):
        grid = np.linspace(0.0, 2.0, 101)
        s, p0 = ScoreVector([0.0, 1600.0]), SimplexPoint.uniform(2)
        rows = scalar_logs(FieldKind.ENTROPIC, p0, s, ConstantSchedule(1.0), grid)
        clamp = next(k for k, ell in enumerate(rows) if ell.min() < LOG_CLAMP)
        assert clamp > FIRST_BLOCK
        controls = IntegratorControls(sample_times=tuple(grid), convergence_kl=0.0)
        traj = integrate(FieldKind.ENTROPIC, p0, s, 1.0, 2.0, controls)
        assert traj.terminal_status is TerminalStatus.DIVERGED
        assert "clamp" in traj.diagnostics and len(traj.samples) == clamp + 1
        assert np.array_equal(traj.P[:clamp], scalar_probs(rows[:clamp]))
        clamped = scalar_probs([normalized(np.maximum(rows[clamp], LOG_CLAMP))])
        assert np.array_equal(traj.P[clamp:], clamped)
        # a row that converges ends the run before a clamp row later in its block
        coarse = IntegratorControls(sample_times=tuple(grid[::10]))
        early = integrate(FieldKind.ENTROPIC, p0, s, 1.0, 2.0, coarse)
        assert early.terminal_status is TerminalStatus.CONVERGED and len(early.samples) == 2

    def test_stop_indices_match_at_kl_tol_1e_12(self):
        rng = np.random.default_rng(502)
        for size in (2, 8, 64):
            for temp in (0.25, 1.0, 4.0):
                for eta in (0.1, 1.0):
                    s = ScoreVector(rng.uniform(-3, 3, size))
                    p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
                    for kind, flow, h in (
                        (MirrorStepKind.EXACT_PROX, FieldKind.ENTROPIC, math.log1p(eta * temp)),
                        (MirrorStepKind.PRINTED_MW, FieldKind.LITERAL, eta),
                    ):
                        record = iterate(kind, p0, s, temp, eta, max_steps=3000, kl_tol=1e-12)
                        rows = scalar_logs(flow, p0, s, ConstantSchedule(temp),
                                           [k * h for k in range(record.accepted_steps + 1)])
                        moves = scalar_moves(rows)
                        stop = next((k for k, m in enumerate(moves, 1) if m < 1e-12), None)
                        if record.terminal_status is TerminalStatus.CONVERGED:
                            assert stop == record.accepted_steps
                        else:  # near-tied top scores: printed MW moves slowly
                            assert stop is None and record.accepted_steps == 3000

    def test_samples_and_certificates_are_views_of_the_columns(self, monkeypatch):
        record = iterate(MirrorStepKind.EXACT_PROX, self.P0, self.S, 1.0, 0.5, kl_tol=1e-12)
        n = len(record.P)

        def refuse(self, i):
            raise AssertionError("row built")

        with monkeypatch.context() as patch:
            patch.setattr(TrajectoryRecord, "_sample", refuse)
            patch.setattr(TrajectoryRecord, "_certificate", refuse)
            assert len(record.samples) == n and len(record.certificates) == n - 1
        assert np.array_equal(record.samples[-1].p.probs, record.P[-1])
        tail = record.samples[1:]
        assert [x.t for x in tail] == list(range(1, n))
        assert np.array_equal(np.array([x.p.probs for x in tail]), record.P[1:])
        assert np.array_equal(record.probabilities, np.array([x.p.probs for x in record.samples]))
        assert record.certificates[-1].kl_move == record.kl_move[-1]
        with pytest.raises(ValueError):
            record.P[0, 0] = 0.5


def closed_form(kind, p0, s, schedule, t):
    if kind is FieldKind.ENTROPIC:
        return closed_form_entropic(p0, s, schedule, t)
    return closed_form_literal(p0, s, 1.0, effective_time(schedule, t))


class Counted:
    """``scores_at`` that counts its calls and fails past ``budget`` of them,
    so a driver whose steps shrink away fails at once instead of running on."""

    def __init__(self, scores_at, budget):
        self.scores_at, self.budget, self.calls = scores_at, budget, 0

    def __call__(self, p):
        self.calls += 1
        assert self.calls <= self.budget, "fitness budget exhausted"
        return self.scores_at(p)


class TestEmbeddedPair:
    """The Dormand-Prince 5(4) driver of ``_run_flow``: a first integral of the
    rotation flow, gate B's instances at a bound and a step count pinned here,
    steps that end on schedule breakpoints, and the reuse of a step's last
    stage as the next step's first (FSAL).  Each bound is about the measured
    value; the step-doubling midpoint driver this one replaced drifted 4.2e-8
    on the first integral with 5000 samples and took 52,158 steps on gate B.
    Fitness budgets of about twice the calls measured make a driver whose
    steps collapse fail fast."""

    P0 = SimplexPoint([0.5, 0.3, 0.2])

    @pytest.mark.parametrize("beta", [0.5, 8.0])
    def test_rotation_flow_conserves_the_sum_of_log_p(self, beta):
        # s = B p with the columns of B summing to 0 and <p, B p> = 0, so
        # d/dt sum_i log p_i = (sum_i s_i - 3 <p, s>) / T = 0
        horizon = 50.0 / beta  # find_recurrent_beta's horizon at T = 1
        for controls, bound, budget in (
            (IntegratorControls(n_samples=50, convergence_kl=0.0), 2e-7, 3000),
            (IntegratorControls(n_samples=5000, uniform_samples=True, convergence_kl=0.0),
             3e-14, 40000),
        ):
            field = linear_field(np.zeros(3), rotation_coupling(beta))
            traj = _run_flow(FieldKind.LITERAL, self.P0, Counted(field.scores_at, budget),
                             field.potential, ConstantSchedule(1.0), horizon, controls)
            assert len(traj.samples) == controls.n_samples
            invariant = np.log(traj.P).sum(axis=1)
            assert np.max(np.abs(invariant - invariant[0])) <= bound

    def test_gate_b_instances_at_a_pinned_bound(self):
        rng = np.random.default_rng(302)
        grid = tuple(np.linspace(0.0, 8.0, 9))
        controls = IntegratorControls(rel_tol=1e-10, abs_tol=1e-12, sample_times=grid)
        worst, accepted, rejected = 0.0, 0, 0
        for schedule in GATE_SCHEDULES:
            for size in (2, 8, 64):
                s = ScoreVector(rng.uniform(-3, 3, size))
                p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
                for kind in FieldKind:
                    scores_at, potential = constant_scores(s)
                    traj = _run_flow(kind, p0, Counted(scores_at, 2000), potential, schedule,
                                     8.0, controls)
                    accepted += traj.step_counts.accepted_steps
                    rejected += traj.step_counts.rejected_steps
                    for sample in traj.samples:
                        exact = closed_form(kind, p0, s, schedule, sample.t).probs
                        worst = max(worst, float(np.max(np.abs(sample.p.probs - exact))))
        assert worst <= 1e-10
        assert accepted <= 2100 and rejected <= 10

    def test_steps_that_end_on_breakpoints(self):
        rng = np.random.default_rng(303)
        schedule = PiecewiseConstantSchedule((0.5, 1.25, 2.0, 3.0), (1.0, 0.25, 2.0, 0.5, 1.0))
        grid = tuple(np.linspace(0.0, 4.0, 17))  # every breakpoint is a sample time
        for size in (3, 16):
            s = ScoreVector(rng.uniform(-3, 3, size))
            p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
            for kind in FieldKind:
                scores_at, potential = constant_scores(s)
                traj = _run_flow(kind, p0, Counted(scores_at, 600), potential, schedule, 4.0,
                                 IntegratorControls(sample_times=grid))
                assert list(traj.t) == list(grid)
                for sample in traj.samples:
                    exact = closed_form(kind, p0, s, schedule, sample.t).probs
                    assert np.max(np.abs(sample.p.probs - exact)) <= 3e-9
                assert traj.step_counts.rejected_steps <= 3

    def test_the_last_stage_is_the_next_first_until_the_state_or_t_moves(self, monkeypatch):
        s = ScoreVector([1.0, 0.0, -0.5])
        schedule = PiecewiseConstantSchedule((1.0,), (1.0, 0.5))
        controls = IntegratorControls(n_samples=20)

        def run():
            scores_at, potential = constant_scores(s)
            counted = Counted(scores_at, 2000)
            traj = _run_flow(FieldKind.ENTROPIC, self.P0, counted, potential, schedule, 3.0,
                             controls)
            trials = traj.step_counts.accepted_steps + traj.step_counts.rejected_steps
            # one call for the start, six per trial step and one per sample row
            return traj, counted.calls - 1 - 6 * trials - len(traj.samples)

        traj, extra = run()
        assert traj.renormalizations == 0
        assert extra == 1  # the first stage after the breakpoint
        with monkeypatch.context() as patch:
            patch.setattr(replicator, "NORM_EPS", -1.0)  # renormalize after every step
            traj, extra = run()
        assert traj.renormalizations == traj.step_counts.accepted_steps
        # a fresh first stage after each step; at the breakpoint it is due anyway
        assert extra == traj.step_counts.accepted_steps

    @pytest.mark.parametrize("gap", [1e-14, 2e-14, 3e-14, 5e-14, 8e-14])
    def test_a_stop_closer_than_the_shortest_step_is_reached(self, gap):
        # a step landing on the second of two stops this close is ~gap long,
        # and the step size after it falls below MIN_STEP ("step size
        # underflow"); a breakpoint reached without a step still moves T
        field = linear_field(np.zeros(3), rotation_coupling(1.0))
        plain = IntegratorControls(sample_times=(0.0, 1.0, 2.0), convergence_kl=0.0)
        close = IntegratorControls(sample_times=(0.0, 1.0, 1.0 + gap, 2.0), convergence_kl=0.0)
        reference = _run_flow(FieldKind.LITERAL, self.P0, field.scores_at, field.potential,
                              ConstantSchedule(1.0), 2.0, plain)
        traj = _run_flow(FieldKind.LITERAL, self.P0, field.scores_at, field.potential,
                         ConstantSchedule(1.0), 2.0, close)
        assert traj.terminal_status is TerminalStatus.MAX_TIME
        assert list(traj.t) == [0.0, 1.0, 1.0 + gap, 2.0]
        assert traj.step_counts == reference.step_counts
        assert np.array_equal(traj.P[[0, 1, 3]], reference.P)
        assert np.array_equal(traj.P[2], traj.P[1])  # the state up to MIN_STEP early
        at_one, close_after = (
            _run_flow(FieldKind.ENTROPIC, self.P0, field.scores_at, field.potential,
                      PiecewiseConstantSchedule((edge,), (1.0, 0.5)), 2.0, plain)
            for edge in (1.0, 1.0 + gap)
        )
        assert close_after.terminal_status is TerminalStatus.MAX_TIME
        assert close_after.step_counts == at_one.step_counts
        assert np.array_equal(close_after.P, at_one.P)

    def test_step_size_underflow_ends_the_run_keeping_its_rows(self, monkeypatch):
        field = linear_field(np.zeros(3), rotation_coupling(1.0))
        monkeypatch.setattr(replicator, "MIN_STEP", 0.5)  # the second step is 0.02 long
        traj = _run_flow(FieldKind.LITERAL, self.P0, field.scores_at, field.potential,
                         ConstantSchedule(1.0), 10.0, IntegratorControls(sample_times=(0.0, 10.0)))
        assert traj.terminal_status is TerminalStatus.DIVERGED
        assert traj.diagnostics == "step size underflow at t=0.01 (h=0.02)"
        assert list(traj.t) == [0.0, 0.01] and traj.step_counts.accepted_steps == 1
        assert np.array_equal(traj.P[0], self.P0.probs) and np.all(np.isfinite(traj.P))
        assert traj.P[1][0] > self.P0.probs[0]  # the rotation moved the one step taken
