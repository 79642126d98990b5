"""Replicator fields, the simplex-preserving integrator, schedules, diagnostics."""

import math
import re

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
    free_energy,
    integrate,
    iterate,
    kl_divergence,
    log_softmax,
    lyapunov_report,
    parse_schedule,
    restrict_to_face,
    softmax,
)
from simplexflow import mirror, replicator
from simplexflow.oracles import (
    DEFAULT_SEED,
    _claim_stream,
    closed_form_entropic,
    closed_form_literal,
    random_interior_point,
    random_scores,
)
from simplexflow.path_fields import integrate_path, linear_field, rotation_coupling
from simplexflow.replicator import (
    BLOCK_BYTES,
    FIRST_BLOCK,
    LOG_CLAMP,
    REPARAMETERIZATION_CONTROLS,
    _run_flows,
)
from simplexflow.trajectory import BlockCounts, TrajectoryRecord

from conftest import score_lists, weight_lists


def _run_flow(kind, p0, *args):
    """The adaptive flow from the one start p0: ``_run_flows`` on one row."""
    return _run_flows(kind, [p0], *args)[0]


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

    def test_array_coefficients_equal_the_per_time_formulas_to_the_bit(self):
        schedules = (
            *GATE_SCHEDULES,
            ExponentialSchedule(1e-24, 1e-300),
            ExponentialSchedule(2.0, 0.0),
            ExponentialSchedule(0.5, 1.0),
            parse_schedule("exponential:3:5"),
            parse_schedule("exponential:1e-300:-1"),
            parse_schedule("piecewise:0:1,1:1e-306"),
            parse_schedule("piecewise:0:0.3,0.7:1.9,2.2:0.7"),  # a sum's order shows
        )
        rng = np.random.default_rng(23)
        for schedule in schedules:
            edges = np.array(schedule.breakpoints())
            times = np.concatenate([
                [0.0, 5e-324, 1e300],
                edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                np.arange(700.0, 751.0),  # e^t overflows from t = 710 on
                rng.uniform(0.0, 10.0, 200), rng.exponential(100.0, 60),
            ])
            for kind, method in (
                (FieldKind.LITERAL, schedule.effective_time),
                (FieldKind.ENTROPIC, schedule.entropic_weight),
            ):
                reference = np.array([scalar_weight(kind, schedule, t) for t in times])
                with np.errstate(over="ignore"):  # as in every caller
                    alone = np.concatenate([method(times[k : k + 1]) for k in range(len(times))])
                    block = np.concatenate(
                        [method(times[k : k + 128]) for k in range(0, len(times), 128)]
                    )
                assert not np.isnan(reference).any()
                assert reference.view(np.int64).tolist() == alone.view(np.int64).tolist()
                assert reference.view(np.int64).tolist() == block.view(np.int64).tolist()

    def test_array_temperatures_are_at_to_the_bit_and_inf_where_it_raises(self):
        schedules = (
            ConstantSchedule(0.3),
            parse_schedule("piecewise:0:0.3,0.7:1.9,2.2:0.7"),
            ExponentialSchedule(0.5, 1.0),
            ExponentialSchedule(1.0, 100.0),  # overflows from t = 7.0978 on
            ExponentialSchedule(1e-300, -1.0),
        )
        rng = np.random.default_rng(41)
        raised = 0
        for schedule in schedules:
            edges = np.array(schedule.breakpoints())
            times = np.concatenate([
                [0.0, 5e-324, 7.09, 7.2, 1e300], edges, np.nextafter(edges, 0.0),
                np.arange(700.0, 751.0), rng.uniform(0.0, 10.0, 100),
            ])
            reference = []
            for t in times.tolist():
                try:
                    reference.append(schedule.at(t))
                except InvalidInputError:
                    reference.append(math.inf)
                    raised += 1
            with np.errstate(over="ignore"):  # as in ``_solve_blocks``
                values = schedule.temperatures(times)
            assert np.array(reference).view(np.int64).tolist() == values.view(np.int64).tolist()
        assert raised > 50  # e^{100 t} from t = 7.0978 on

    @pytest.mark.parametrize(
        "schedule",
        [ConstantSchedule(2.0), PiecewiseConstantSchedule((1.0,), (1.0, 2.0)),
         ExponentialSchedule(1.0, 1.0)],
        ids=["constant", "piecewise", "exponential"],
    )
    def test_effective_time_refuses_nan(self, schedule):
        # NaN fails no comparison: `t < 0` let it through to a NaN tau
        with pytest.raises(InvalidInputError, match="time must be nonnegative"):
            effective_time(schedule, math.nan)

    def test_invalid_schedules_raise(self):
        with pytest.raises(InvalidInputError):
            PiecewiseConstantSchedule((2.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(InvalidInputError):
            PiecewiseConstantSchedule((1.0,), (1.0, -2.0))
        with pytest.raises(InvalidInputError):
            ConstantSchedule(0.0)
        # NaN failed no comparison and was accepted, as was an infinite breakpoint
        for spec in ("piecewise:0:1,nan:2", "piecewise:0:1,inf:2"):
            with pytest.raises(InvalidInputError, match="finite"):
                parse_schedule(spec)

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


class TestRowDot:
    """``replicator._row_dot``, the product behind every recorded per-row
    value: each row equals its point's product to the bit, whatever the
    number of rows."""

    @pytest.mark.parametrize("rows", [1, 2, 17, 128, 300])
    def test_each_row_is_its_point_product(self, rows, rng):
        for size in range(2, 71):
            a, b = rng.uniform(-3.0, 3.0, (2, rows, size))
            v = rng.uniform(-3.0, 3.0, size)
            assert np.array_equal(replicator._row_dot(a, b), [x @ y for x, y in zip(a, b)])
            assert np.array_equal(replicator._row_dot(a, v), [x @ v for x in a])
            # a batch of blocks, one vector per block, as the flows' measure uses it
            blocks = a.reshape(1, rows, size).repeat(2, axis=0)
            vectors = np.stack([v, b[0]])[:, np.newaxis]
            want = [[x @ w[0] for x in block] for block, w in zip(blocks, vectors)]
            assert np.array_equal(replicator._row_dot(blocks, vectors), want)


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
        assert np.all(np.diff(traj.t) > 0)

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

    @pytest.mark.parametrize("times", [(0.0, math.nan, 1.0), (math.nan,), (0.0, 1.0, math.nan)])
    def test_a_nan_sample_time_raises(self, times):
        # NaN fails no comparison: `grid < 0` and `diff <= 0` let it through,
        # and the run dropped it
        controls = IntegratorControls(sample_times=times)
        with pytest.raises(InvalidInputError, match="strictly increasing and nonnegative"):
            integrate(FieldKind.ENTROPIC, SimplexPoint.uniform(2), ScoreVector([1.0, 0.0]),
                      1.0, 2.0, controls)

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

    def test_the_report_equals_a_scan_of_free_energy_per_sample(self, rng):
        # the reference: F through free_energy at each sample, as a loop
        def scan(samples, s, temperature):
            diffs = np.diff([free_energy(x.p, s, temperature).value for x in samples])
            return bool(np.all(diffs >= -1e-9)), repr(float(diffs.min()))

        def check(traj, s, temperature):
            runs = [traj] + [  # each step alone too, so that every row's value shows
                TrajectoryRecord(pair, traj.terminal_status)
                for pair in zip(traj.samples, traj.samples[1:])
            ]
            for run in runs:
                report = lyapunov_report(run, s, temperature)
                assert (report.monotone, repr(report.worst_drop)) == scan(run.samples, s, temperature)

        controls = IntegratorControls(n_samples=40, convergence_kl=0.0)
        for size in (2, 3, 8, 64):
            for kind in FieldKind:
                for temperature in (0.25, 1.0, 4.0):
                    s = ScoreVector(rng.uniform(-3.0, 3.0, size) * 20.0)
                    weights = rng.dirichlet(np.ones(size))
                    if kind is FieldKind.LITERAL:  # rows with zeros: H sums p > 0 only
                        weights[rng.permutation(size)[: size // 3]] = 0.0
                    p0 = SimplexPoint(weights / weights.sum())
                    check(integrate(kind, p0, s, temperature, 1e3, controls), s, temperature)
        # underflowed iterates hold exact zeros too
        s = ScoreVector(rng.uniform(-3.0, 3.0, 64))
        record = iterate(MirrorStepKind.PRINTED_MW, SimplexPoint.uniform(64), s, 0.05, 5.0,
                         max_steps=80, kl_tol=0.0)
        assert (record.P == 0.0).any()
        check(record, s, 0.05)


class TestFreeEnergyOverflow:
    """T H(p) <= T log V: a run whose T(0) log V overflows is refused, naming T
    and V, and a closed-form row ends DIVERGED at its first time where
    T(t) log V overflows, as at an overflowing weight, so that no recorded
    free energy is infinite."""

    S10 = ScoreVector([1.0, 0.0, -0.5, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0])
    REFUSED = r"^free energy overflows: T log V is infinite at T=1e\+308, V=10$"
    #: T = e^{100 t}: T log 16 overflows from t = 7.0876, T itself from 7.0978
    HEATING = ExponentialSchedule(1.0, 100.0)

    @pytest.mark.parametrize("kind", list(FieldKind))
    def test_a_start_whose_t_log_v_overflows_is_refused(self, kind):
        with pytest.raises(InvalidInputError, match=self.REFUSED):
            integrate(kind, SimplexPoint.uniform(10), self.S10, 1e308)
        record = integrate(kind, SimplexPoint.uniform(10), self.S10, 7e307)
        assert np.isfinite(record.free_energy).all()

    def test_a_row_whose_t_log_v_overflows_is_named(self):
        P0 = np.full((3, 10), 0.1)
        S = np.tile(self.S10.values, (3, 1))
        with pytest.raises(InvalidInputError, match="^row 1: " + self.REFUSED[1:]):
            replicator.integrate_rows(FieldKind.ENTROPIC, P0, S, [1.0, 1e308, 1.0])

    @pytest.mark.parametrize("kind", list(FieldKind))
    def test_a_row_ends_diverged_where_t_log_v_overflows(self, kind):
        s = ScoreVector(np.linspace(-3.0, 3.0, 16))
        controls = IntegratorControls(
            convergence_kl=0.0, sample_times=(0.0, 7.0, 7.08, 7.09, 7.095, 7.097)
        )
        record = integrate(kind, SimplexPoint.uniform(16), s, self.HEATING, 7.097, controls)
        assert record.terminal_status is TerminalStatus.DIVERGED
        assert record.diagnostics == "T log V overflows at t=7.09"
        assert record.t.tolist() == [0.0, 7.0, 7.08]
        assert np.isfinite(record.free_energy).all() and np.isfinite(record.field_norm).all()
        # a run that stops before then runs as it did
        assert integrate(kind, SimplexPoint.uniform(16), s, self.HEATING, 7.08,
                         controls).terminal_status is TerminalStatus.MAX_TIME

    @pytest.mark.parametrize("kind", list(FieldKind))
    @pytest.mark.parametrize("size", [16, 2])
    @pytest.mark.parametrize("samples", [(0.0, 7.0, 7.09, 7.2), (0.0, 7.0, 7.2)])
    def test_a_temperature_that_overflows_ends_the_row_diverged(self, kind, size, samples):
        # wherever the samples fall: at V = 2 (log 2 < 1) T itself overflows
        # first, at t = 7.0978, and no sample ends the run by raising
        s = ScoreVector(np.linspace(-3.0, 3.0, size))
        controls = IntegratorControls(convergence_kl=0.0, sample_times=samples)
        record = integrate(kind, SimplexPoint.uniform(size), s, self.HEATING, 7.2, controls)
        end = 7.09 if size == 16 and 7.09 in samples else 7.2
        assert record.terminal_status is TerminalStatus.DIVERGED
        assert record.diagnostics == f"T log V overflows at t={end:g}"
        assert record.t.tolist() == [t for t in samples if t < end]
        assert np.isfinite(record.free_energy).all()

    @pytest.mark.parametrize("schedule, size", [(1e308, 10), (HEATING, 16)])
    def test_a_linear_field_checks_its_hottest_temperature(self, schedule, size):
        field = linear_field(np.zeros(size), np.eye(size))
        with pytest.raises(InvalidInputError, match="^free energy overflows: T log V"):
            integrate_path(field, FieldKind.ENTROPIC, SimplexPoint.uniform(size), schedule,
                           7.097)

    def test_lyapunov_report_refuses_the_same_temperature(self):
        record = integrate(FieldKind.ENTROPIC, SimplexPoint.uniform(10), self.S10, 1.0)
        with pytest.raises(InvalidInputError, match=self.REFUSED):
            lyapunov_report(record, self.S10, 1e308)
        assert math.isfinite(lyapunov_report(record, self.S10, 7e307).worst_drop)


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

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 0, 1, 2, 3])
    def test_dense_checkpoints_take_fewer_steps_than_landing_on_each(self, seed, monkeypatch):
        # cor-temp-rescale's instance and schedules: both runs of each pair
        # read the 61 checkpoints from dense output (measured deviations at
        # most 4.5e-10 at seeds 0-39, against about 1e-14 when landing)
        runs = []
        run_flows = replicator._run_flows

        def recorded(*args, **kwargs):
            (record,) = run_flows(*args, **kwargs)
            runs.append((args, kwargs, record))
            return [record]

        monkeypatch.setattr(replicator, "_run_flows", recorded)
        rng = _claim_stream(seed, "cor-temp-rescale")
        s, p0 = random_scores(rng, 3), random_interior_point(rng, 3)
        for schedule in (ConstantSchedule(2.0), PiecewiseConstantSchedule((1.0,), (1.0, 0.5)),
                         ExponentialSchedule(1.0, 0.3)):
            deviation = replicator._reparameterization_deviation(
                FieldKind.LITERAL, s, p0, schedule, 5.0, REPARAMETERIZATION_CONTROLS
            )
            assert deviation < 1e-9
        assert len(runs) == 6
        for args, kwargs, record in runs:
            assert kwargs == {"dense": True} and len(record.t) == 61
            (landing,) = run_flows(*args)
            assert list(landing.t) == list(record.t)
            assert record.accepted_steps < landing.accepted_steps


#: schedule of each kind, including the r = 1 branch of the exponential weight
GATE_SCHEDULES = (
    ConstantSchedule(0.5),
    PiecewiseConstantSchedule((1.0, 2.5), (1.0, 0.5, 2.0)),
    ExponentialSchedule(1.0, 0.4),
    ExponentialSchedule(2.0, -0.1),
    ExponentialSchedule(1.0, 1.0),
)


def constant_scores(s):
    return lambda p: s.values, lambda p: p @ s.values


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
        controls = IntegratorControls(step_tol=1.01e-10, sample_times=grid)
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


def _inf_on_overflow(fn, x):
    try:
        return fn(x)
    except OverflowError:
        return math.inf


def scalar_weight(kind, schedule, t):
    """The coefficient b at the one time t in Python floats: tau(t) for
    LITERAL and w(t) for ENTROPIC, by each schedule's per-time formula."""
    t = float(t)
    if isinstance(schedule, ConstantSchedule):
        if kind is FieldKind.ENTROPIC:
            return -math.expm1(-t) / schedule.temperature
        return t / schedule.temperature
    if isinstance(schedule, PiecewiseConstantSchedule):
        pieces, prev = [], 0.0  # (start, end, T) of each constant piece of [0, t]
        for edge, value in zip(schedule.times, schedule.values):
            if t <= prev:
                break
            pieces.append((prev, min(t, edge), value))
            prev = edge
        else:
            if t > prev:
                pieces.append((prev, t, schedule.values[-1]))
        b = 0.0
        for start, end, value in pieces:
            if kind is FieldKind.ENTROPIC:
                b += math.exp(end - t) * -math.expm1(start - end) / value
            else:
                b += (end - start) / value
        return b
    initial, rate = schedule.initial, schedule.rate
    if kind is FieldKind.LITERAL:
        if rate == 0.0:
            return t / initial
        scale = initial * rate
        growth = -_inf_on_overflow(math.expm1, -rate * t)
        return growth / scale if scale else growth / rate / initial
    d = abs(1.0 - rate)
    if d == 0.0:
        return t * math.exp(-t) / initial
    larger = _inf_on_overflow(math.exp, -min(rate, 1.0) * t)
    return larger * -math.expm1(-d * t) / (initial * d)


def scalar_logs(kind, p0, s, schedule, times):
    """Each stop alone: normalize(a log p0 + b (s - max s)) with (a, b) =
    (1, tau(t)) for LITERAL and (e^{-t}, w(t)) for ENTROPIC, b by
    ``scalar_weight``."""
    entropic = kind is FieldKind.ENTROPIC
    ell0, shifted = np.log(p0.probs), s.values - s.values.max()
    rows = []
    for t in times:
        a = math.exp(-t) if entropic else 1.0
        rows.append(normalized(a * ell0 + scalar_weight(kind, schedule, t) * shifted))
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
    values within 1e-15.  Blocks hold FIRST_BLOCK = 128, 256, 512, ... rows."""

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
        steps = FIRST_BLOCK + 20
        record = iterate(MirrorStepKind.PRINTED_MW, self.P0, self.S, 1.0, 0.5,
                         max_steps=steps, kl_tol=0.0)
        assert record.terminal_status is TerminalStatus.MAX_TIME
        assert record.accepted_steps == steps and len(record.certificates) == steps
        assert record.block_counts == BlockCounts(steps + 1, steps + 1, 2)
        rows = scalar_logs(FieldKind.LITERAL, self.P0, self.S, ConstantSchedule(1.0),
                           [k * 0.5 for k in range(steps + 1)])
        assert np.array_equal(record.P, scalar_probs(rows))

    def test_overflow_diverges_keeping_the_earlier_rows(self):
        temp, eta = 1e-306, 0.5
        first = next(k for k in range(401) if not math.isfinite(k * eta / temp + 1.0 / temp))
        record = iterate(MirrorStepKind.PRINTED_MW, SimplexPoint.uniform(2),
                         ScoreVector([1.0, 0.0]), temp, eta, max_steps=400, kl_tol=0.0)
        assert record.terminal_status is TerminalStatus.DIVERGED
        assert record.diagnostics.endswith(f"at step {first}")
        assert len(record.samples) == first
        assert FIRST_BLOCK < first < 3 * FIRST_BLOCK  # in the second block
        assert record.block_counts == BlockCounts(first, first, 2)
        rows = scalar_logs(FieldKind.LITERAL, SimplexPoint.uniform(2), ScoreVector([1.0, 0.0]),
                           ConstantSchedule(temp), [k * eta for k in range(first)])
        assert np.array_equal(record.P, scalar_probs(rows))

    def test_clamp_row_ends_the_run(self):
        grid = np.linspace(0.0, 2.0, 501)
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
        assert np.array_equal(record.P, np.array([x.p.probs for x in record.samples]))
        assert record.certificates[-1].kl_move == record.kl_move[-1]
        with pytest.raises(ValueError):
            record.P[0, 0] = 0.5

    def test_a_record_built_from_samples_has_no_certificates(self):
        record = iterate(MirrorStepKind.EXACT_PROX, self.P0, self.S, 1.0, 0.5, max_steps=5)
        rebuilt = TrajectoryRecord(record.samples, record.terminal_status)
        for name in ("t", "P", "free_energy", "kl_to_target", "field_norm"):
            assert np.array_equal(getattr(rebuilt, name), getattr(record, name), equal_nan=True)
        assert len(record.certificates) == 5 and rebuilt.certificates == []
        assert rebuilt.kl_move.size == rebuilt.slack.size == 0
        assert rebuilt.terminal_status is record.terminal_status
        assert (rebuilt.accepted_steps, rebuilt.renormalizations, rebuilt.diagnostics) == (0, 0, "")
        assert rebuilt.block_counts is None and rebuilt.step_counts is None


class TestIntegrateRows:
    """``integrate_rows``: each row is its instance's ``integrate`` run to the
    bit, for both kinds and every schedule kind, whether it converges, runs
    to its last sample or ends DIVERGED, and each input check names the
    first row that fails it."""

    GOOD_S, GOOD_P = [1.0, 0.0, -1.0], [0.2, 0.3, 0.5]

    @staticmethod
    def assert_rows_are_their_runs(kind, P0, S, schedule, horizon, controls):
        rows = replicator.integrate_rows(kind, P0, S, schedule, horizon, controls)
        assert len(rows) == len(S)
        per_row = np.ndim(schedule) == 1
        for i, (row, p0, s) in enumerate(zip(rows, P0, S)):
            run = integrate(kind, SimplexPoint(p0), ScoreVector(s),
                            schedule[i] if per_row else schedule, horizon, controls)
            assert row.terminal_status is run.terminal_status
            assert row.diagnostics == run.diagnostics
            assert len(row.t) == len(run.t)
            for name in ("P", "t", "free_energy", "kl_to_target", "field_norm"):
                assert np.array_equal(getattr(row, name), getattr(run, name)), name
        return rows

    @pytest.mark.parametrize("kind", list(FieldKind))
    @pytest.mark.parametrize("size", [2, 3, 8])
    @pytest.mark.parametrize("controls", [IntegratorControls(n_samples=60), IntegratorControls()])
    def test_each_row_is_its_integrate_run(self, kind, size, controls):
        # a temperature per row; the default 200 samples take integrate past
        # its first block
        rng = np.random.default_rng([size, 20])
        S, P0 = rng.uniform(-3, 3, (12, size)), rng.dirichlet(np.ones(size), 12)
        rows = self.assert_rows_are_their_runs(
            kind, P0, S, np.tile([0.25, 1.0, 4.0], 4), 1e3, controls
        )
        assert len({len(row.t) for row in rows}) > 1
        if kind is FieldKind.ENTROPIC:
            assert all(row.terminal_status is TerminalStatus.CONVERGED for row in rows)

    @pytest.mark.parametrize("kind", list(FieldKind))
    @pytest.mark.parametrize(
        "schedule",
        [2.0, PiecewiseConstantSchedule((1.0, 2.0), (4.0, 1.0, 0.5)),
         ExponentialSchedule(1.0, 1.0), ExponentialSchedule(0.5, -0.05)],
        ids=["constant", "piecewise", "exponential", "annealing"],
    )
    def test_rows_share_a_schedule(self, kind, schedule):
        rng = np.random.default_rng(22)
        S, P0 = rng.uniform(-3, 3, (6, 4)), rng.dirichlet(np.ones(4), 6)
        controls = IntegratorControls(n_samples=301, uniform_samples=True)
        self.assert_rows_are_their_runs(kind, P0, S, schedule, 30.0, controls)

    @pytest.mark.parametrize("size", [2, 3, 8])
    def test_rows_stop_at_their_own_rows(self, size):
        # a start at softmax stops at t = 0, one with a coordinate at 1e-200
        # is still far from softmax at the horizon, and the others converge
        # at different samples (measured: 132 to 198 of 200)
        rng = np.random.default_rng([size, 21])
        S, P0 = rng.uniform(-3, 3, (6, size)), rng.dirichlet(np.ones(size), 6)
        T = np.tile([0.25, 1.0, 4.0], 2)
        P0[0] = softmax(ScoreVector(S[0]), T[0]).probs
        P0[1] = [1e-200] + [1.0 / (size - 1)] * (size - 1)
        controls = IntegratorControls(uniform_samples=True)
        rows = self.assert_rows_are_their_runs(FieldKind.ENTROPIC, P0, S, T, 12.0, controls)
        assert len(rows[0].t) == 1 and len(rows[1].t) == 200
        assert len({len(row.t) for row in rows[2:]}) == 4
        assert {row.terminal_status for row in rows} == {
            TerminalStatus.CONVERGED, TerminalStatus.MAX_TIME}

    def test_literal_rows_on_faces_and_tied_scores(self):
        # starts with zeros, and the top score tied on two of four tokens
        S = np.array([[1.0, 0.0, -0.5, 2.0], [2.0, 0.0, 2.0, -1.0], [2.0, 0.0, 2.0, -1.0]])
        P0 = np.array([[0.0, 0.5, 0.5, 0.0], [0.1, 0.2, 0.3, 0.4], [0.0, 0.3, 0.3, 0.4]])
        rows = self.assert_rows_are_their_runs(
            FieldKind.LITERAL, P0, S, [1.0, 0.5, 2.0], 60.0, IntegratorControls()
        )
        assert all(row.terminal_status is TerminalStatus.CONVERGED for row in rows)
        assert rows[0].P[-1, 0] == rows[0].P[-1, 3] == 0.0

    @pytest.mark.parametrize(
        "kind, P0, S, T, ends",
        [
            # a row whose weights overflow at its first sample between a row
            # that converges and one that runs to the horizon
            (FieldKind.LITERAL, [GOOD_P] * 3, [GOOD_S, [0.0, 1.79e308, 0.0], [0.5, 0.0, -1.0]],
             [1.0, 1.0, 1.0], ["converged", "overflow", "max-time"]),
            # two rows that clamp while their two tied top tokens are still
            # apart, and two that converge, one in the second block
            (FieldKind.ENTROPIC, [GOOD_P, GOOD_P, GOOD_P, [1e-200, 0.5, 0.5]],
             [[0.0, 0.0, -3.0], GOOD_S, [0.0, 0.0, -3.0], GOOD_S],
             [0.004, 1.0, 3.0 / 691.0, 1.0], ["clamp", "converged", "clamp", "converged"]),
        ],
        ids=["literal", "entropic"],
    )
    def test_diverged_rows_among_converging_rows(self, kind, P0, S, T, ends):
        controls = IntegratorControls(n_samples=301, uniform_samples=True)
        rows = self.assert_rows_are_their_runs(kind, P0, S, T, 30.0, controls)
        named = {"overflow": "flow weights overflow at t=0.1",
                 "clamp": "log-probability clamp hit near the boundary"}
        for row, end in zip(rows, ends):
            if end in named:
                assert row.terminal_status is TerminalStatus.DIVERGED
                assert row.diagnostics == named[end]
            else:
                assert row.terminal_status.value == end
        assert max(len(row.t) for row in rows) > FIRST_BLOCK

    def test_a_clamp_row_below_the_kl_stop_ends_diverged(self):
        # at t = 1 the first row is clamped, and its KL to softmax is then
        # 9e-298: the clamp wins the tie, as in its integrate run
        rows = self.assert_rows_are_their_runs(
            FieldKind.ENTROPIC, [[0.5, 0.5], [0.3, 0.7]], [[0.0, 1600.0], [1.0, 0.0]], 1.0,
            1.0, IntegratorControls(sample_times=(0.0, 1.0)),
        )
        assert rows[0].terminal_status is TerminalStatus.DIVERGED
        assert rows[0].kl_to_target[-1] < 1e-10 < rows[0].kl_to_target[0]
        assert rows[1].terminal_status is TerminalStatus.MAX_TIME

    @pytest.mark.parametrize("kind", list(FieldKind))
    def test_rows_keep_the_blocks_of_their_one_row_runs(self, kind, monkeypatch):
        # a (K, V) @ (V,) product's last bit depends on K, so a row must see
        # its one-row run's blocks: here 5 times a block at V = 16, whatever
        # the number of rows, and a row whose weights overflow at its first
        # sample, its block one time long, beside rows that run on
        monkeypatch.setattr(replicator, "FIRST_BLOCK", 8)
        monkeypatch.setattr(replicator, "BLOCK_BYTES", 5 * 8 * 16)
        rng = np.random.default_rng(24)
        S, P0 = rng.uniform(-3, 3, (8, 16)), rng.dirichlet(np.ones(16), 8)
        S[:4] *= 8.7e307 / 3
        S[:4, :2] = 8.75e307, -8.75e307
        rows = self.assert_rows_are_their_runs(
            kind, P0, S, 1.0, 2.0, IntegratorControls(n_samples=40, uniform_samples=True)
        )
        assert all(row.diagnostics.startswith("flow weights overflow") for row in rows[:4])
        assert all(len(row.t) == 1 for row in rows[:4]) and all(len(row.t) > 5 for row in rows[4:])

    def test_a_weight_that_overflows_after_the_stop_is_no_warning(self):
        # equal scores at T = 5e-324: w(t) / T is inf from the second row on,
        # past the stop at t = 0
        rows = self.assert_rows_are_their_runs(
            FieldKind.ENTROPIC, [[0.5, 0.5]], [[1.0, 1.0]], [5e-324], 1.0, IntegratorControls()
        )
        assert rows[0].terminal_status is TerminalStatus.CONVERGED and len(rows[0].t) == 1

    @pytest.mark.parametrize(
        "s, p, temp, error, named",
        [
            ([1.0, np.nan, 0.0], GOOD_P, 1.0, InvalidInputError, "scores must be finite"),
            (GOOD_S, [0.5, 0.6, 0.2], 1.0, InvalidInputError, "probabilities sum to 1.3"),
            (GOOD_S, GOOD_P, 0.0, InvalidInputError, "temperature must be positive"),
            (GOOD_S, [0.0, 0.5, 0.5], 1.0, InteriorityError,
             "entropic field requires an interior start"),
            ([-1e308, 1e308, 0.0], GOOD_P, 1.0, InvalidInputError,
             "score spread over temperature overflows"),
            (GOOD_S, GOOD_P, 1.7e308, InvalidInputError,
             "free energy overflows: T log V is infinite at T=1.7e+308, V=3"),
            # no error: these rows end DIVERGED, as their integrate runs do
            ([0.0, 1.79e308, 0.0], GOOD_P, 1.0, None, "flow weights overflow at t=0.01"),
            ([0.0, 0.0, -3.0], GOOD_P, 0.004, None,
             "log-probability clamp hit near the boundary"),
        ],
        ids=["scores", "start", "temperature", "interior", "spread", "entropy", "overflow",
             "clamp"],
    )
    def test_each_check_names_the_first_row_that_fails(self, s, p, temp, error, named):
        S = np.array([self.GOOD_S, s, self.GOOD_S, s])
        P0 = np.array([self.GOOD_P, p, self.GOOD_P, p])
        T = [1.0, temp, 1.0, temp]
        controls = IntegratorControls(n_samples=60)
        if error is None:
            rows = self.assert_rows_are_their_runs(FieldKind.ENTROPIC, P0, S, T, 1e3, controls)
            assert [row.terminal_status for row in rows] == [
                TerminalStatus.CONVERGED, TerminalStatus.DIVERGED] * 2
            assert rows[1].diagnostics == named
            return
        with pytest.raises(error, match=f"^row 1: {re.escape(named)}"):
            replicator.integrate_rows(FieldKind.ENTROPIC, P0, S, T, 1e3, controls)


def _flow_case(kind, p0, s, schedule, horizon, event, convergence_kl=1e-10):
    """A flow sampled 61 or 301 times (uniform), whose event lands before or
    after row FIRST_BLOCK."""
    def run(where):
        n = {"inside": 61, "past": 301}[where]
        controls = IntegratorControls(
            n_samples=n, uniform_samples=True, convergence_kl=convergence_kl
        )
        return lambda: integrate(kind, p0, s, schedule, horizon, controls)
    return run, event


def _iterate_case(kind, p0, s, temp, etas, event, kl_tol=1e-12):
    """An iteration at the step size of ``etas`` (inside, past) for ``where``."""
    def run(where):
        eta = etas[where == "past"]
        return lambda: iterate(kind, p0, s, temp, eta, kl_tol=kl_tol)
    return run, event


_P0, _S = TestBlockedClosedForm.P0, TestBlockedClosedForm.S
_PIECEWISE = PiecewiseConstantSchedule((1.0, 2.0), (4.0, 1.0, 0.5))
#: T = e^{100 t} overflows for t above 7.09, and T log 4 from 7.0946
_SCHEDULE_OVERFLOW = ExponentialSchedule(1.0, 100.0)
_TINY_T = 1e-306

LAYOUT_CASES = {
    "entropic-constant": _flow_case(FieldKind.ENTROPIC, _P0, _S, 1.0, 20.0, "converged"),
    "entropic-piecewise": _flow_case(FieldKind.ENTROPIC, _P0, _S, _PIECEWISE, 20.0, "converged"),
    "entropic-exponential": _flow_case(
        FieldKind.ENTROPIC, _P0, _S, ExponentialSchedule(1.0, 1.0), 20.0, "converged"
    ),
    "literal-constant": _flow_case(FieldKind.LITERAL, _P0, _S, 1.0, 30.0, "converged"),
    "literal-piecewise": _flow_case(FieldKind.LITERAL, _P0, _S, _PIECEWISE, 16.0, "converged"),
    "literal-exponential": _flow_case(
        FieldKind.LITERAL, _P0, _S, ExponentialSchedule(0.5, -0.05), 12.0, "converged"
    ),
    "literal-zeros": _flow_case(
        FieldKind.LITERAL, SimplexPoint([0.0, 0.5, 0.5, 0.0]), _S, 1.0, 60.0, "converged"
    ),
    "entropic-clamp": _flow_case(
        FieldKind.ENTROPIC, SimplexPoint.uniform(2), ScoreVector([0.0, 1600.0]), 1.0, 1.0,
        "diverged", convergence_kl=0.0,
    ),
    "literal-overflow": _flow_case(
        FieldKind.LITERAL, SimplexPoint.uniform(2), ScoreVector([1.0, 0.0]), _TINY_T, 300.0,
        "overflow", convergence_kl=0.0,
    ),
    "entropic-schedule-error": _flow_case(
        FieldKind.ENTROPIC, _P0, _S, _SCHEDULE_OVERFLOW, 10.0, "overflow", convergence_kl=0.0
    ),
    "literal-schedule-error": _flow_case(
        FieldKind.LITERAL, _P0, _S, _SCHEDULE_OVERFLOW, 10.0, "overflow", convergence_kl=0.0
    ),
    # the run stops before the row whose temperature overflows
    "entropic-stop-before-schedule-error": _flow_case(
        FieldKind.ENTROPIC, _P0, _S, _SCHEDULE_OVERFLOW, 10.0, "converged", convergence_kl=1e-5
    ),
    "exact-prox": _iterate_case(
        MirrorStepKind.EXACT_PROX, _P0, _S, 1.0, (0.5, 0.05), "converged"
    ),
    "printed-mw": _iterate_case(
        MirrorStepKind.PRINTED_MW, _P0, _S, 1.0, (0.5, 0.1), "converged"
    ),
    "printed-mw-overflow": _iterate_case(
        MirrorStepKind.PRINTED_MW, SimplexPoint.uniform(2), ScoreVector([1.0, 0.0]), _TINY_T,
        (2.0, 0.5), "overflow", kl_tol=0.0,
    ),
}


def _use_layout(monkeypatch, first, cap_bytes, bound):
    """Blocks of ``first`` rows doubling, at most ``cap_bytes`` per row, and
    a first block of ``bound`` rows ("certified": what ``_certified_rows``
    gives; None: plain doubling)."""
    monkeypatch.setattr(replicator, "FIRST_BLOCK", first)
    if cap_bytes is not None:
        monkeypatch.setattr(replicator, "BLOCK_BYTES", cap_bytes)
    if bound != "certified":
        for module in (replicator, mirror):
            monkeypatch.setattr(module, "_certified_rows", lambda *args, **kwargs: bound)


class TestBlockLayoutIsInvisible:
    """Every record of the closed-form solver is the same to the bit, whatever
    the block layout: plain doubling from a first block of 1, 16 or
    FIRST_BLOCK rows, with and without a byte cap of a few rows, and the
    first block that ``_certified_rows`` sizes or one of 5 rows that most
    runs outlive.  Each case's event (a stop row, a clamp row or an overflow
    row) lies before row FIRST_BLOCK ("inside") or after it ("past")."""

    PLAIN = (FIRST_BLOCK, None, None)
    LAYOUTS = [
        (1, None, None), (16, None, None), (16, 96, None), (FIRST_BLOCK, 96, None),
        (FIRST_BLOCK, None, "certified"), (FIRST_BLOCK, 96, "certified"), (FIRST_BLOCK, None, 5),
    ]

    @pytest.mark.parametrize("kind", list(FieldKind))
    def test_random_instances_do_not_depend_on_the_layout(self, kind, monkeypatch):
        """Scores up to 30 at T = 1, 200 samples to a horizon of 100 and no KL
        stop: a free energy whose product sums in an order set by the block's
        row count changes its last bit here with the first block's size."""
        rng = np.random.default_rng(27)
        controls = IntegratorControls(convergence_kl=0.0)
        instances = []
        for _ in range(30):
            size = int(rng.integers(2, 20))
            p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
            instances.append((p0, ScoreVector(rng.uniform(-30.0, 30.0, size))))
        runs = {}
        for first in (1, 16, FIRST_BLOCK):
            monkeypatch.setattr(replicator, "FIRST_BLOCK", first)
            runs[first] = [integrate(kind, p0, s, 1.0, 100.0, controls) for p0, s in instances]
        for first in (1, 16):
            for i, (record, reference) in enumerate(zip(runs[first], runs[FIRST_BLOCK])):
                assert record.terminal_status is reference.terminal_status
                for name in ("t", "P", "free_energy", "kl_to_target", "field_norm"):
                    assert np.array_equal(
                        getattr(record, name), getattr(reference, name)
                    ), (first, i, name)

    @pytest.mark.parametrize("where", ["inside", "past"])
    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_records_do_not_depend_on_the_layout(self, case, where, monkeypatch):
        make, event = LAYOUT_CASES[case]
        run = make(where)
        _use_layout(monkeypatch, *self.PLAIN)
        reference = run()
        monkeypatch.undo()
        assert reference.terminal_status.value == ("diverged" if event == "overflow" else event)
        if event == "overflow":
            assert "overflow" in reference.diagnostics
        row = len(reference.P) - (0 if event == "overflow" else 1)
        assert (row < FIRST_BLOCK) if where == "inside" else (row > FIRST_BLOCK)
        for first, cap_bytes, bound in self.LAYOUTS:
            _use_layout(monkeypatch, first, cap_bytes, bound)
            record = run()
            monkeypatch.undo()
            layout = (first, cap_bytes, bound)
            for name in ("t", "P", "free_energy", "kl_to_target", "field_norm", "kl_move",
                         "slack"):
                assert np.array_equal(
                    getattr(record, name), getattr(reference, name), equal_nan=True
                ), (layout, name)
            assert record.terminal_status is reference.terminal_status
            assert record.diagnostics == reference.diagnostics
            assert record.accepted_steps == reference.accepted_steps
            assert list(record.certificates) == list(reference.certificates)
            counts = record.block_counts
            assert counts.stops_kept == reference.block_counts.stops_kept
            # a run that outlives a first block of 5 goes on at plain
            # doubling's block ends: no more rows, at most one block more
            if bound == 5:
                plain = reference.block_counts
                assert counts.stops_evaluated <= plain.stops_evaluated
                assert counts.blocks <= plain.blocks + 1
            if cap_bytes is not None:  # at most 96 // (8 V) rows per block
                assert counts.blocks >= counts.stops_evaluated / (96 // (8 * record.P.shape[1]))


class TestCertifiedRows:
    """``_certified_rows``, the first block of a constant-temperature run: no
    run outlives it, so a run whose bound is inside its times takes one
    block, and a run it does not bound keeps plain doubling's blocks."""

    @staticmethod
    def spy(monkeypatch) -> list:
        """The bounds that the calls of ``_certified_rows`` return, in order."""
        bounds, certified = [], replicator._certified_rows

        def record(*args, **kwargs):
            bounds.append(certified(*args, **kwargs))
            return bounds[-1]

        for module in (replicator, mirror):
            monkeypatch.setattr(module, "_certified_rows", record)
        return bounds

    @staticmethod
    def assert_within(record, bound, times):
        """The run stops by the bound's row, in one block when its times reach it."""
        assert bound is not None
        assert len(record.P) <= bound
        if bound <= times:
            assert record.terminal_status in (TerminalStatus.CONVERGED, TerminalStatus.STALLED)
            assert record.block_counts.blocks == 1

    def test_random_constant_temperature_runs_stop_by_the_bound(self, monkeypatch):
        bounds = self.spy(monkeypatch)
        rng = np.random.default_rng(29)
        for _ in range(100):
            size = int(rng.integers(2, 21))
            temp, eta = rng.uniform(0.25, 4.0), rng.uniform(0.05, 2.0)
            # above the rounding floor of every bound (see ``_certified_rows``)
            tol = 10.0 ** rng.uniform(-14.0, -6.0)
            s = ScoreVector(rng.uniform(-3.0, 3.0, size))
            p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
            controls = IntegratorControls(convergence_kl=tol)
            for kind in FieldKind:
                record = integrate(kind, p0, s, temp, 1e3, controls)
                self.assert_within(record, bounds.pop(), controls.n_samples)
            for kind in MirrorStepKind:
                record = iterate(kind, p0, s, temp, eta, max_steps=10_000, kl_tol=tol)
                self.assert_within(record, bounds.pop(), 10_001)

    def test_random_tolerances_down_to_1e_16_never_outlive_a_bound(self, monkeypatch):
        bounds = self.spy(monkeypatch)
        rng = np.random.default_rng(31)
        bounded = 0
        for _ in range(100):
            size = int(rng.integers(2, 21))
            temp, eta = rng.uniform(0.25, 4.0), rng.uniform(0.05, 2.0)
            tol = 10.0 ** rng.uniform(-16.0, -6.0)
            s = ScoreVector(rng.uniform(-3.0, 3.0, size))
            p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
            records = [
                *(integrate(kind, p0, s, temp, 1e3, IntegratorControls(convergence_kl=tol))
                  for kind in FieldKind),
                *(iterate(kind, p0, s, temp, eta, max_steps=10_000, kl_tol=tol)
                  for kind in MirrorStepKind),
            ]
            for record, bound in zip(records, bounds[-4:]):
                if bound is not None:  # a tolerance at the rounding floor has none
                    bounded += 1
                    assert len(record.P) <= bound
        assert bounded > 300

    @pytest.mark.parametrize("kind", list(FieldKind))
    def test_rows_at_their_own_temperatures_stop_by_the_bound(self, kind, monkeypatch):
        bounds = self.spy(monkeypatch)
        rng = np.random.default_rng([33, kind is FieldKind.ENTROPIC])
        size = 7
        S, P0 = rng.uniform(-3.0, 3.0, (12, size)), rng.dirichlet(np.ones(size), 12)
        temps = rng.uniform(0.25, 4.0, 12)
        controls = IntegratorControls(convergence_kl=1e-12)
        records = replicator.integrate_rows(kind, P0, S, temps, 1e3, controls)
        (bound,) = bounds
        for record in records:
            self.assert_within(record, bound, controls.n_samples)
        assert max(len(record.P) for record in records) <= bound

    def test_runs_shaped_like_the_ensemble_benchmark_take_one_block(self):
        # V, T and eta as the benchmark draws them, 60 samples a flow,
        # exact prox to a move of 1e-15 and printed MW to 1e-16
        rng = np.random.default_rng(37)
        records = []
        for size in (2, 3, 8, 16):
            for temp in (0.25, 1.0, 4.0):
                s = ScoreVector(rng.uniform(-3.0, 3.0, size))
                p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
                for kind in FieldKind:
                    records.append(integrate(kind, p0, s, temp, 1e3,
                                             IntegratorControls(n_samples=60)))
                for eta in (0.1, 1.0):
                    records.append(iterate(MirrorStepKind.EXACT_PROX, p0, s, temp, eta,
                                           max_steps=10_000, kl_tol=1e-15))
            values = np.sort(rng.uniform(-3.0, 3.0, size))
            values[-1] = values[-2] + max(0.2, values[-1] - values[-2])
            records.append(iterate(MirrorStepKind.PRINTED_MW, SimplexPoint.uniform(size),
                                   ScoreVector(rng.permutation(values)), 1.0, 0.5,
                                   max_steps=10_000, kl_tol=1e-16))
        # a literal flow whose top two scores lie close may run to its horizon
        assert {record.terminal_status for record in records} <= {
            TerminalStatus.CONVERGED, TerminalStatus.MAX_TIME
        }
        counts = [record.block_counts for record in records]
        assert [c.blocks for c in counts] == [1] * len(records)
        evaluated, kept = (sum(getattr(c, name) for c in counts)
                           for name in ("stops_evaluated", "stops_kept"))
        assert evaluated <= 1.15 * kept

    @pytest.mark.parametrize("run", [
        # tolerances below the rounding floor, about 2.2e-16 log V
        lambda: integrate(FieldKind.ENTROPIC, _P0, _S, 1.0, 1e3,
                          IntegratorControls(convergence_kl=1e-17)),
        lambda: iterate(MirrorStepKind.EXACT_PROX, _P0, _S, 1.0, 0.05, kl_tol=1e-17),
        # no tolerance, and a temperature that is not constant
        lambda: iterate(MirrorStepKind.PRINTED_MW, _P0, _S, 1.0, 0.5, kl_tol=0.0),
        lambda: integrate(FieldKind.LITERAL, _P0, _S, _PIECEWISE, 1e3),
    ], ids=["entropic-floor", "exact-prox-floor", "printed-mw-zero", "literal-piecewise"])
    def test_a_run_without_a_bound_keeps_plain_doubling(self, run, monkeypatch):
        bounds = self.spy(monkeypatch)
        record = run()
        assert bounds == [None]
        monkeypatch.undo()
        _use_layout(monkeypatch, FIRST_BLOCK, None, None)
        assert record.block_counts == run().block_counts


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
    """The Dormand-Prince 5(4) driver of ``_run_flows``: a first integral of the
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
        controls = IntegratorControls(step_tol=1.01e-10, sample_times=grid)
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
            # one call for the start, six per trial step and one for the sample block
            return traj, counted.calls - 2 - 6 * trials

        traj, extra = run()
        assert traj.renormalizations == 0
        assert extra == 1  # the first stage after the breakpoint
        with monkeypatch.context() as patch:
            patch.setattr(replicator, "NORM_EPS", -1.0)  # renormalize after every step
            traj, extra = run()
        assert traj.renormalizations == traj.step_counts.accepted_steps
        # a fresh first stage after each step; at the breakpoint it is due anyway
        assert extra == traj.step_counts.accepted_steps

    @pytest.mark.parametrize("step_tol", [-1.0, math.nan, math.inf, 0.0])
    def test_invalid_tolerances_raise(self, step_tol):
        with pytest.raises(InvalidInputError, match="step_tol"):
            IntegratorControls(step_tol=step_tol)

    @pytest.mark.parametrize("convergence_kl", [-1.0, math.nan, math.inf])
    def test_a_convergence_kl_that_is_not_finite_and_nonnegative_raises(self, convergence_kl):
        # inf ended a run as converged at t = 0; NaN ran it to its horizon
        with pytest.raises(InvalidInputError, match="convergence_kl"):
            IntegratorControls(convergence_kl=convergence_kl)

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

    def test_a_landing_step_keeps_the_step_size_proposed_before_it(self):
        # a stop 2e-13 after t = 1, or a breakpoint 4e-13 after it, cuts one
        # step short; growing from that step took 52 and 57 steps
        field = linear_field(np.zeros(3), rotation_coupling(1.0))

        def accepted(kind, schedule, times):
            controls = IntegratorControls(sample_times=times, convergence_kl=0.0)
            return _run_flow(kind, self.P0, field.scores_at, field.potential, schedule, 2.0,
                             controls).step_counts.accepted_steps

        assert [
            accepted(FieldKind.LITERAL, ConstantSchedule(1.0), times)
            for times in ((0.0, 1.0, 2.0), (0.0, 1.0, 1.0 + 2e-13, 2.0))
        ] == [12, 13]
        assert [
            accepted(FieldKind.ENTROPIC, PiecewiseConstantSchedule((edge,), (1.0, 0.5)),
                     (0.0, 1.0, 2.0))
            for edge in (1.0, 1.0 + 4e-13)
        ] == [20, 21]

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


class TestBlockDriver:
    """``_run_flows`` steps B starts as one (B, V) block that shares every
    step.  Each row is held to its own single-start run at a bound about the
    measured gap, and row-wise events (the log-clamp, a step size underflow)
    end only the rows they happen to."""

    @staticmethod
    def both(field, kind, starts, schedule, horizon, controls):
        rows = _run_flows(kind, starts, field.scores_at, field.potential, schedule, horizon,
                          controls)
        singles = [_run_flow(kind, start, field.scores_at, field.potential, schedule, horizon,
                             controls) for start in starts]
        return rows, singles

    def test_rows_stay_near_their_single_start_runs(self):
        rng = np.random.default_rng(7)  # find_multibasin_coupling's probe starts
        starts = [SimplexPoint(rng.dirichlet(np.ones(3))) for _ in range(12)]
        multibasin = linear_field(np.zeros(3), [[0, 2, 0], [2, 0, 0], [0, 0, 2]])
        rng = np.random.default_rng(12)
        symmetric, antisymmetric = (rng.normal(size=(8, 8)) for _ in range(2))
        cases = [
            # measured 9.4e-9; the single runs take 114 to 322 steps, the block 207
            (multibasin, FieldKind.ENTROPIC, starts, ConstantSchedule(0.5), 300.0, 50, 1.2e-8),
        ]
        # with a breakpoint at t = 2; measured 5.2e-9, 1.5e-9, 8.3e-8 and 3.8e-9
        bounds = iter((6.5e-9, 2e-9, 1e-7, 5e-9))
        for coupling in (symmetric + symmetric.T, antisymmetric - antisymmetric.T):
            for kind in FieldKind:
                field = linear_field(rng.uniform(-1, 1, 8), coupling)
                starts = [SimplexPoint(rng.dirichlet(np.ones(8))) for _ in range(6)]
                schedule = PiecewiseConstantSchedule((2.0,), (1.0, 0.5))
                cases.append((field, kind, starts, schedule, 8.0, 40, next(bounds)))
        for field, kind, starts, schedule, horizon, n_samples, bound in cases:
            controls = IntegratorControls(n_samples=n_samples)
            rows, singles = self.both(field, kind, starts, schedule, horizon, controls)
            assert len(rows) == len(starts)
            for row, single in zip(rows, singles):
                assert row.terminal_status is single.terminal_status is TerminalStatus.MAX_TIME
                assert list(row.t) == list(single.t)
                assert float(np.max(np.abs(row.P - single.P))) <= bound
                assert row.step_counts == rows[0].step_counts

    @pytest.mark.parametrize("beta", [0.5, 8.0])
    def test_rows_conserve_the_first_integral_of_the_rotation_flow(self, beta):
        # the bound of one start (TestEmbeddedPair) holds for every row
        rng = np.random.default_rng(11)
        starts = [SimplexPoint(rng.dirichlet(np.ones(3))) for _ in range(8)]
        field = linear_field(np.zeros(3), rotation_coupling(beta))
        controls = IntegratorControls(n_samples=50, convergence_kl=0.0)
        for row in _run_flows(FieldKind.LITERAL, starts, field.scores_at, field.potential,
                              ConstantSchedule(1.0), 50.0 / beta, controls):
            invariant = np.log(row.P).sum(axis=1)
            assert np.max(np.abs(invariant - invariant[0])) <= 2e-7

    def test_each_stage_calls_the_scores_once_for_the_whole_block(self, monkeypatch):
        field = linear_field(np.zeros(3), [[0, 2, 0], [2, 0, 0], [0, 0, 2]])
        starts = [SimplexPoint([0.5, 0.3, 0.2]), SimplexPoint([0.1, 0.2, 0.7]),
                  SimplexPoint([0.3, 0.3, 0.4])]
        schedule = PiecewiseConstantSchedule((1.0,), (1.0, 0.5))

        def run():
            counted = Counted(field.scores_at, 2000)
            rows = _run_flows(FieldKind.ENTROPIC, starts, counted, field.potential, schedule,
                              3.0, IntegratorControls(n_samples=20))
            trials = rows[0].step_counts.accepted_steps + rows[0].step_counts.rejected_steps
            # as for one start: the start, six per trial step and the sample block
            return rows, counted.calls - 2 - 6 * trials

        rows, extra = run()
        assert extra == 1  # the first stage after the breakpoint
        with monkeypatch.context() as patch:
            patch.setattr(replicator, "NORM_EPS", -1.0)  # renormalize every row after every step
            rows, extra = run()
        accepted = rows[0].step_counts.accepted_steps
        assert [row.renormalizations for row in rows] == [accepted] * len(starts)
        assert extra == accepted

    def test_a_row_that_meets_the_clamp_ends_alone(self):
        # the CLI clamp test's field; the middle start meets the clamp near
        # t = 0.42 and the others would meet it after t = 0.6
        field = linear_field([1.0, 0.0, 0.5], np.eye(3))
        starts = [SimplexPoint([0.1, 0.1, 0.8]), SimplexPoint([0.3, 0.3, 0.4]),
                  SimplexPoint([0.05, 0.15, 0.8])]
        controls = IntegratorControls(n_samples=50)
        rows, singles = self.both(field, FieldKind.ENTROPIC, starts, ConstantSchedule(1e-3), 0.5,
                                  controls)
        assert [row.terminal_status for row in rows] == [single.terminal_status for single in singles]
        assert [row.terminal_status for row in rows] == [
            TerminalStatus.MAX_TIME, TerminalStatus.DIVERGED, TerminalStatus.MAX_TIME
        ]
        clamped = rows[1]
        assert clamped.diagnostics == "log-probability clamp hit near the boundary"
        assert 0.4 < clamped.t[-1] < 0.45 and clamped.P[-1].min() >= 1e-300
        # its samples up to the clamp are those of a single run's
        assert list(clamped.t[:-1]) == list(singles[1].t[:-1])
        assert [row.t[-1] for row in rows[::2]] == [0.5, 0.5] and np.all(np.isfinite(clamped.P))

    def test_a_step_size_underflow_ends_the_rows_over_the_tolerance(self, monkeypatch):
        # the first trial (h = dt0 = 0.01) fails on the start far out on the
        # fast rotation, and the next proposal falls below MIN_STEP; the
        # uniform start is the rotation's centre, with no error
        monkeypatch.setattr(replicator, "MIN_STEP", 0.009)
        field = linear_field(np.zeros(3), rotation_coupling(50.0))
        starts = [SimplexPoint.uniform(3), SimplexPoint([0.3, 0.3, 0.4])]
        rows, singles = self.both(field, FieldKind.LITERAL, starts, ConstantSchedule(1.0), 1.0,
                                  IntegratorControls(n_samples=20))
        assert singles[1].diagnostics == "step size underflow at t=0 (h=0.00608)"
        assert [row.terminal_status for row in rows] == [
            TerminalStatus.MAX_TIME, TerminalStatus.DIVERGED
        ]
        assert rows[1].diagnostics == singles[1].diagnostics and list(rows[1].t) == [0.0]
        assert rows[0].t[-1] == 1.0 and np.array_equal(rows[0].P, singles[0].P)

    def test_starts_of_different_sizes_are_refused(self):
        field = linear_field(np.zeros(3), rotation_coupling(1.0))
        for starts in ([], [SimplexPoint.uniform(3), SimplexPoint.uniform(4)]):
            with pytest.raises(InvalidInputError, match="starts"):
                _run_flows(FieldKind.LITERAL, starts, field.scores_at, field.potential,
                           ConstantSchedule(1.0), 1.0, IntegratorControls())


class TestDenseOutput:
    """``_run_flows(..., dense=True)`` lands steps only on breakpoints and the
    horizon and reads the samples between from each step's continuous
    extension.  Bounds are about the measured gaps; the landing runs of the
    same instances are pinned in ``TestEmbeddedPair`` and ``TestBlockDriver``."""

    P0 = SimplexPoint([0.5, 0.3, 0.2])

    @pytest.mark.parametrize("beta", [0.5, 8.0])
    def test_rotation_flow_conserves_the_sum_of_log_p(self, beta):
        # find_recurrent_beta's run at T = 1: measured drift 1.77e-7 on both,
        # and 198 and 194 accepted steps where landing takes 5000 and 4999
        field = linear_field(np.zeros(3), rotation_coupling(beta))
        controls = IntegratorControls(n_samples=5000, uniform_samples=True, convergence_kl=0.0)
        counted = Counted(field.scores_at, 3000)
        traj = _run_flows(FieldKind.LITERAL, [self.P0], counted, field.potential,
                          ConstantSchedule(1.0), 50.0 / beta, controls, dense=True)[0]
        assert list(traj.t) == np.linspace(0.0, 50.0 / beta, 5000).tolist()
        invariant = np.log(traj.P).sum(axis=1)
        assert np.max(np.abs(invariant - invariant[0])) <= 2e-7
        counts = traj.step_counts
        assert counts.accepted_steps <= 250
        # the start, six per trial step and the sample block: the
        # interpolated samples evaluate no field
        assert counted.calls == 2 + 6 * (counts.accepted_steps + counts.rejected_steps)

    def test_block_rows_stay_near_their_single_start_runs(self):
        # measured 9.4e-7 at most, on the start nearest the centre, whose
        # single run takes 69 steps against the block's 208
        rng = np.random.default_rng(11)
        starts = [SimplexPoint(rng.dirichlet(np.ones(3))) for _ in range(6)]
        field = linear_field(np.zeros(3), rotation_coupling(1.0))
        controls = IntegratorControls(n_samples=2000, uniform_samples=True, convergence_kl=0.0)

        def run(block):
            return _run_flows(FieldKind.LITERAL, block, field.scores_at, field.potential,
                              ConstantSchedule(1.0), 50.0, controls, dense=True)

        rows = run(starts)
        for row, start in zip(rows, starts):
            single = run([start])[0]
            assert list(row.t) == list(single.t)
            assert float(np.max(np.abs(row.P - single.P))) <= 1e-6

    def test_a_row_that_leaves_through_the_clamp_has_no_sample_after_it_left(self):
        field = linear_field([1.0, 0.0, 0.5], np.eye(3))
        starts = [SimplexPoint([0.05, 0.15, 0.8]), SimplexPoint([0.6, 0.2, 0.2])]
        controls = IntegratorControls(n_samples=101, uniform_samples=True)
        rows = _run_flows(FieldKind.ENTROPIC, starts, field.scores_at, field.potential,
                          ConstantSchedule(1e-3), 1.0, controls, dense=True)
        grid = np.linspace(0.0, 1.0, 101)
        for row in rows:
            assert row.terminal_status is TerminalStatus.DIVERGED
            assert row.diagnostics == "log-probability clamp hit near the boundary"
            left = row.t[-1]  # the end of the step at which it met the clamp
            assert list(row.t[:-1]) == grid[grid < left].tolist()
            assert row.P[-1].min() >= 1e-300 and np.all(np.isfinite(row.P))
        # measured: the second start leaves at t = 0.42, the first at t = 0.84
        first, second = rows
        assert second.t[-1] < 0.5 < first.t[-1] < 1.0

    def test_no_sample_below_the_clamp_is_recorded(self):
        # each start passes the clamp inside one step: it leaves at its first
        # sample below it, which it records clamped, and records nothing later
        field = linear_field([1.0, 0.0, 0.5], np.eye(3))
        starts = [SimplexPoint([0.1, 0.1, 0.8]), SimplexPoint([0.3, 0.3, 0.4]),
                  SimplexPoint([0.05, 0.15, 0.8])]
        controls = IntegratorControls(n_samples=50, uniform_samples=True)
        grid = np.linspace(0.0, 1.0, 50).tolist()

        def run(block):
            return _run_flows(FieldKind.ENTROPIC, block, field.scores_at, field.potential,
                              ConstantSchedule(1e-3), 1.0, controls, dense=True)

        rows = run(starts) + run(starts[1:2])
        for row in rows:
            assert row.terminal_status is TerminalStatus.DIVERGED
            assert row.diagnostics == "log-probability clamp hit near the boundary"
            assert row.P.min() >= 1e-300
            assert list(row.t) == grid[: len(row.t)]
        # measured: the second start leaves at sample 21 (t = 0.43), the others at 31
        assert [len(row.t) for row in rows] == [32, 22, 32, 22]
