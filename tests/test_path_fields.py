"""State-dependent score fields: rotation, conservativity, recurrence, lock-in."""

import inspect
import itertools

import numpy as np
import pytest

from simplexflow import (
    ExponentialSchedule,
    FieldKind,
    IntegratorControls,
    PiecewiseConstantSchedule,
    ScoreField,
    ScoreVector,
    SimplexPoint,
    constant_field,
    curl_magnitude,
    detect_recurrence,
    equilibrium_residual,
    eval_field,
    eval_path_field,
    find_multibasin_coupling,
    find_recurrent_beta,
    generalized_free_energy,
    integrate,
    integrate_path,
    integrate_paths,
    is_conservative,
    linear_field,
    lockin_probe,
    rotation_coupling,
    softmax,
)
from simplexflow.exceptions import InvalidInputError
from simplexflow.path_fields import RecurrenceReport, _barycentric_lattice, _grid_local_maxima
from simplexflow.simplex import entropy
from simplexflow.trajectory import TerminalStatus, TrajectoryRecord


def scanned_recurrence(traj, delta_rec=1e-3, min_separation=0.5, excursion_factor=5.0):
    """The reference loop scan: one row of distances per first sample."""
    points, times, energies = traj.P, traj.t, traj.free_energy
    for i in range(len(times) - 1):
        dists = np.max(np.abs(points[i + 1 :] - points[i]), axis=1)
        left_max = np.concatenate(([0.0], np.maximum.accumulate(dists)[:-1]))
        ok = (
            (times[i + 1 :] - times[i] >= min_separation)
            & (dists <= delta_rec)
            & (left_max >= excursion_factor * delta_rec)
        )
        if ok.any():
            m = int(np.argmax(ok))
            j = i + 1 + m
            return RecurrenceReport(
                recurrent=True,
                first_return_time=float(times[j] - times[i]),
                return_distance=float(dists[m]),
                drift_per_cycle=float(energies[j] - energies[i]),
            )
    return RecurrenceReport(
        recurrent=False, first_return_time=None, return_distance=np.inf, drift_per_cycle=0.0
    )


class TestScoreField:
    def test_constant_reduces_to_fixed_scores(self, rng):
        s0 = rng.uniform(-3, 3, 4)
        p = SimplexPoint(rng.dirichlet(np.ones(4)))
        for kind in FieldKind:
            a = eval_path_field(constant_field(s0), kind, p, 1.0)
            b = eval_field(kind, p, ScoreVector(s0), 1.0)
            assert np.array_equal(a, b)

    def test_zero_coupling_reduces_to_constant(self, rng):
        s0 = rng.uniform(-3, 3, 4)
        p = SimplexPoint(rng.dirichlet(np.ones(4)))
        a = eval_path_field(linear_field(s0, np.zeros((4, 4))), FieldKind.LITERAL, p, 1.0)
        b = eval_path_field(constant_field(s0), FieldKind.LITERAL, p, 1.0)
        assert np.array_equal(a, b)

    def test_rotation_at_uniform_is_tangent_rotation(self):
        field = linear_field(np.zeros(3), rotation_coupling(2.0))
        p = SimplexPoint.uniform(3)
        x = eval_path_field(field, FieldKind.LITERAL, p, 1.0)
        # B @ uniform = 0, so the field vanishes at the center of rotation
        assert np.max(np.abs(x)) <= 1e-15
        off_center = SimplexPoint([0.4, 0.3, 0.3])
        x = eval_path_field(field, FieldKind.LITERAL, off_center, 1.0)
        assert abs(float(np.sum(x))) <= 1e-14
        assert np.max(np.abs(x)) > 1e-3

    def test_antisymmetric_quadratic_form_vanishes(self, rng):
        field = linear_field(rng.uniform(-1, 1, 3), rotation_coupling(1.5))
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            scores = field.scores_at(p)
            assert abs(float(p @ scores) - float(p @ field.base)) <= 1e-14

    def test_scores_at_rows_equal_the_points_to_the_bit(self, rng):
        field = linear_field(rng.normal(size=5), rng.normal(size=(5, 5)))
        rows = rng.dirichlet(np.ones(5), size=40)
        assert np.array_equal(field.scores_at(rows), [field.scores_at(p) for p in rows])

    def test_json_round_trip(self, rng):
        field = linear_field(rng.uniform(-1, 1, 3), rotation_coupling(0.7))
        back = ScoreField.from_json(field.to_json())
        assert np.array_equal(back.base, field.base)
        assert np.array_equal(back.coupling, field.coupling)
        const = constant_field([1.0, 0.0])
        assert ScoreField.from_json(const.to_json()).coupling is None


class TestConservativity:
    def test_symmetric_is_conservative(self):
        coupling = np.array([[2.0, 1.0], [1.0, 0.0]])
        assert is_conservative(linear_field(np.zeros(2), coupling))
        assert curl_magnitude(linear_field(np.zeros(2), coupling)) == 0.0

    def test_antisymmetric_curl_is_twice_the_norm(self):
        coupling = rotation_coupling(1.5)
        field = linear_field(np.zeros(3), coupling)
        assert not is_conservative(field)
        assert curl_magnitude(field) == pytest.approx(
            2.0 * np.linalg.norm(coupling, "fro"), abs=1e-12
        )

    def test_mixed_parts_measure_only_the_antisymmetric_one(self, rng):
        raw = rng.uniform(-1, 1, (3, 3))
        symmetric = 0.5 * (raw + raw.T)
        antisymmetric = rotation_coupling(0.8)
        field = linear_field(np.zeros(3), symmetric + antisymmetric)
        assert curl_magnitude(field) == pytest.approx(
            2.0 * np.linalg.norm(antisymmetric, "fro"), abs=1e-12
        )

    def test_constant_field_is_conservative(self):
        assert is_conservative(constant_field([1.0, 0.0]))


class TestReduction:
    def test_constant_path_run_equals_replicator_run(self, rng):
        s0 = rng.uniform(-3, 3, 4)
        p0 = SimplexPoint(rng.dirichlet(np.ones(4)))
        controls = IntegratorControls(n_samples=40)
        a = integrate_path(constant_field(s0), FieldKind.ENTROPIC, p0, 1.0, 100.0, controls)
        b = integrate(FieldKind.ENTROPIC, p0, ScoreVector(s0), 1.0, 100.0, controls)
        assert a.terminal_status == b.terminal_status
        assert len(a.samples) == len(b.samples)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.t == sb.t
            assert np.array_equal(sa.p.probs, sb.p.probs)
            assert sa.free_energy == sb.free_energy

    @pytest.mark.parametrize("kind", list(FieldKind))
    @pytest.mark.parametrize(
        "schedule", [1.0, PiecewiseConstantSchedule((1.0, 2.0), (4.0, 1.0, 0.5))],
        ids=["constant", "piecewise"],
    )
    def test_constant_field_starts_are_their_integrate_runs(self, kind, schedule, rng):
        # the starts are rows of one solve; each record is its start's run,
        # a literal start on a face included
        s0 = rng.uniform(-3, 3, 4)
        starts = [SimplexPoint(rng.dirichlet(np.ones(4))) for _ in range(6)]
        if kind is FieldKind.LITERAL:
            starts.append(SimplexPoint([0.0, 0.5, 0.5, 0.0]))
        controls = IntegratorControls()
        records = integrate_paths(constant_field(s0), kind, starts, schedule, 100.0, controls)
        assert len(records) == len(starts)
        for record, p0 in zip(records, starts):
            run = integrate(kind, p0, ScoreVector(s0), schedule, 100.0, controls)
            assert record.terminal_status is run.terminal_status
            assert record.diagnostics == run.diagnostics
            assert record.block_counts.stops_kept == run.block_counts.stops_kept
            for name in ("t", "P", "free_energy", "kl_to_target", "field_norm"):
                assert np.array_equal(getattr(record, name), getattr(run, name)), name
        assert len({len(record.t) for record in records}) > 1

    def test_zero_coupling_run_equals_replicator_run(self, rng):
        s0 = rng.uniform(-3, 3, 3)
        p0 = SimplexPoint(rng.dirichlet(np.ones(3)))
        controls = IntegratorControls(n_samples=30)
        a = integrate_path(
            linear_field(s0, np.zeros((3, 3))), FieldKind.ENTROPIC, p0, 1.0, 50.0, controls
        )
        b = integrate(FieldKind.ENTROPIC, p0, ScoreVector(s0), 1.0, 50.0, controls)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.p.probs, sb.p.probs)


class TestLinearFieldRuns:
    def test_a_linear_field_run_ends_at_the_horizon(self):
        # the coupling find_multibasin_coupling returns
        field = linear_field(np.zeros(3), [[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        p0 = SimplexPoint([0.2, 0.3, 0.5])
        traj = integrate_path(field, FieldKind.ENTROPIC, p0, 0.5, 300.0)
        assert traj.terminal_status is TerminalStatus.MAX_TIME and traj.terminal.t == 300.0
        assert traj.field_norm[-1] < 1e-7  # long since at the basin's equilibrium

    @pytest.mark.parametrize(
        "base, coupling, temperature",
        [
            ([1.0, 0.0, 0.5], [[1e300, 1, -1], [-1, 0, 1], [1, -1, 1e300]], 1e-300),
            # 2 (1e300 + 1) / T is finite, but a stage sum of slopes is not
            ([1e300, 0.0], [[0.0, 1.0], [1.0, 0.0]], 1.2e-8),
            # T(0) = 1 passes; the run's smallest T does not
            ([1.0, 0.0, 0.5], [[1e10, 1, -1], [-1, 0, 1], [1, -1, 1e10]],
             PiecewiseConstantSchedule((0.5,), (1.0, 1e-300))),
            ([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], ExponentialSchedule(1.0, -1000.0)),  # T(1) = 0
        ],
    )
    def test_scores_that_overflow_over_the_temperature_raise(self, base, coupling, temperature):
        field = linear_field(base, coupling)
        p0 = SimplexPoint.uniform(field.size)
        for kind in FieldKind:
            with pytest.raises(InvalidInputError, match="overflow"):
                integrate_path(field, kind, p0, temperature, 1.0)

    def test_dense_samples_match_the_landing_run_on_a_piecewise_schedule(self):
        # the multibasin coupling; the breakpoint at t = 2 is a stop in both
        # modes.  Measured gaps 7.0e-9 and 7.7e-9, with 96 accepted steps
        # against 200 and 221 for the landing runs
        field = linear_field(np.zeros(3), [[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        schedule = PiecewiseConstantSchedule((2.0,), (0.5, 1.0))
        controls = IntegratorControls(n_samples=200)
        for p0 in (SimplexPoint([0.5, 0.3, 0.2]), SimplexPoint([0.1, 0.2, 0.7])):
            landing = integrate_path(field, FieldKind.ENTROPIC, p0, schedule, 300.0, controls)
            dense = integrate_path(field, FieldKind.ENTROPIC, p0, schedule, 300.0, controls,
                                   dense=True)
            assert list(dense.t) == list(landing.t)
            assert float(np.max(np.abs(dense.P - landing.P))) <= 1e-8
            assert dense.accepted_steps < landing.accepted_steps


class TestRecurrence:
    def test_rotational_orbit_is_detected(self):
        beta, reports = find_recurrent_beta(betas=(1.0,))
        assert beta == 1.0
        report = reports[1.0]
        assert report.recurrent
        assert report.return_distance <= 1e-3
        # conservative rotation: near-zero free-energy drift over the loop
        assert abs(report.drift_per_cycle) < 1e-3
        # near the uniform center the period is about 10.9 T / beta; the
        # sampled orbit is larger, so the detected loop is somewhat longer
        assert 5.0 < report.first_return_time < 50.0

    def test_sweep_reports_every_probed_strength(self):
        beta, reports = find_recurrent_beta(betas=(0.5, 1.0))
        assert beta == 0.5
        assert set(reports) == {0.5}

    def test_the_located_orbits_are_pinned(self):
        # the benchmark's seed-5 start and the default start; the landing
        # driver finds the same beta and first return times
        seed5 = SimplexPoint(np.random.default_rng(5).dirichlet(np.full(3, 5.0)))
        for p0, first_return in ((seed5, 22.76455291058212), (None, 22.78455691138228)):
            beta, reports = find_recurrent_beta(p0=p0)
            assert beta == 0.5 and reports[0.5].first_return_time == first_return

    def test_the_runs_are_dense_calls_of_integrate_path(self, monkeypatch):
        from simplexflow import path_fields

        calls = []

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return run(*args, **kwargs)

        run = path_fields.integrate_path
        monkeypatch.setattr(path_fields, "integrate_path", recorded)
        find_recurrent_beta(betas=(8.0,), n_samples=200)
        assert calls == [{"dense": True}]

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_a_beta_that_is_not_positive_and_finite_raises_before_any_run(self, bad, monkeypatch):
        from simplexflow import path_fields

        def refused(*args, **kwargs):
            raise AssertionError("no run may start")

        monkeypatch.setattr(path_fields, "integrate_path", refused)
        message = f"beta must be positive and finite, got {bad!r}"
        with pytest.raises(InvalidInputError, match=message):
            find_recurrent_beta(betas=(1.0, bad))

    def test_converging_run_is_not_recurrent(self, rng):
        s0 = rng.uniform(-3, 3, 3)
        p0 = SimplexPoint(rng.dirichlet(np.ones(3)))
        traj = integrate_path(
            constant_field(s0),
            FieldKind.ENTROPIC,
            p0,
            1.0,
            60.0,
            IntegratorControls(n_samples=2000, uniform_samples=True, convergence_kl=0.0),
        )
        assert not detect_recurrence(traj).recurrent

    def test_stationary_start_is_not_recurrent(self, rng):
        s0 = rng.uniform(-3, 3, 3)
        pi = softmax(ScoreVector(s0), 1.0)
        traj = integrate_path(
            constant_field(s0),
            FieldKind.ENTROPIC,
            pi,
            1.0,
            20.0,
            IntegratorControls(n_samples=500, uniform_samples=True, convergence_kl=0.0),
        )
        assert not detect_recurrence(traj).recurrent

    @pytest.mark.parametrize("beta", [0.5, 1.0, 8.0])
    @pytest.mark.parametrize("delta_rec", [1e-3, 1e-2])
    def test_a_rotation_run_reports_the_reference_loop(self, beta, delta_rec):
        traj = integrate_path(
            linear_field(np.zeros(3), rotation_coupling(beta)),
            FieldKind.LITERAL,
            SimplexPoint([0.5, 0.3, 0.2]),
            1.0,
            60.0 / beta,
            IntegratorControls(n_samples=1500, uniform_samples=True),
            dense=True,
        )
        report = detect_recurrence(traj, delta_rec)
        assert report.recurrent
        assert report == scanned_recurrence(traj, delta_rec)

    def test_a_multibasin_run_reports_the_reference_verdict(self):
        coupling = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        p0 = SimplexPoint(np.random.default_rng(5).dirichlet(np.full(3, 5.0)))
        traj = integrate_path(
            linear_field(np.zeros(3), coupling),
            FieldKind.ENTROPIC,
            p0,
            0.5,
            50.0,
            IntegratorControls(n_samples=1500, uniform_samples=True),
            dense=True,
        )
        for delta_rec in (1e-3, 1e-2, 0.05):
            report = detect_recurrence(traj, delta_rec)
            assert report == scanned_recurrence(traj, delta_rec)
        assert not detect_recurrence(traj).recurrent

    @pytest.mark.parametrize("seed", range(12))
    def test_random_runs_report_the_reference_loop(self, seed):
        # a random walk in log coordinates on several time grids, with
        # repeated and decreasing times among them
        rng = np.random.default_rng(seed)
        n, v = int(rng.integers(2, 400)), int(rng.integers(2, 6))
        logs = np.cumsum(rng.normal(0.0, rng.choice([0.02, 0.1, 0.5]), (n, v)), axis=0)
        P = np.exp(logs - logs.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        grids = [
            np.arange(n) * 0.1,
            np.cumsum(rng.exponential(0.1, n)),
            np.cumsum(rng.choice([0.0, 0.05, 0.3], n)),
            rng.uniform(0.0, 10.0, n),
        ]
        for times, (delta_rec, separation, excursion) in itertools.product(
            grids, [(1e-3, 0.5, 5.0), (0.02, 0.3, 2.0), (0.1, 0.0, 1.0), (0.05, 2.0, 3.0)]
        ):
            traj = TrajectoryRecord.from_columns(
                P, {"t": times, "free_energy": rng.normal(size=n)}, TerminalStatus.MAX_TIME
            )
            got = detect_recurrence(traj, delta_rec, separation, excursion)
            assert got == scanned_recurrence(traj, delta_rec, separation, excursion)

    def test_needs_at_least_two_samples(self):
        from simplexflow.exceptions import InvalidInputError
        from simplexflow.trajectory import TerminalStatus, TrajectoryRecord, TrajectorySample

        sample = TrajectorySample(0.0, SimplexPoint.uniform(2), 0.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            detect_recurrence(TrajectoryRecord([sample], TerminalStatus.MAX_TIME))


class TestGeneralizedFreeEnergy:
    def test_reduces_to_free_energy_without_coupling(self, rng):
        from simplexflow import free_energy

        s0 = rng.uniform(-3, 3, 4)
        p = SimplexPoint(rng.dirichlet(np.ones(4)))
        g = generalized_free_energy(constant_field(s0), p, 1.5)
        f = free_energy(p, ScoreVector(s0), 1.5).value
        assert g == pytest.approx(f, abs=1e-14)

    def test_symmetric_coupling_ascends_g_under_entropic_flow(self, rng):
        coupling = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        field = linear_field(np.zeros(3), coupling)
        for _ in range(10):
            p0 = SimplexPoint(rng.dirichlet(np.ones(3)))
            traj = integrate_path(
                field, FieldKind.ENTROPIC, p0, 0.5, 200.0, IntegratorControls(n_samples=80)
            )
            values = [generalized_free_energy(field, s.p, 0.5) for s in traj.samples]
            assert np.all(np.diff(values) >= -1e-9)
            # the recorded annotation is the same functional
            for sample, value in zip(traj.samples, values):
                assert sample.free_energy == pytest.approx(value, abs=1e-12)


class TestLockinProbe:
    def test_constant_entropic_has_one_basin_at_softmax(self, rng):
        s0 = rng.uniform(-3, 3, 3)
        starts = [SimplexPoint(rng.dirichlet(np.ones(3))) for _ in range(50)]
        probe = lockin_probe(constant_field(s0), FieldKind.ENTROPIC, starts, 1.0)
        assert len(probe.clusters) == 1
        assert probe.basin_sizes == [50]
        pi = softmax(ScoreVector(s0), 1.0)
        assert np.max(np.abs(probe.clusters[0].representative - pi.probs)) < 1e-4

    def test_constant_literal_has_one_basin_at_the_argmax_vertex(self, rng):
        s0 = np.array([1.0, 0.3, 0.0])
        starts = [SimplexPoint(rng.dirichlet(np.ones(3))) for _ in range(50)]
        probe = lockin_probe(constant_field(s0), FieldKind.LITERAL, starts, 1.0, horizon=400.0)
        assert len(probe.clusters) == 1
        vertex = np.array([1.0, 0.0, 0.0])
        assert np.max(np.abs(probe.clusters[0].representative - vertex)) < 1e-4

    def test_multibasin_instance_found_by_search(self, rng):
        field, maxima = find_multibasin_coupling()
        assert field is not None
        assert is_conservative(field)
        assert len(maxima) >= 2
        starts = [SimplexPoint(rng.dirichlet(np.ones(3))) for _ in range(50)]
        probe = lockin_probe(field, FieldKind.ENTROPIC, starts, 0.5, horizon=300.0)
        assert len(probe.clusters) >= 2
        assert not probe.diverged


    def test_linear_field_starts_are_one_block(self, monkeypatch):
        from simplexflow import path_fields

        blocks = []

        def recorded(kind, starts, *args, **kwargs):
            blocks.append(len(starts))
            return run_flows(kind, starts, *args, **kwargs)

        run_flows = path_fields._run_flows
        monkeypatch.setattr(path_fields, "_run_flows", recorded)
        field = linear_field(np.zeros(3), [[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        starts = [SimplexPoint(p) for p in ([0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [0.1, 0.1, 0.8])]
        probe = lockin_probe(field, FieldKind.ENTROPIC, starts, 0.5, horizon=50.0)
        assert blocks == [3] and sum(probe.basin_sizes) == 3
        lockin_probe(constant_field([1.0, 0.0, 0.5]), FieldKind.ENTROPIC, starts, 0.5)
        assert blocks == [3]  # closed form per start

    def test_a_start_that_meets_the_clamp_is_the_only_one_diverged(self):
        # T = 1e-3: the second start meets the log-probability clamp near
        # t = 0.42, the others only after t = 0.6
        field = linear_field([1.0, 0.0, 0.5], np.eye(3))
        starts = [SimplexPoint([0.1, 0.1, 0.8]), SimplexPoint([0.3, 0.3, 0.4]),
                  SimplexPoint([0.05, 0.15, 0.8])]
        probe = lockin_probe(field, FieldKind.ENTROPIC, starts, 1e-3, horizon=0.5)
        assert probe.diverged == [1]
        assert probe.assignments == [0, None, 0] and probe.basin_sizes == [2]

    @pytest.mark.parametrize("seed", [5, 6, 7, 12345])
    def test_terminal_points_are_equilibria_of_the_field(self, seed):
        # every run of the probe ends at a fixed point of p -> softmax(s(p) / T);
        # measured at most 3.0e-9 (single-start runs: 2.2e-8)
        field, _ = find_multibasin_coupling()
        rng = np.random.default_rng(seed)
        starts = [SimplexPoint(rng.dirichlet(np.ones(3))) for _ in range(50)]
        runs = integrate_paths(field, FieldKind.ENTROPIC, starts, 0.5, 300.0,
                               IntegratorControls(n_samples=50))  # lockin_probe's runs
        assert max(equilibrium_residual(field, run.terminal.p, 0.5) for run in runs) <= 5e-8
        probe = lockin_probe(field, FieldKind.ENTROPIC, starts, 0.5, horizon=300.0)
        assert len(probe.clusters) >= 2 and not probe.diverged
        for cluster in probe.clusters:
            point = SimplexPoint(cluster.representative)
            assert equilibrium_residual(field, point, 0.5) <= 5e-8


def separated_maxima(maxima, separation=0.2):
    """find_multibasin_coupling's screen: >= 2 maxima, two of them apart."""
    points = [point for point, _ in maxima]
    return any(
        np.max(np.abs(a - b)) >= separation
        for n, a in enumerate(points)
        for b in points[n + 1 :]
    )


class TestLatticeScreen:
    """``_grid_local_maxima`` evaluates G on the whole lattice at once, so a
    value may differ from ``generalized_free_energy`` in its last bits and a
    strict maximum at an exact tie may flip (32 of the 1458 pairs below list
    different maxima).  Pinned: the lattice and its neighbour table, the screen
    decision on every candidate of the default search, and its result."""

    def test_lattice_and_neighbour_table(self):
        for resolution in range(2, 25):
            points, neighbours = _barycentric_lattice(resolution)
            keys = np.rint(points * resolution).astype(int)
            assert np.array_equal(points, keys / resolution)
            assert len(keys) == (resolution - 1) * (resolution - 2) // 2
            assert np.all(keys >= 1) and np.all(keys.sum(axis=1) == resolution)
            assert [tuple(k) for k in keys] == sorted(tuple(k) for k in keys)
            # neighbours: one unit moved between two coordinates
            apart = np.abs(keys[:, np.newaxis, :] - keys[np.newaxis, :, :]).sum(axis=2)
            for n in range(len(keys)):
                assert set(neighbours[n]) - {-1} == set(np.flatnonzero(apart[n] == 2))

    def test_screen_decision_matches_the_scalar_free_energy_on_every_candidate(self):
        points, neighbours = _barycentric_lattice(24)
        lattice = [SimplexPoint(p) for p in points]
        base = np.zeros(3)
        # generalized_free_energy term by term, each term taken once per point
        linear = [float(p.probs @ base) for p in lattice]
        entropies = [entropy(p) for p in lattice]

        def screened(values):
            padded = np.append(values, -np.inf)  # row -1: no neighbour
            maxima = np.flatnonzero(values > padded[neighbours].max(axis=1))
            return len(maxima) >= 2 and separated_maxima([(points[n], None) for n in maxima])

        decisions = 0
        for b11, b22, b33, b12, b13, b23 in itertools.product((0, 1, 2), repeat=6):
            coupling = np.array([[b11, b12, b13], [b12, b22, b23], [b13, b23, b33]], float)
            field = linear_field(base, coupling)
            quadratic = [0.5 * float(p.probs @ (coupling @ p.probs)) for p in lattice]
            for temperature in (0.5, 1.0):
                values = np.array(
                    [a + temperature * h + q for a, h, q in zip(linear, entropies, quadratic)]
                )
                if b12 == b23:  # spot check of the replica
                    for n in (0, 100, len(points) - 1):
                        assert values[n] == generalized_free_energy(field, lattice[n], temperature)
                maxima = _grid_local_maxima(field, temperature)
                decision = len(maxima) >= 2 and separated_maxima(maxima)
                assert decision == screened(values)
                decisions += decision
        assert decisions > 0

    @pytest.mark.parametrize("kwargs", [{}, {"seed": 11}, {"seed": 12345}])
    def test_search_result_is_pinned(self, kwargs):
        # values from the per-point scan this one replaced; the default seed is 7
        assert inspect.signature(find_multibasin_coupling).parameters["seed"].default == 7
        field, maxima = find_multibasin_coupling(**kwargs)
        assert np.array_equal(field.coupling, [[0, 2, 0], [2, 0, 0], [0, 0, 2]])
        expected = [
            ((1, 1, 22), 1.0160491240514113),
            ((8, 8, 8), 0.882639477667388),
            ((10, 10, 4), 0.889091929666463),
        ]
        assert len(maxima) == len(expected)
        for (point, value), (key, pinned) in zip(maxima, expected):
            assert type(point) is np.ndarray and type(value) is np.float64
            assert point.tolist() == [k / 24 for k in key]
            assert abs(value - pinned) <= 1e-12
