"""Finite differences, closed forms, the prox maximizer, and the claim matrix."""

import functools
import math
from collections import Counter

import numpy as np
import pytest

from simplexflow import (
    ConstantSchedule,
    InteriorityError,
    InvalidInputError,
    OracleFailureError,
    ScoreVector,
    SimplexPoint,
    closed_form_entropic,
    closed_form_literal,
    constant_field,
    equilibrium_residual,
    exact_prox_step,
    linear_field,
    fd_gradient,
    log_partition,
    prox_objective_maximizer,
    rk4_flow,
    rotation_coupling,
    run_adjudication,
    softmax,
)
from simplexflow import replicator
from simplexflow.replicator import FieldKind, IntegratorControls, _run_flows
from simplexflow.oracles import (
    CLAIMS,
    DEFAULT_SEED,
    compare_to_expected,
    expected_claim_matrix,
    fd_gradient_checked,
    _ascent_instances,
    matrix_from_verdicts,
    oracle_self_test,
    random_interior_point,
    random_scores,
)
from simplexflow.simplex import _simplex_rows


class TestFiniteDifferences:
    def test_linear_function_is_exact_to_rounding(self):
        coeffs = np.array([2.0, -1.0, 0.5])
        grad = fd_gradient(lambda v: float(coeffs @ v), np.array([0.1, 0.2, -0.4]))
        assert np.max(np.abs(grad - coeffs)) < 1e-9

    def test_log_partition_gradient_is_softmax(self):
        s = ScoreVector([1.0, 0.0])
        grad = fd_gradient(lambda v: log_partition(ScoreVector(v), 1.0), s.values)
        assert np.max(np.abs(grad - softmax(s, 1.0).probs)) < 1e-6

    def test_shifted_input_gives_the_same_gradient(self):
        s = ScoreVector([1.0, 0.0])
        a = fd_gradient(lambda v: log_partition(ScoreVector(v), 1.0), s.values)
        b = fd_gradient(lambda v: log_partition(ScoreVector(v), 1.0), s.values + 4.0)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_richardson_pair_flags_a_rough_target(self):
        # high-frequency target violates the quadratic error model at step 1e-5
        with pytest.raises(OracleFailureError):
            fd_gradient_checked(
                lambda v: math.sin(1e7 * float(v[0])), np.array([0.3, 0.0]), limit=1e-6
            )


class TestClosedFormLiteral:
    def test_time_zero_is_the_start_bit_for_bit(self):
        p0 = SimplexPoint([0.5, 0.3, 0.2])
        out = closed_form_literal(p0, ScoreVector([1.0, 0.0, -1.0]), 1.0, 0.0)
        assert out is p0

    def test_constant_scores_freeze_the_flow(self):
        p0 = SimplexPoint([0.5, 0.3, 0.2])
        out = closed_form_literal(p0, ScoreVector([2.0, 2.0, 2.0]), 1.0, 9.0)
        assert np.max(np.abs(out.probs - p0.probs)) < 1e-15

    def test_long_time_limit_is_the_argmax_vertex(self):
        p0 = SimplexPoint([0.5, 0.3, 0.2])
        out = closed_form_literal(p0, ScoreVector([1.0, 0.0, -1.0]), 1.0, 1e6)
        assert out.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_temperature_rescales_time(self):
        p0 = SimplexPoint([0.5, 0.3, 0.2])
        s = ScoreVector([1.0, 0.0, -1.0])
        a = closed_form_literal(p0, s, 2.0, 6.0)
        b = closed_form_literal(p0, s, 1.0, 3.0)
        assert np.max(np.abs(a.probs - b.probs)) < 1e-15

    def test_negative_time_raises(self):
        with pytest.raises(InvalidInputError):
            closed_form_literal(SimplexPoint.uniform(2), ScoreVector([1.0, 0.0]), 1.0, -1.0)


class TestProxObjectiveMaximizer:
    def test_agrees_with_the_closed_form_on_500_instances(self, rng):
        worst = 0.0
        for _ in range(500):
            size = int(rng.integers(2, 17))
            s = ScoreVector(rng.uniform(-3, 3, size))
            p = SimplexPoint(rng.dirichlet(np.ones(size)))
            t = float(rng.uniform(0.25, 4.0))
            eta = float(rng.uniform(0.05, 2.0))
            numerical = prox_objective_maximizer(p, s, t, eta)
            closed = exact_prox_step(p, s, t, eta)
            worst = max(worst, float(np.max(np.abs(numerical.probs - closed.probs))))
        assert worst < 1e-8

    def test_vanishing_step_returns_the_start(self):
        p = SimplexPoint([0.5, 0.3, 0.2])
        out = prox_objective_maximizer(p, ScoreVector([1.0, 0.0, -1.0]), 1.0, 1e-9)
        assert np.max(np.abs(out.probs - p.probs)) < 1e-7

    def test_huge_step_returns_softmax(self):
        s = ScoreVector([1.0, 0.0, -1.0])
        out = prox_objective_maximizer(SimplexPoint([0.5, 0.3, 0.2]), s, 1.0, 1e9)
        assert np.max(np.abs(out.probs - softmax(s, 1.0).probs)) < 1e-7

    def test_maximizer_beats_no_nearby_candidate(self, rng):
        # independent certificate: the returned point maximizes the prox
        # objective against random simplex perturbations
        from simplexflow import entropy, kl_divergence

        p = SimplexPoint([0.4, 0.35, 0.25])
        s = ScoreVector([0.5, -0.2, 0.1])
        t, eta = 1.3, 0.7

        def objective(q):
            return (
                float(q.probs @ s.values)
                + t * entropy(q)
                - kl_divergence(q, p) / eta
            )

        best = prox_objective_maximizer(p, s, t, eta)
        target = objective(best)
        for _ in range(200):
            q = SimplexPoint(rng.dirichlet(np.ones(3)))
            assert objective(q) <= target + 1e-9


class TestClosedFormEntropic:
    def test_time_zero_is_the_start_bit_for_bit(self):
        p0 = SimplexPoint([0.5, 0.3, 0.2])
        out = closed_form_entropic(p0, ScoreVector([1.0, 0.0, -1.0]), ConstantSchedule(2.0), 0.0)
        assert out is p0

    def test_constant_temperature_matches_the_textbook_weight(self):
        p0 = SimplexPoint([0.5, 0.3, 0.2])
        s = ScoreVector([1.0, 0.0, -1.0])
        t, temp = 2.7, 0.8
        w = (1.0 - math.exp(-t)) / temp
        ell = math.exp(-t) * np.log(p0.probs) + w * s.values
        want = np.exp(ell - ell.max()) / np.exp(ell - ell.max()).sum()
        got = closed_form_entropic(p0, s, temp, t).probs
        assert np.max(np.abs(got / want - 1.0)) < 1e-13

    def test_long_time_limit_is_softmax(self):
        s = ScoreVector([1.0, 0.0, -1.0])
        out = closed_form_entropic(SimplexPoint([0.1, 0.1, 0.8]), s, ConstantSchedule(0.5), 60.0)
        assert np.max(np.abs(out.probs - softmax(s, 0.5).probs)) < 1e-12

    def test_boundary_start_and_negative_time_raise(self):
        s = ScoreVector([1.0, 0.0])
        with pytest.raises(InteriorityError):
            closed_form_entropic(SimplexPoint([1.0, 0.0]), s, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            closed_form_entropic(SimplexPoint([0.5, 0.5]), s, 1.0, -1.0)


class TestEquilibriumResidual:
    def test_zero_at_the_softmax_of_a_constant_field(self, rng):
        for size in (2, 3, 10, 1000):
            for temperature in (0.01, 0.5, 1.0, 100.0):
                s0 = rng.uniform(-3, 3, size)
                pi = softmax(ScoreVector(s0), temperature)
                assert equilibrium_residual(constant_field(s0), pi, temperature) <= 1e-15

    def test_reads_the_state_dependent_scores(self):
        # s(p) = 2 p: the uniform point is a fixed point of p -> softmax(s(p) / T),
        # and elsewhere the residual is the gap to softmax(2 p / T), not to uniform
        field = linear_field(np.zeros(3), 2.0 * np.eye(3))
        assert equilibrium_residual(field, SimplexPoint.uniform(3), 0.5) <= 1e-16
        p = SimplexPoint([0.5, 0.3, 0.2])
        gibbs = softmax(ScoreVector(2.0 * p.probs), 0.5).probs
        assert equilibrium_residual(field, p, 0.5) == float(np.abs(p.probs - gibbs).max()) > 0.05


class TestRK4Reference:
    """The adaptive driver's samples against fixed-step RK4 in p coordinates,
    on 0.01-spaced samples from the benchmark's seed-5 start.  Bounds are
    about the measured gaps: (dense, landing) 9.2e-9 and 1.1e-14 on the slow
    rotation, 8.0e-8 and 1.6e-10 on the fast one up to t = 4 (2.2e-7 and
    4.7e-10 up to t = 8), 1.7e-8 and 1.6e-12 on the multibasin field.  The
    landing gaps of the first and last instance are at the reference's own
    error."""

    P0 = SimplexPoint(np.random.default_rng(5).dirichlet(np.full(3, 5.0)))
    MULTIBASIN = [[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 2.0]]

    @pytest.mark.parametrize(
        "coupling, kind, temperature, horizon, dense_bound, landing_bound",
        [
            (rotation_coupling(0.5), FieldKind.LITERAL, 1.0, 8.0, 1.2e-8, 2e-14),
            (rotation_coupling(8.0), FieldKind.LITERAL, 1.0, 4.0, 1e-7, 2e-10),
            (MULTIBASIN, FieldKind.ENTROPIC, 0.5, 8.0, 2e-8, 2e-12),
        ],
        ids=["rotation-0.5", "rotation-8", "multibasin"],
    )
    def test_driver_samples_against_the_reference(
        self, coupling, kind, temperature, horizon, dense_bound, landing_bound
    ):
        field = linear_field(np.zeros(3), coupling)
        n = round(horizon / 0.01) + 1
        grid = np.linspace(0.0, horizon, n)
        reference, estimate = rk4_flow(field.scores_at, kind, self.P0, temperature, grid)
        assert estimate <= 1e-10
        controls = IntegratorControls(n_samples=n, uniform_samples=True, convergence_kl=0.0)
        for dense, bound in ((True, dense_bound), (False, landing_bound)):
            traj = _run_flows(kind, [self.P0], field.scores_at, field.potential,
                              ConstantSchedule(temperature), horizon, controls,
                              dense=dense)[0]
            assert list(traj.t) == grid.tolist()
            assert float(np.max(np.abs(traj.P - reference))) <= bound

    def test_the_estimate_bounds_the_error_on_a_closed_form(self):
        s = ScoreVector([2.0, -1.0, 0.5, 0.0])
        p0 = SimplexPoint([0.1, 0.2, 0.3, 0.4])
        times = np.linspace(0.0, 1.0, 5)
        for kind, exact in (
            (FieldKind.LITERAL, lambda t: closed_form_literal(p0, s, 0.5, t)),
            (FieldKind.ENTROPIC,
             lambda t: closed_form_entropic(p0, s, ConstantSchedule(0.5), t)),
        ):
            stepped, estimate = rk4_flow(lambda p: s.values, kind, p0, 0.5, times)
            err = float(np.abs(stepped - [exact(t).probs for t in times]).max())
            assert err <= estimate <= 1e-10

    def test_invalid_inputs_and_no_agreement_raise(self):
        field = linear_field(np.zeros(3), rotation_coupling(1.0))
        p0 = SimplexPoint([0.5, 0.3, 0.2])
        for times in ((0.0,), (0.0, 1.0, 1.0), (1.0, 0.0)):
            with pytest.raises(InvalidInputError, match="times"):
                rk4_flow(field.scores_at, FieldKind.LITERAL, p0, 1.0, times)
        with pytest.raises(InteriorityError):
            rk4_flow(field.scores_at, FieldKind.ENTROPIC, SimplexPoint([0.5, 0.5, 0.0]), 1.0,
                     (0.0, 1.0))
        with pytest.raises(OracleFailureError, match="RK4 runs disagree"):
            rk4_flow(field.scores_at, FieldKind.LITERAL, p0, 1.0, (0.0, 10.0),
                     max_refinements=2)


class TestSelfTest:
    def test_all_entries_pass(self):
        results = oracle_self_test()
        assert len(results) >= 8

    def test_entropic_oracle_is_self_tested(self):
        names = {name for name, _ in oracle_self_test()}
        assert {"closed-form-entropic-at-zero", "closed-form-entropic-softmax-limit"} <= names

    def test_the_rk4_oracle_is_self_tested(self):
        assert "rk4-constant-scores" in {name for name, _ in oracle_self_test()}


@pytest.fixture(scope="module")
def verdicts():
    return run_adjudication()


class TestAdjudication:
    def test_matches_the_committed_matrix(self, verdicts):
        assert compare_to_expected(verdicts) == []

    def test_covers_the_full_matrix(self, verdicts):
        got = matrix_from_verdicts(verdicts)
        expected = expected_claim_matrix()
        assert got == expected
        assert sum(len(row) for row in got.values()) == 12

    def test_negative_verdicts_carry_counterexamples(self, verdicts):
        by_key = {(v.claim_id, v.dynamics): v for v in verdicts}
        stationarity = by_key[("thm-manifold-3", "literal")]
        assert not stationarity.holds
        assert stationarity.witness["field_norm_at_softmax"] > 0.1
        ascent = by_key[("prop-ascent", "printed-mw")]
        assert not ascent.holds
        assert ascent.witness["f_after"] < ascent.witness["f_before"]

    def test_positive_verdicts_carry_statistics(self, verdicts):
        by_key = {(v.claim_id, v.dynamics): v for v in verdicts}
        prox = by_key[("prop-ascent", "exact-prox")]
        assert prox.holds
        assert prox.witness["worst_slack"] >= -1e-10
        assert prox.witness["trials"] >= 100
        rescale = by_key[("cor-temp-rescale", "literal")]
        assert rescale.holds
        assert all(d < 1e-7 for d in rescale.witness["deviations"].values())

    def test_entropic_rescale_fails_with_a_measured_deviation(self, verdicts):
        by_key = {(v.claim_id, v.dynamics): v for v in verdicts}
        verdict = by_key[("cor-temp-rescale", "entropic")]
        assert not verdict.holds
        assert verdict.witness["constant_schedule_deviation"] > 1e-3

    def test_verdicts_serialize(self, verdicts):
        import json

        payload = json.dumps([v.to_jsonable() for v in verdicts])
        parsed = json.loads(payload)
        assert len(parsed) == 12
        assert all(p["claim_id"] in CLAIMS for p in parsed)

    def test_unknown_claim_id_raises(self):
        with pytest.raises(InvalidInputError):
            run_adjudication(include=["no-such-claim"])

    def test_claim_filter_limits_the_run(self):
        verdicts = run_adjudication(include=["cor-faces"])
        assert {v.claim_id for v in verdicts} == {"cor-faces"}

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 0, 1, 2])
    @pytest.mark.parametrize("claim_id", list(CLAIMS))
    def test_a_claim_run_alone_reproduces_the_full_run(self, claim_id, seed):
        # each claim draws from its own stream, so the claims run beside it
        # change none of its instances
        alone = run_adjudication(seed, include=[claim_id])
        in_full = [v for v in _full_run(seed) if v.claim_id == claim_id]
        assert [v.to_jsonable() for v in alone] == [v.to_jsonable() for v in in_full]

    def test_the_flow_claims_share_one_evidence_run(self, monkeypatch):
        calls = Counter()

        def counted(name):
            solver = getattr(replicator, name)
            return lambda *a, **k: calls.update([name]) or solver(*a, **k)

        for name in ("integrate", "integrate_rows"):
            monkeypatch.setattr(replicator, name, counted(name))
        run_adjudication(include=["prop-lyapunov", "cor-convergence"])
        # one row call per size for the 60 entropic runs, and the literal run
        # from softmax
        assert calls == {"integrate_rows": 3, "integrate": 1}

    @pytest.mark.parametrize(
        "include",
        [
            ["cor-faces"],
            ["prop-ascent", "cor-temp-rescale"],
            ["prop-lyapunov", "cor-convergence"],
            None,
        ],
    )
    def test_timings_cover_the_claims_run_and_the_shared_evidence(self, include):
        timings = {}
        verdicts = run_adjudication(include=include, timings=timings)
        ran = {v.claim_id for v in verdicts}
        flow_claims = {"prop-lyapunov", "thm-manifold-3", "cor-convergence"}
        assert set(timings) == ran | ({"flow-evidence"} if ran & flow_claims else set())
        assert all(math.isfinite(value) and value >= 0.0 for value in timings.values())

    @pytest.mark.parametrize("size", [2, 3, 8, 64])
    def test_ascent_instances_are_the_per_instance_draws(self, size):
        S, P, temperatures, etas = _ascent_instances(np.random.default_rng([7, size]), size, 25)
        rng = np.random.default_rng([7, size])
        for row in range(25):
            assert np.array_equal(S[row], random_scores(rng, size).values)
            point = random_interior_point(rng, size)
            assert np.array_equal(_simplex_rows(P[row : row + 1])[0], point.probs)
            assert temperatures[row] == float(rng.uniform(0.25, 4.0))
            assert etas[row] == float(rng.uniform(0.05, 2.0))

    def test_a_subset_is_held_to_the_matrix_rows_of_its_claims(self, verdicts):
        ascent = [v for v in verdicts if v.claim_id == "prop-ascent"]
        assert compare_to_expected(ascent) == []
        assert compare_to_expected(ascent[:1]) == [
            f"prop-ascent/{ascent[1].dynamics}: missing from this run"
        ]
        unknown = {**expected_claim_matrix(), "no-such-claim": {"literal": True}}
        assert compare_to_expected(ascent, unknown) == [
            "no-such-claim/literal: missing from this run"
        ]


@functools.cache
def _full_run(seed):
    return run_adjudication(seed)
