"""Acceptance gate: ten criteria, each at its stated tolerance and budget.

Every test prints one `ACCEPTANCE <n> <name>: PASS (...)` line, so running
`pytest -s tests/test_acceptance.py` doubles as the sign-off checklist.
Random instances use fixed seeds; tolerances are pinned here, not imported.
"""

import time
from contextlib import contextmanager

import numpy as np

from simplexflow import (
    ConstantSchedule,
    ExponentialSchedule,
    FieldKind,
    IntegratorControls,
    MirrorStepKind,
    PiecewiseConstantSchedule,
    ScoreVector,
    SimplexPoint,
    ascent_certificate,
    build_face_topk,
    check_time_reparameterization,
    embed_in_face,
    euler_consistency,
    free_energy,
    generalized_free_energy,
    integrate,
    integrate_path,
    iterate,
    kl_divergence,
    lockin_probe,
    log_partition,
    lyapunov_report,
    printed_mw_step,
    restrict_to_face,
    softmax,
    softmax_jacobian,
)
from simplexflow.oracles import (
    closed_form_literal,
    compare_to_expected,
    fd_gradient,
    fd_jacobian,
    matrix_from_verdicts,
    run_adjudication,
)
from simplexflow.path_fields import (
    constant_field,
    detect_recurrence,
    find_multibasin_coupling,
    find_recurrent_beta,
)


@contextmanager
def gate(number, name, budget_s):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s / budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def gapped_scores(rng, size, min_gap=0.2):
    values = np.sort(rng.uniform(-3.0, 3.0, size))
    values[-1] = values[-2] + max(min_gap, values[-1] - values[-2])
    return ScoreVector(rng.permutation(values))


def test_criterion_1_duality_and_gradient_suite():
    rng = np.random.default_rng(101)
    with gate(1, "duality and gradient suite", 10.0):
        for i in range(1000):
            size = (2, 8, 64)[i % 3]
            s = ScoreVector(rng.uniform(-3, 3, size))
            t = float(rng.uniform(0.25, 4.0))
            gap = abs(free_energy(softmax(s, t), s, t).value - log_partition(s, t))
            assert gap <= 1e-10
            grad = fd_gradient(lambda v: log_partition(ScoreVector(v), t), s.values)
            assert np.max(np.abs(grad - softmax(s, t).probs)) < 1e-6
            jac = softmax_jacobian(s, t)
            fd = fd_jacobian(lambda v: softmax(ScoreVector(v), t).probs, s.values)
            assert np.max(np.abs(fd - jac)) / np.max(np.abs(jac)) < 1e-5


def test_criterion_2_exact_prox_convergence():
    rng = np.random.default_rng(102)
    with gate(2, "exact-prox convergence", 60.0):
        for size in (2, 8, 64, 1000):
            for temp in (0.25, 1.0, 4.0):
                for eta in (0.1, 1.0):
                    s = ScoreVector(rng.uniform(-3, 3, size))
                    p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
                    record = iterate(
                        MirrorStepKind.EXACT_PROX, p0, s, temp, eta,
                        max_steps=10_000, kl_tol=1e-15,
                    )
                    assert record.accepted_steps <= 10_000
                    assert kl_divergence(record.terminal.p, softmax(s, temp)) < 1e-10
                    assert all(c.slack >= -1e-10 for c in record.certificates)


def test_criterion_3_printed_mw_adjudication():
    rng = np.random.default_rng(103)
    with gate(3, "printed-mw adjudication", 10.0):
        # telescoping: t steps equal one step with t * eta
        for _ in range(200):
            size = int(rng.integers(2, 17))
            s = ScoreVector(rng.uniform(-3, 3, size))
            p = SimplexPoint(rng.dirichlet(np.ones(size)))
            eta = float(rng.uniform(0.05, 1.0))
            stepped = p
            for _ in range(4):
                stepped = printed_mw_step(stepped, s, 1.0, eta)
            direct = printed_mw_step(p, s, 1.0, 4.0 * eta)
            assert np.max(np.abs(stepped.probs - direct.probs)) <= 1e-12
        # mass concentrates on the argmax set; the per-step KL move only
        # collapses once the iterate has saturated numerically, so a 1e-16
        # stop triggers well past the 1 - 1e-8 target
        for _ in range(20):
            size = int(rng.integers(2, 17))
            s = gapped_scores(rng, size)
            record = iterate(
                MirrorStepKind.PRINTED_MW,
                SimplexPoint.uniform(size),
                s, 1.0, 0.5, max_steps=10_000, kl_tol=1e-16,
            )
            top = int(np.argmax(s.values))
            assert record.terminal.p.probs[top] > 1.0 - 1e-8
        # started at softmax, the first step strictly loses free energy
        s = ScoreVector([1.0, 0.0])
        cert = ascent_certificate(MirrorStepKind.PRINTED_MW, softmax(s, 1.0), s, 1.0, 0.5)
        assert cert.f_after < cert.f_before


def test_criterion_4_integrator_matches_closed_form():
    rng = np.random.default_rng(104)
    with gate(4, "literal integrator vs closed form", 30.0):
        for size in (2, 64, 1000):
            s = ScoreVector(rng.uniform(-3, 3, size))
            p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
            grid = tuple(np.linspace(0.0, 20.0, 21))
            traj = integrate(
                FieldKind.LITERAL, p0, s, 1.0, 20.0,
                IntegratorControls(sample_times=grid, convergence_kl=0.0),
            )
            assert len(traj.samples) == len(grid)
            for sample in traj.samples:
                exact = closed_form_literal(p0, s, 1.0, sample.t)
                mask = exact.probs > 0
                rel = np.max(np.abs(sample.p.probs[mask] / exact.probs[mask] - 1.0))
                assert rel < 1e-6


def test_criterion_5_entropic_convergence_and_lyapunov():
    rng = np.random.default_rng(105)
    with gate(5, "entropic convergence and Lyapunov ascent", 60.0):
        controls = IntegratorControls(n_samples=60)
        for i in range(500):
            size = int(rng.choice((2, 3, 8, 16)))
            temp = (0.25, 1.0, 4.0)[i % 3]
            s = ScoreVector(rng.uniform(-3, 3, size))
            p0 = SimplexPoint(rng.dirichlet(np.ones(size)))
            traj = integrate(FieldKind.ENTROPIC, p0, s, temp, 1e3, controls)
            assert kl_divergence(traj.terminal.p, softmax(s, temp)) < 1e-8
            report = lyapunov_report(traj, s, temp, slack=1e-9)
            assert report.monotone


def test_criterion_6_temperature_as_time():
    rng = np.random.default_rng(106)
    with gate(6, "temperature schedules reparameterize time", 30.0):
        controls = IntegratorControls(step_tol=1.01e-10)
        for schedule in (
            ConstantSchedule(0.5),
            ConstantSchedule(2.0),
            PiecewiseConstantSchedule((1.0, 2.5), (1.0, 0.5, 2.0)),
            ExponentialSchedule(1.0, 0.4),
            ExponentialSchedule(2.0, -0.3),
        ):
            s = ScoreVector(rng.uniform(-3, 3, 4))
            p0 = SimplexPoint(rng.dirichlet(np.ones(4)))
            deviation = check_time_reparameterization(s, p0, schedule, 5.0, controls=controls)
            assert deviation < 1e-7


def test_criterion_7_face_invariance():
    rng = np.random.default_rng(107)
    with gate(7, "face invariance and restriction", 10.0):
        # coordinates that start at exactly zero stay exactly zero
        p0 = SimplexPoint([0.4, 0.0, 0.35, 0.25, 0.0])
        s = ScoreVector(rng.uniform(-3, 3, 5))
        traj = integrate(
            FieldKind.LITERAL, p0, s, 1.0, 1e3,
            IntegratorControls(convergence_kl=0.0, n_samples=100),
        )
        assert traj.terminal.t == 1e3
        for sample in traj.samples:
            assert sample.p.probs[1] == 0.0 and sample.p.probs[4] == 0.0
        # face-restricted run matches the lower-dimensional system
        for _ in range(5):
            s = ScoreVector(rng.uniform(-3, 3, 6))
            mask = build_face_topk(s, 3)
            p_face = SimplexPoint(rng.dirichlet(np.ones(3)))
            p_full = embed_in_face(mask, p_face)
            s_face, _ = restrict_to_face(s, p_full, mask)
            grid = tuple(np.linspace(0.0, 15.0, 16))
            controls = IntegratorControls(sample_times=grid, convergence_kl=0.0)
            full = integrate(FieldKind.LITERAL, p_full, s, 1.0, 15.0, controls)
            restricted = integrate(FieldKind.LITERAL, p_face, s_face, 1.0, 15.0, controls)
            for a, b in zip(full.samples, restricted.samples):
                assert np.max(np.abs(a.p.probs[mask.support] - b.p.probs)) < 1e-8


def test_criterion_8_euler_consistency():
    rng = np.random.default_rng(108)
    with gate(8, "multiplicative step consistency order", 10.0):
        for _ in range(100):
            size = int(rng.integers(2, 17))
            s = ScoreVector(rng.uniform(-3, 3, size))
            p = SimplexPoint(rng.dirichlet(np.ones(size)))
            t = float(rng.uniform(0.25, 4.0))
            report = euler_consistency(p, s, t, (1e-2, 1e-3, 1e-4), FieldKind.LITERAL)
            assert report.order >= 0.9


def test_criterion_9_path_dependence_witnesses():
    rng = np.random.default_rng(109)
    with gate(9, "path-dependence witnesses", 120.0):
        # (a) rotational coupling: detector-confirmed recurrence at some beta
        beta, reports = find_recurrent_beta(betas=(0.5, 1.0, 2.0, 4.0, 8.0))
        assert beta is not None
        assert reports[beta].recurrent
        assert reports[beta].return_distance <= 1e-3
        # (b) converging constant-score run is not recurrent
        s0 = rng.uniform(-3, 3, 3)
        p0 = SimplexPoint(rng.dirichlet(np.ones(3)))
        traj = integrate_path(
            constant_field(s0), FieldKind.ENTROPIC, p0, 1.0, 60.0,
            IntegratorControls(n_samples=2000, uniform_samples=True, convergence_kl=0.0),
        )
        assert not detect_recurrence(traj).recurrent
        # (c) brute-force symmetric instance with at least two terminal basins
        field, maxima = find_multibasin_coupling()
        assert field is not None and len(maxima) >= 2
        starts = [SimplexPoint(rng.dirichlet(np.ones(3))) for _ in range(50)]
        probe = lockin_probe(field, FieldKind.ENTROPIC, starts, 0.5, horizon=300.0)
        assert len(probe.clusters) >= 2
        # (d) generalized free energy ascends under the entropic flow
        for _ in range(10):
            start = SimplexPoint(rng.dirichlet(np.ones(3)))
            run = integrate_path(
                field, FieldKind.ENTROPIC, start, 0.5, 200.0,
                IntegratorControls(n_samples=80),
            )
            values = [generalized_free_energy(field, s_.p, 0.5) for s_ in run.samples]
            assert np.all(np.diff(values) >= -1e-9)


def test_criterion_10_adjudication_matrix(tmp_path, monkeypatch):
    import json

    from simplexflow.cli import EXIT_OK, main

    with gate(10, "claim adjudication matrix", 120.0):
        verdicts = run_adjudication()
        assert compare_to_expected(verdicts) == []
        matrix = matrix_from_verdicts(verdicts)
        assert matrix["thm-manifold-3"]["literal"] is False
        assert matrix["thm-manifold-3"]["entropic"] is True
        assert matrix["prop-ascent"]["printed-mw"] is False
        assert matrix["prop-ascent"]["exact-prox"] is True
        by_key = {(v.claim_id, v.dynamics): v for v in verdicts}
        mw = by_key[("prop-ascent", "printed-mw")]
        assert mw.witness["f_after"] < mw.witness["f_before"]
        literal = by_key[("thm-manifold-3", "literal")]
        assert literal.witness["field_norm_at_softmax"] > 0.0
        # the CLI entry point reproduces the committed matrix and exits clean
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--output", "claims.json"]) == EXIT_OK
        report = json.loads((tmp_path / "claims.json").read_text())
        assert report["matrix"] == matrix
        assert report["mismatches"] == []
