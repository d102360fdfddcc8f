"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line with the measured quantity and its runtime budget."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from reference import fading_memory_sup_brute
from specpred import cli, iss_certifier, sim_engine, synthesis
from specpred.iss_certifier import (
    Lemma2Problem,
    causal_lag_steps,
    fading_memory_sup,
    simulate_delay_difference,
    windowed_fading_sup,
)
from specpred.numerics import matrix_exp_norm
from specpred.sim_engine import (
    DelaySignal,
    DisturbanceSignal,
    Scenario,
    simulate,
)
from specpred.spectral_model import build_reaction_diffusion, modal_input_coeffs
from specpred.synthesis import decay_envelope, smallgain_lhs


def criterion(num: int, ok: bool, detail: str):
    line = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_modal_coefficient_oracle():
    start = time.perf_counter()
    d = build_reaction_diffusion(15.0)
    n_modes = 20
    x, Be, ABe, psi = d.lifting_sampler(n_modes, 2048)
    b_quad, _ = modal_input_coeffs(Be, ABe, psi, d.eigenvalues(n_modes), x)
    analytic = np.array([math.sqrt(2.0) * (-1.0) ** (n + 1) * n * math.pi
                         for n in range(1, n_modes + 1)])[:, np.newaxis]
    gap = float(np.max(np.abs(b_quad - analytic)))
    elapsed = time.perf_counter() - start
    criterion(1, gap <= 1e-6 and elapsed < 1.0,
              f"max |b_quad - b_analytic| = {gap:.3g} (<= 1e-6), "
              f"{elapsed:.2f}s < 1s")


def test_criterion_02_smallgain_solver(exact_cert):
    start = time.perf_counter()
    cert = exact_cert
    A_norm = float(np.linalg.norm(cert.A_cl, 2))
    lhs = smallgain_lhs(cert.delta_star, A_norm, cert.BK_norm,
                        cert.M_lambda, cert.lam)
    rel = abs(lhs - cert.lam) / cert.lam
    grid = np.linspace(0.0, 2 * cert.delta_star, 100)
    vals = smallgain_lhs(grid, A_norm, cert.BK_norm, cert.M_lambda, cert.lam)
    monotone = bool(np.all(np.diff(vals) > 0))
    elapsed = time.perf_counter() - start
    criterion(2, rel <= 1e-10 and monotone and elapsed < 1.0,
              f"|LHS - lambda|/lambda = {rel:.3g} (<= 1e-10), "
              f"monotone={monotone}, {elapsed:.2f}s < 1s")


def test_criterion_03_envelope_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        G = rng.normal(size=(n, n))
        shift = float(np.max(np.linalg.eigvals(G).real)) + rng.uniform(0.1, 2.0)
        A = G - shift * np.eye(n)
        M, lam = decay_envelope(A)
        ts = rng.uniform(0.0, 20.0, size=10_000)
        mu, V = np.linalg.eig(A)
        Vinv = np.linalg.inv(V)
        batch = np.einsum("ij,tj,jk->tik", V, np.exp(np.outer(ts, mu)), Vinv)
        norms = np.linalg.svd(batch, compute_uv=False)[:, 0]
        worst = max(worst, float(np.max(norms / (M * np.exp(-lam * ts)))))
    elapsed = time.perf_counter() - start
    criterion(3, worst <= 1.0 and elapsed < 10.0,
              f"worst ||e^At|| / (M e^-lt) = {worst:.6f} (<= 1) over 20 "
              f"matrices x 1e4 times, {elapsed:.1f}s < 10s")


def test_criterion_04_cross_engine_oracle(descriptor, exact_cert):
    start = time.perf_counter()
    scens = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=10.0)
    worst = 0.0
    for scen in scens:
        a = simulate(scen)
        b = sim_engine.oracle_simulate(scen)
        scale = float(np.max(a.norm_upper))
        gap = float(np.max(np.abs(a.coeffs - b.coeffs))) / scale
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    criterion(4, worst <= 1e-4 and elapsed < 60.0,
              f"sup relative engine gap = {worst:.3g} (<= 1e-4) over "
              f"{len(scens)} scenarios, {elapsed:.1f}s < 60s")


def test_criterion_05_disturbance_free_decay(descriptor, fitted_cert):
    start = time.perf_counter()
    cert = fitted_cert
    n_modes = sim_engine.default_mode_count(descriptor, cert.alpha)
    X0 = np.zeros(n_modes)
    X0[0] = 1.0
    scen = Scenario(
        descriptor=descriptor, certificate=cert,
        delay=DelaySignal(kind="sinusoid", D0=cert.D0,
                          amplitude=cert.delta_max, omega=3.0),
        d1=DisturbanceSignal(kind="zero", m=1),
        d2=DisturbanceSignal(kind="zero", m=1),
        X0_coeffs=X0, dt=2e-3, T_final=10.0, N_modes=n_modes)
    traj = simulate(scen)
    kappa_hat, _ = iss_certifier.fit_decay_rate(traj, cert)
    T = traj.t[-1]
    bound = math.exp(-cert.kappa * (T - cert.t0 - cert.D0 - cert.delta_max)) \
        * cert.x_constants["Cbar1"]
    ratio = traj.norm_upper[-1] / traj.norm_upper[0]
    elapsed = time.perf_counter() - start
    ok = kappa_hat >= cert.kappa and ratio <= bound and elapsed < 10.0
    criterion(5, ok,
              f"kappa_hat = {kappa_hat:.4g} >= kappa = {cert.kappa:.4g}, "
              f"||X(T)||/||X(0)|| = {ratio:.3g} <= {bound:.3g}, "
              f"{elapsed:.1f}s < 10s")


def random_admissible_scenarios(descriptor, cert, seed, n, dt=4e-3, T=8.0):
    """Mixed-channel random scenarios within the certified delay radius."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_modes = sim_engine.default_mode_count(descriptor, cert.alpha)
    m = descriptor.num_inputs
    out = []
    for i in range(n):
        delay = DelaySignal(kind="sinusoid", D0=cert.D0,
                            amplitude=float(rng.uniform(0, 1)) * cert.delta_max,
                            omega=float(rng.uniform(0.5, 4.0)),
                            phase=float(rng.uniform(0, 2 * np.pi)))
        X0 = np.zeros(n_modes)
        k = int(rng.integers(1, cert.N0 + 4))
        X0[:k] = rng.normal(size=k)
        X0 *= rng.uniform(0.2, 1.5) / max(np.linalg.norm(X0), 1e-12)
        d1 = DisturbanceSignal(kind="sinusoid", m=m,
                               amplitude=tuple(rng.uniform(0.1, 1.5, size=m)),
                               omega=float(rng.uniform(0.3, 5.0)),
                               phase=float(rng.uniform(0, 2 * np.pi)))
        d2 = DisturbanceSignal(kind="sinusoid", m=m,
                               amplitude=tuple(rng.uniform(0.1, 1.5, size=m)),
                               omega=float(rng.uniform(0.3, 5.0)),
                               phase=float(rng.uniform(0, 2 * np.pi)))
        out.append(Scenario(descriptor=descriptor, certificate=cert,
                            delay=delay, d1=d1, d2=d2, X0_coeffs=X0, dt=dt,
                            T_final=T, N_modes=n_modes))
    return out


def test_criterion_06_iss_envelopes_out_of_sample(descriptor):
    start = time.perf_counter()
    # Constants fitted on a disjoint 20-member seeded ensemble.
    cert = cli.certify_pipeline(descriptor, seed=101, n_fit=20, dt=4e-3, T=8.0)
    scens = random_admissible_scenarios(descriptor, cert, seed=202, n=10)
    worst = 0.0
    all_pass = True
    for scen in scens:
        report = iss_certifier.check_envelopes(simulate(scen))
        for chk in report.values():
            worst = max(worst, chk["worst_ratio"])
            all_pass = all_pass and chk["pass"]
    elapsed = time.perf_counter() - start
    criterion(6, all_pass and worst <= 1.0 and elapsed < 120.0,
              f"worst out-of-sample envelope ratio = {worst:.4f} (<= 1) over "
              f"10 scenarios x 4 estimates, {elapsed:.1f}s < 120s")


def test_criterion_07_d2_causal_window(fitted_cert, rng):
    cert = fitted_cert
    dt = 1e-3
    J = 2000
    ts = dt * np.arange(J + 1)
    n2 = np.abs(rng.normal(size=J + 1))
    lag = causal_lag_steps(cert.D0, cert.delta_max, dt)
    k = cert.kappa
    xb = cert.x_constants
    n1 = np.abs(rng.normal(size=J + 1))
    X0 = 1.3

    def rhs(d2_norms):
        return (xb["Cbar1"] * np.exp(-k * ts) * X0
                + xb["Cbar2"] * fading_memory_sup(n1, k, dt)
                + xb["Cbar3"] * windowed_fading_sup(d2_norms, k, dt, lag))

    base = rhs(n2)
    bitexact = True
    for j in (600, 1200, 2000):
        mod = n2.copy()
        mod[max(j - lag + 1, 1): j + 1] = 0.0  # zero d2 on (t-(D0-delta), t]
        bitexact = bitexact and (rhs(mod)[j] == base[j])
    # A pulse confined to the excluded window does not raise the bound there.
    j = 1500
    pulse = np.zeros(J + 1)
    pulse[j - lag + 1: j + 1] = 5.0
    no_rise = rhs(pulse)[j] == rhs(np.zeros(J + 1))[j]
    criterion(7, bitexact and no_rise,
              f"window-zeroing bit-exact = {bitexact}, confined pulse inert = "
              f"{no_rise} (lag = {lag} steps)")


def test_criterion_08_artstein_consistency(descriptor, exact_cert):
    start = time.perf_counter()
    ratios = []
    for idx in (0, 3, 4):
        rms = {}
        for dt in (2e-3, 1e-3):
            scen = cli.builtin_scenarios(descriptor, exact_cert, dt=dt,
                                         T=3.0)[idx]
            traj = simulate(scen)
            _, res = sim_engine.artstein_residual(traj)
            rms[dt] = float(np.sqrt(np.mean(res**2)))
        ratios.append(rms[2e-3] / rms[1e-3])
    elapsed = time.perf_counter() - start
    ok = all(3.5 <= r <= 4.5 for r in ratios) and elapsed < 30.0
    criterion(8, ok,
              f"residual reduction ratios = {[round(r, 2) for r in ratios]} "
              f"(all in [3.5, 4.5]), {elapsed:.1f}s < 30s")


def test_criterion_09_lemma2_validator():
    start = time.perf_counter()
    M_lambda, lam, a, c_norm, r, eps = 1.0, 1.0, -1.0, 2.0, 0.5, 0.05
    sigma, _ = synthesis.sigma_rate(M_lambda, lam, abs(a), c_norm, r, eps)
    problems = cli.lemma2_suite(seed=31, n_members=50, a=a, c_norm=c_norm,
                                r=r, eps=eps)
    report = iss_certifier.lemma2_validate(problems, sigma, M_lambda, lam)
    finite = report["finite"] and np.isfinite(report["M"]) \
        and np.isfinite(report["N"])
    # Falsification direction: past the small-gain threshold a resonant
    # member outgrows any fixed decaying envelope (growth compounds with T).
    bad = Lemma2Problem(
        A=np.array([[a]]), C=np.array([[10.0]]), r=r, eps=0.35,
        d=lambda t: math.sin(6.0 * t), q=lambda t: math.sin(6.0 * t + 0.5),
        p=lambda t: np.zeros(1), x0=lambda t: np.array([1.0]))
    assert not bad.smallgain_ok(M_lambda, lam)
    _, x_short = simulate_delay_difference(bad, 4e-3, 12.0)
    _, x_long = simulate_delay_difference(bad, 4e-3, 24.0)
    growth = float(np.max(np.abs(x_long)) / np.max(np.abs(x_short)))
    elapsed = time.perf_counter() - start
    ok = finite and growth > 10.0 and elapsed < 60.0
    criterion(9, ok,
              f"fitted (M, N) = ({report['M']:.3g}, {report['N']:.3g}) finite "
              f"at sigma = {sigma:.3g}; past-threshold growth x{growth:.0f} "
              f"over doubled horizon, {elapsed:.1f}s < 60s")


def test_criterion_10_tail_truncation(descriptor, exact_cert):
    scens = cli.builtin_scenarios(descriptor, exact_cert, dt=2e-3, T=6.0)
    worst = 0.0
    for scen in scens:
        a = simulate(scen)
        b = simulate(replace(scen, N_modes=2 * scen.N_modes))
        sa = float(np.max(a.norm_upper))
        sb = float(np.max(b.norm_upper))
        worst = max(worst, abs(sb - sa) / sa)
    criterion(10, worst < 0.01,
              f"max relative change of sup ||X||_upper on doubling N_modes = "
              f"{worst:.4f} (< 0.01)")


def test_criterion_11_fading_memory_bit_exact():
    rng = np.random.default_rng(77)
    norms = np.abs(rng.normal(size=1000))
    fast = fading_memory_sup(norms, kappa=1.3, dt=0.01)
    slow = fading_memory_sup_brute(norms, kappa=1.3, dt=0.01)
    exact = bool(np.array_equal(fast, slow))
    criterion(11, exact,
              f"recursion == brute force bit-exact on 1e3 points: {exact}")


def test_criterion_12_sweep_determinism(tmp_path, descriptor, fitted_cert):
    cert_path = tmp_path / "cert.json"
    synthesis.save_certificate(fitted_cert, cert_path)
    scen = cli.builtin_scenarios(descriptor, fitted_cert, dt=5e-3, T=3.0)[0]
    scen_path = tmp_path / "scen.json"
    sim_engine.save_scenario(scen, scen_path)
    outputs = []
    for jobs in (1, 8):
        out = tmp_path / f"sweep_{jobs}.csv"
        rc = cli.main(["sweep", "--certificate", str(cert_path),
                       "--scenario", str(scen_path), "--out", str(out),
                       "--jobs", str(jobs), "--seed", "9",
                       "--sweep", "d2_amplitude=0.0:0.8:4"])
        assert rc == 0
        outputs.append(out.read_text())
    identical = outputs[0] == outputs[1]
    criterion(12, identical,
              f"sweep output identical at jobs 1 and 8: {identical}")
