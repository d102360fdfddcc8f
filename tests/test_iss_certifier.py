import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (fading_memory_sup_brute, reference_check_ratios,
                       reference_fit, reference_windowed_fading_sup)
from specpred import cli, iss_certifier
from specpred.iss_certifier import (
    ENVELOPES,
    CertifierError,
    Lemma2Problem,
    causal_lag_steps,
    check_envelopes,
    fading_memory_sup,
    fit_constants,
    fit_decay_rate,
    lemma2_validate,
    simulate_delay_difference,
    windowed_fading_sup,
)
from specpred.sim_engine import (
    DelaySignal,
    DisturbanceSignal,
    Scenario,
    Trajectory,
    oracle_simulate,
    simulate,
    trajectory_from_csv,
    trajectory_to_csv,
)
from test_sim_engine import complex_plant_scenario


def test_fading_memory_recursion_equals_brute(rng):
    norms = np.abs(rng.normal(size=200))
    fast = fading_memory_sup(norms, kappa=0.8, dt=0.01)
    slow = fading_memory_sup_brute(norms, kappa=0.8, dt=0.01)
    assert np.array_equal(fast, slow)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf, math.nan])
                | st.floats(0.0, 1e3), min_size=1, max_size=60),
       st.floats(0.01, 5.0), st.sampled_from([1e-3, 0.05, 0.1]))
def test_fading_memory_recursion_equals_brute_bit_for_bit(norms, kappa, dt):
    # Zeros, ties, inf and NaN (which stays from its sample on, as in the
    # brute-force maximum), down to one sample.
    fast = fading_memory_sup(norms, kappa, dt)
    slow = fading_memory_sup_brute(norms, kappa, dt)
    assert fast.shape == slow.shape
    assert np.array_equal(fast.view(np.int64), slow.view(np.int64))


_SAMPLES = (st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf, math.nan])
            | st.floats(0.0, 1e3))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 60), st.integers(1, 5),
       st.sampled_from([1e-3, 0.05, 0.1]))
def test_stacked_fading_sup_equals_each_row_bit_for_bit(data, n, rows, dt):
    # A stack of rows, each with its own kappa: every row is its own 1-D
    # sup and the brute-force maximum, with zeros, ties, inf and NaN.
    norms = np.array(data.draw(st.lists(
        st.lists(_SAMPLES, min_size=n, max_size=n),
        min_size=rows, max_size=rows)))
    kappas = np.array(data.draw(st.lists(st.floats(0.01, 5.0),
                                         min_size=rows, max_size=rows)))
    got = fading_memory_sup(norms, kappas, dt)
    assert got.shape == norms.shape
    deeper = fading_memory_sup(norms[np.newaxis], kappas[np.newaxis], dt)
    assert np.array_equal(deeper[0].view(np.int64), got.view(np.int64))
    for row, kappa, s in zip(norms, kappas.tolist(), got):
        for want in (fading_memory_sup(row, kappa, dt),
                     fading_memory_sup_brute(row, kappa, dt)):
            assert np.array_equal(s.view(np.int64), want.view(np.int64))


def test_fading_memory_monotone_decay_between_events():
    norms = np.zeros(50)
    norms[0] = 3.0
    s = fading_memory_sup(norms, kappa=1.0, dt=0.1)
    assert np.all(np.diff(s) < 0)
    assert s[10] == pytest.approx(3.0 * math.exp(-1.0))


def test_fading_memory_rejects_bad_kappa():
    with pytest.raises(ValueError):
        fading_memory_sup([1.0, 2.0], kappa=0.0, dt=0.1)
    with pytest.raises(ValueError):
        fading_memory_sup(np.ones((2, 3)), kappa=[1.0, 0.0], dt=0.1)


def test_causal_lag_steps():
    assert causal_lag_steps(0.5, 0.004, 1e-3) == 496
    assert causal_lag_steps(0.5, 0.0, 1e-3) == 500
    assert causal_lag_steps(0.5, 0.1, 0.1) == 4


def test_windowed_sup_ignores_recent_samples(rng):
    norms = np.abs(rng.normal(size=300))
    kappa, dt, lag = 0.7, 0.01, 40
    w = windowed_fading_sup(norms, kappa, dt, lag)
    # Zeroing samples inside the excluded window leaves w[j] unchanged.
    for j in (50, 120, 299):
        mod = norms.copy()
        mod[max(j - lag + 1, 1): j + 1] = 0.0
        w2 = windowed_fading_sup(mod, kappa, dt, lag)
        assert w2[j] == w[j]
    # Before the window opens only the initial sample contributes.
    assert w[10] == math.exp(-kappa * dt * 10) * norms[0]


def test_windowed_sup_matches_direct_maximum(rng):
    norms = np.abs(rng.normal(size=120))
    kappa, dt, lag = 0.9, 0.02, 15
    w = windowed_fading_sup(norms, kappa, dt, lag)
    for j in range(lag + 1, 120):
        direct = max(math.exp(-kappa * dt * (j - i)) * norms[i]
                     for i in range(0, j - lag + 1))
        assert w[j] == pytest.approx(direct, rel=1e-12)


def test_windowed_sup_matches_the_per_sample_reference(rng):
    # Lags 0 (no window), inside the run and past its end.
    for lag in (0, 1, 37, 400, 700):
        norms = np.abs(rng.normal(size=600)) * rng.uniform(0.1, 10.0)
        kappa, dt = rng.uniform(0.05, 3.0), 2e-3
        got = windowed_fading_sup(norms, kappa, dt, lag)
        want = reference_windowed_fading_sup(norms, kappa, dt, lag)
        assert np.all(np.abs(got - want) <= 1e-15 * want), lag


def test_each_fading_sup_is_built_once(monkeypatch, descriptor, fitted_cert):
    calls, rows = [], []

    def counted(norms, kappa, dt):
        # One (series, rate) row per series of the stack.
        calls.append(kappa)
        rows.extend(np.broadcast_to(kappa, np.shape(norms)[:-1]).ravel())
        return fading_memory_sup(norms, kappa, dt)

    monkeypatch.setattr(iss_certifier, "fading_memory_sup", counted)
    scen = cli.builtin_scenarios(descriptor, fitted_cert, dt=5e-3, T=1.0)[4]
    check_envelopes(simulate(scen))
    # |d1| and |d2| at kappa and sigma; the causal windows reuse the d2 sups.
    assert len(rows) == 4 and len(calls) == 1
    calls.clear()
    rows.clear()
    trajs = simulate(cli.fitting_ensemble(descriptor, replace(fitted_cert),
                                          seed=3, n_members=6, dt=5e-3,
                                          T=1.0))
    fit_constants(trajs, replace(fitted_cert))
    # A d1 or d2 member needs its signal's sups at kappa and sigma only, and
    # the members share one grid.
    disturbed = sum(iss_certifier._channel_of(t.scenario) != "x0"
                    for t in trajs)
    assert len(rows) == 2 * disturbed and len(calls) == 1


def test_x0_shape_is_the_first_upper_norm_bit_for_bit(tmp_path, descriptor,
                                                     exact_cert):
    # The X0 term reads the scenario's X0_coeffs, zero-padded: the same
    # reduction as row 0 of a run's norm_upper.  The last built-in-plant
    # scenario has six nonzero entries of 12, where the padding counts.
    scens = cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3, T=1.0)
    scens.append(replace(scens[0], X0_coeffs=np.random.default_rng(3)
                         .standard_normal(6)))
    runs = [*simulate(scens), *map(oracle_simulate, scens),
            simulate(complex_plant_scenario())]
    for i, traj in enumerate(simulate(scens)):
        trajectory_to_csv(traj, tmp_path / f"{i}.csv")
        runs.append(trajectory_from_csv(tmp_path / f"{i}.csv"))
        runs[-1].scenario = scens[i]
    for traj in runs:
        cert = traj.scenario.certificate
        shape = iss_certifier._shapes([traj], cert)
        for suffix, rate in (("k", cert.kappa), ("s", cert.sigma)):
            want = np.exp(-rate * traj.t) * traj.norm_upper[0]
            assert np.array_equal(shape(0, f"X0_{suffix}").view(np.uint64),
                                  want.view(np.uint64))


def test_check_envelopes_requires_fitted_constants(descriptor, exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3, T=1.0)[0]
    traj = simulate(scen)
    with pytest.raises(CertifierError):
        check_envelopes(traj)


def test_check_envelopes_vacuous_on_zero_run(descriptor, fitted_cert):
    zero = DisturbanceSignal(kind="zero", m=1)
    scen = Scenario(descriptor=descriptor, certificate=fitted_cert,
                    delay=DelaySignal(kind="constant", D0=fitted_cert.D0),
                    d1=zero, d2=zero, X0_coeffs=np.zeros(4), dt=5e-3,
                    T_final=1.0, N_modes=4)
    traj = simulate(scen)
    report = check_envelopes(traj)
    assert all(c["pass"] for c in report.values())
    assert all(c["vacuous"] for c in report.values())


def test_check_envelopes_in_sample(descriptor, fitted_cert):
    scens = cli.fitting_ensemble(descriptor, fitted_cert, seed=7,
                                 n_members=12, dt=4e-3, T=6.0)
    report = check_envelopes(simulate(scens[0]))
    assert all(c["pass"] for c in report.values())
    assert set(report) == {"state", "control", "head_state",
                           "transformed_state"}
    assert all("worst_ratio" in v for v in report.values())


def test_fit_info_recorded(fitted_cert):
    info = fitted_cert.fit_info
    assert info["ensemble_size"] == 12
    assert sum(info["channels"].values()) == 12
    assert min(info["channels"].values()) >= 1
    assert info["inflation"] == pytest.approx(1.1)
    for bank in (fitted_cert.u_constants, fitted_cert.y_constants,
                 fitted_cert.z_constants, fitted_cert.x_constants):
        assert all(v > 0 for v in bank.values())


def test_check_ratios_match_explicit_bounds(descriptor, fitted_cert):
    # The table's right-hand sides multiply each constant by a prebuilt
    # shape, so the worst ratios may move by rounding only.
    for traj in simulate(cli.builtin_scenarios(descriptor, fitted_cert)):
        want = reference_check_ratios(traj, fitted_cert)
        got = check_envelopes(traj)
        for name, ratio in want.items():
            assert got[name]["worst_ratio"] == pytest.approx(ratio, rel=1e-15,
                                                          abs=0.0)


def test_fit_constants_equals_reference_fit(descriptor, exact_cert):
    cert = replace(exact_cert)
    trajs = simulate(cli.fitting_ensemble(descriptor, cert, seed=3,
                                          n_members=6, dt=4e-3, T=4.0))
    fit_constants(trajs, cert)
    for bank, want in reference_fit(trajs, cert).items():
        assert getattr(cert, bank) == want


def test_fit_constants_refuses_runs_on_two_grids(descriptor, exact_cert):
    cert = replace(exact_cert)
    scens = cli.fitting_ensemble(descriptor, cert, seed=3, n_members=6,
                                 dt=5e-3, T=1.0)
    trajs = [*simulate(scens[:-1]), simulate(replace(scens[-1], T_final=1.5))]
    with pytest.raises(CertifierError, match="one time grid"):
        fit_constants(trajs, cert)


def test_envelope_table_matches_certificate_provenance(exact_cert):
    prov = exact_cert.provenance
    table = {key for _, terms in ENVELOPES.values() for key, _ in terms}
    assert table <= set(prov)
    assert {key for key, kind in prov.items() if kind == "fitted"} <= table


def synthetic_decay_trajectory(cert, rate, T=10.0, dt=1e-2):
    ts = np.arange(0.0, T + dt / 2, dt)
    norm = np.exp(-rate * ts)
    n = len(ts)
    return Trajectory(
        t=ts, coeffs=norm[:, np.newaxis], u=np.zeros((n, 1)),
        v=np.zeros((n, 1)), Z=norm[:, np.newaxis],
        norm_lower=norm, norm_upper=norm, scenario=None,
    )


def test_fit_decay_rate_recovers_synthetic_rate(exact_cert):
    traj = synthetic_decay_trajectory(exact_cert, rate=2.0)
    kappa_hat, truncated = fit_decay_rate(traj, exact_cert)
    assert kappa_hat == pytest.approx(2.0, rel=1e-9)
    assert not truncated


def test_fit_decay_rate_rejects_disturbed_runs(descriptor, exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3, T=2.0)[2]
    traj = simulate(scen)
    with pytest.raises(CertifierError):
        fit_decay_rate(traj, exact_cert)


# ---------------------------------------------------------------------------
# Delay-difference lemma machinery

def test_delay_difference_reduces_to_ode_when_C_zero():
    prob = Lemma2Problem(
        A=np.array([[-1.0]]), C=np.array([[0.0]]), r=0.5, eps=0.05,
        d=lambda t: math.sin(t), q=lambda t: 1.0,
        p=lambda t: np.array([0.7]), x0=lambda t: np.array([2.0]))
    ts, xs = simulate_delay_difference(prob, 5e-3, 4.0)
    want = np.exp(-ts) * 2.0 + 0.7 * (1.0 - np.exp(-ts))
    assert np.max(np.abs(xs[:, 0] - want)) < 1e-8


def test_smallgain_ok_threshold():
    prob = Lemma2Problem(
        A=np.array([[-1.0]]), C=np.array([[2.0]]), r=0.5, eps=0.05,
        d=lambda t: 0.0, q=lambda t: 0.0, p=lambda t: np.zeros(1),
        x0=lambda t: np.zeros(1))
    assert prob.smallgain_ok(1.0, 1.0)
    big = Lemma2Problem(
        A=np.array([[-1.0]]), C=np.array([[10.0]]), r=0.5, eps=0.35,
        d=lambda t: 0.0, q=lambda t: 0.0, p=lambda t: np.zeros(1),
        x0=lambda t: np.zeros(1))
    assert not big.smallgain_ok(1.0, 1.0)


def test_lemma2_validate_small_ensemble():
    probs = cli.lemma2_suite(seed=11, n_members=6)
    report = lemma2_validate(probs, sigma=0.5, M_lambda=1.0, lam=1.0, T=8.0)
    assert report["finite"]
    assert report["M"] >= 1.0
    assert report["N"] > 0.0
    channels = {m["channel"] for m in report["members"]}
    assert channels == {"x0", "p"}


def test_lemma2_validate_enforces_precondition():
    bad = Lemma2Problem(
        A=np.array([[-1.0]]), C=np.array([[10.0]]), r=0.5, eps=0.35,
        d=lambda t: 0.0, q=lambda t: 0.0, p=lambda t: np.zeros(1),
        x0=lambda t: np.array([1.0]))
    with pytest.raises(CertifierError):
        lemma2_validate([bad], sigma=0.5, M_lambda=1.0, lam=1.0, T=1.0)
    # The violating member itself still integrates to a finite trajectory.
    _, xs = simulate_delay_difference(bad, 5e-3, 1.0)
    assert np.all(np.isfinite(xs))
