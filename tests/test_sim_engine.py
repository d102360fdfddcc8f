import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from reference import (StepHistory, _CubicHistory, control_step,
                       predictor_integral, reference_artstein_residual,
                       reference_oracle_simulate)
from specpred import cli
from specpred.numerics import exp_moments
from specpred.sim_engine import (
    BLOCK_STEPS,
    ORACLE_REFINE,
    DelaySignal,
    DisturbanceSignal,
    Scenario,
    ScenarioError,
    artstein_residual,
    artstein_transform,
    compose_rk4_substeps,
    default_mode_count,
    load_scenario,
    make_delay,
    make_disturbance,
    oracle_simulate,
    rk4_substep,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
    state_norm,
    trajectory_from_csv,
    trajectory_to_csv,
)
from specpred.spectral_model import (SystemDescriptor, TruncatedModel,
                                     build_reaction_diffusion,
                                     descriptor_from_dict)
from specpred.synthesis import save_certificate, synthesize_certificate


# ---------------------------------------------------------------------------
# Signals

def test_delay_signal_kinds():
    const = DelaySignal(kind="constant", D0=0.5)
    assert const(3.0) == 0.5
    assert const.max_amplitude() == 0.0
    sin = DelaySignal(kind="sinusoid", D0=0.5, amplitude=0.02, omega=2.0)
    ts = np.linspace(0, 10, 101)
    vals = sin(ts)
    assert np.all(np.abs(vals - 0.5) <= 0.02 + 1e-15)
    assert sin.max_amplitude() == 0.02
    tab = DelaySignal(kind="table", D0=0.5,
                      times=(0.0, 1.0, 2.0), values=(0.5, 0.52, 0.49))
    assert tab(1.0) == pytest.approx(0.52)
    assert tab.max_amplitude() == pytest.approx(0.02)


def test_table_delay_holds_its_end_values():
    tab = DelaySignal(kind="table", D0=0.5,
                      times=(0.0, 1.0, 2.0), values=(0.5, 0.501, 0.502))
    ts = np.linspace(0.0, 10.0, 10001)
    assert np.all(np.abs(tab(ts) - 0.5) <= tab.max_amplitude())
    assert tab(10.0) == 0.502


def test_table_delay_builds_one_interpolator(monkeypatch):
    import scipy.interpolate

    knots = ((0.0, 1.0, 2.0), (0.5, 0.52, 0.49))
    ts = np.linspace(-1.0, 3.0, 41)
    want = scipy.interpolate.PchipInterpolator(*map(np.asarray, knots))(
        np.clip(ts, 0.0, 2.0))
    built = []

    class Counting(scipy.interpolate.PchipInterpolator):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(scipy.interpolate, "PchipInterpolator", Counting)
    tab = DelaySignal(kind="table", D0=0.5, times=knots[0], values=knots[1])
    got = [tab(t) for t in ts]
    assert np.array_equal(tab(ts), want) and np.array_equal(got, want)
    assert len(built) == 1


def test_scenario_refuses_a_delay_that_reaches_zero(descriptor, exact_cert):
    # Uncertified, so the certified band does not refuse them first.
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3, T=1.0)[0]
    for delay in (make_delay({"kind": "sinusoid", "D0": 0.1, "amplitude": 0.2,
                              "omega": 1.0}),
                  DelaySignal(kind="table", D0=0.1,
                              times=(0.0, 1.0), values=(0.1, 0.0))):
        with pytest.raises(ScenarioError, match="minimum delay"):
            replace(scen, delay=delay, certified=False)


def test_a_certified_scenario_runs_its_certificates_plant(descriptor,
                                                         exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3, T=1.0)[4]
    # The c = 25 plant under the c = 15 certificate diverges: refused while
    # certified, run when not.
    hotter = build_reaction_diffusion(25.0)
    with pytest.raises(ScenarioError, match=r"plant head eigenvalues .*; set "
                       r"certified=False for an uncertified run$"):
        replace(scen, descriptor=hotter)
    assert not replace(scen, descriptor=hotter, certified=False).certified

    # An explicit plant with the certificate's head: its input matrix.
    def explicit(b):
        return descriptor_from_dict({
            "kind": "explicit", "m": 1, "riesz_lower": 1.0, "riesz_upper": 1.0,
            "explicit_eigenvalues": exact_cert.lambdas.tolist() + [-50.0],
            "explicit_b": [[b], [1.0]]})
    head = replace(scen, N_modes=2, X0_coeffs=scen.X0_coeffs[:2],
                   descriptor=explicit(exact_cert.B[0, 0]))
    with pytest.raises(ScenarioError, match="plant head input matrix"):
        replace(head, descriptor=explicit(1.01 * exact_cert.B[0, 0]))


def test_disturbance_kinds():
    zero = DisturbanceSignal(kind="zero", m=2)
    assert zero(np.array([0.0, 1.0])).shape == (2, 2)
    assert np.all(zero(1.0) == 0.0)
    sin = make_disturbance({"kind": "sinusoid", "amplitude": [1.0, 0.5],
                            "omega": 2.0}, m=2)
    v = sin(np.pi / 4)
    assert v == pytest.approx([1.0, 0.5])
    step = make_disturbance({"kind": "smoothed_step", "amplitude": 2.0,
                             "t_on": 1.0, "ramp": 0.5}, m=1)
    assert step(0.5)[0] == 0.0
    assert step(2.0)[0] == pytest.approx(2.0)
    assert 0.0 < step(1.25)[0] < 2.0
    with pytest.raises(ScenarioError, match="unknown disturbance kind 'sine'"):
        DisturbanceSignal(kind="sine")


# ---------------------------------------------------------------------------
# Scenario validation

def test_scenario_guards(descriptor, exact_cert):
    zero = DisturbanceSignal(kind="zero", m=1)
    const = DelaySignal(kind="constant", D0=exact_cert.D0)

    def scen(**kw):
        args = dict(descriptor=descriptor, certificate=exact_cert, delay=const,
                    d1=zero, d2=zero, X0_coeffs=np.zeros(4), dt=1e-3,
                    T_final=1.0, N_modes=4)
        args.update(kw)
        return Scenario(**args)

    scen()  # valid
    with pytest.raises(ScenarioError):
        scen(N_modes=0)
    with pytest.raises(ScenarioError):
        scen(dt=exact_cert.D0 * 1.5)
    wide = DelaySignal(kind="sinusoid", D0=exact_cert.D0,
                       amplitude=2 * exact_cert.delta_max, omega=1.0)
    with pytest.raises(ScenarioError):
        scen(delay=wide)
    scen(delay=wide, certified=False)  # allowed when flagged


def test_default_mode_count_flagship(descriptor, exact_cert):
    n = default_mode_count(descriptor, exact_cert.alpha)
    # smallest n with 15 - n^2 pi^2 <= -50 alpha, alpha = 4 pi^2 - 15
    assert n == 12


def test_state_norm_sandwich():
    lower, upper = state_norm(np.array([[3.0, 4.0]]), 0.25, 4.0)
    assert lower[0] == pytest.approx(2.5)
    assert upper[0] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Engines

def open_loop_design():
    """Single stable mode with the gain forced to zero (pure forcing test)."""
    desc = SystemDescriptor(
        eigenvalue_law=lambda n: -1.0,
        input_coeff_law=lambda n, k: 1.0,
        num_inputs=1, riesz_lower=1.0, riesz_upper=1.0,
        kind="explicit", monotone_dominated=False,
        params={"explicit_eigenvalues": [-1.0], "explicit_b": [[1.0]],
                "norm_Be_sq": [0.5], "norm_ABe_sq": [0.5]},
    )
    model = TruncatedModel(A=np.diag([-1.0]), B=np.array([[1.0]]), N0=1,
                           alpha=5.0, xi=1.0)
    cert = synthesize_certificate(desc, model, D0=0.4, t0=1.0,
                                  K=np.array([[0.0]]))
    return desc, cert


def test_zero_scenario_stays_zero(descriptor, exact_cert):
    zero = DisturbanceSignal(kind="zero", m=1)
    scen = Scenario(descriptor=descriptor, certificate=exact_cert,
                    delay=DelaySignal(kind="constant", D0=exact_cert.D0),
                    d1=zero, d2=zero, X0_coeffs=np.zeros(6), dt=2e-3,
                    T_final=2.0, N_modes=6)
    traj = simulate(scen)
    assert np.all(traj.coeffs == 0.0)
    assert np.all(traj.u == 0.0)
    assert np.all(traj.Z == 0.0)
    assert np.all(traj.norm_upper == 0.0)


def test_open_loop_forced_mode_matches_quadrature():
    desc, cert = open_loop_design()
    omega = 2.0
    scen = Scenario(
        descriptor=desc, certificate=cert,
        delay=DelaySignal(kind="constant", D0=cert.D0),
        d1=DisturbanceSignal(kind="sinusoid", m=1, amplitude=(1.0,),
                             omega=omega),
        d2=DisturbanceSignal(kind="zero", m=1),
        X0_coeffs=np.array([0.8]), dt=1e-3, T_final=2.0, N_modes=1)
    traj = simulate(scen)

    def exact(t):
        forced = quad(lambda s: math.exp(-(t - s)) * math.sin(omega * s),
                      0.0, t, limit=400)[0]
        return math.exp(-t) * 0.8 + forced

    for t_idx in (500, 1000, 2000):
        t = traj.t[t_idx]
        assert traj.coeffs[t_idx, 0] == pytest.approx(exact(t), abs=5e-7)
    # With K = 0 the control never switches on.
    assert np.all(traj.u == 0.0)


def test_certified_delay_band_must_lie_in_the_certificate(descriptor,
                                                         exact_cert):
    base = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=1.0)[0]
    D0, delta = exact_cert.D0, exact_cert.delta_max
    inside = DelaySignal(kind="sinusoid", D0=D0 + delta / 2,
                         amplitude=delta / 4, omega=1.0)
    assert replace(base, delay=inside).certified
    low = DelaySignal(kind="constant", D0=D0 - 3 * delta)
    with pytest.raises(ScenarioError, match=r"^delay band \[.*\] leaves the "
                       r"certified band \["):
        replace(base, delay=low)
    traj = simulate(replace(base, delay=low, certified=False))
    assert np.all(np.isfinite(traj.coeffs))
    zero = DelaySignal(kind="constant", D0=0.0)
    with pytest.raises(ScenarioError, match="^delay band"):
        replace(base, delay=zero)
    with pytest.raises(ScenarioError, match="minimum delay"):
        replace(base, delay=zero, certified=False)


def test_engines_agree_on_short_run(descriptor, exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=2.0)[2]
    a = simulate(scen)
    b = oracle_simulate(scen)
    scale = np.max(a.norm_upper)
    assert np.max(np.abs(a.coeffs - b.coeffs)) / scale < 1e-4


def per_segment_simulate(scen):
    """Per-step closed loop: exponential plant step, Picard ``control_step``
    and a per-point ``predictor_integral`` for Z."""
    cert, desc, dt = scen.certificate, scen.descriptor, scen.dt
    J = int(round(scen.T_final / dt))
    ts = dt * np.arange(J + 1)
    lam = desc.eigenvalues(scen.N_modes)
    B = desc.input_matrix(scen.N_modes)
    E = np.exp(lam * dt)
    m0, m1 = exp_moments(lam, dt)
    W1 = E * (m1 / dt)
    W0 = E * m0 - W1
    hist = StepHistory(dt, cert.D0, cert.delta_max, scen.T_final,
                       m=desc.num_inputs)
    D, d1, d2 = scen.delay(ts), scen.d1(ts), scen.d2(ts)
    c = np.zeros((J + 1, scen.N_modes))
    c[0, : len(scen.X0_coeffs)] = scen.X0_coeffs
    u = np.zeros((J + 1, desc.num_inputs))
    v_prev = hist.interp(np.asarray(ts[0] - D[0])) + d1[0]
    for j in range(J):
        v_next = hist.interp(np.asarray(ts[j + 1] - D[j + 1])) + d1[j + 1]
        c[j + 1] = E * c[j] + W0 * (B @ v_prev) + W1 * (B @ v_next)
        u[j + 1] = control_step(c[j + 1, : cert.N0], d2[j + 1], ts[j + 1],
                                cert, hist)
        hist.append(ts[j + 1], u[j + 1])
        v_prev = v_next
    Z = c[:, : cert.N0] + np.array([
        predictor_integral(hist, t, cert.lambdas, cert.B, cert.D0) for t in ts])
    return c, u, Z


def test_simulate_matches_per_step_reference(descriptor, exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=2.0)[4]
    traj = simulate(scen)
    for got, want in zip((traj.coeffs, traj.u, traj.Z), per_segment_simulate(scen)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_simulate_stays_finite_on_stiff_modes(descriptor, exact_cert):
    # Mode 269 has lambda dt = 15e-3 - (269 pi)^2 1e-3 < -709, where
    # e^{-lambda dt} overflows; the step weights must not form it.
    base = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=1.0)[4]

    def run(n_modes):
        X0 = np.zeros(n_modes)
        X0[:3] = base.X0_coeffs[:3]
        return simulate(replace(base, N_modes=n_modes, X0_coeffs=X0))

    small, big = run(268), run(300)
    assert np.all(np.isfinite(big.coeffs))
    np.testing.assert_array_equal(big.coeffs[:, :268], small.coeffs)
    np.testing.assert_array_equal(big.u, small.u)


def test_rk4_composition_is_stability_polynomial_power(descriptor, exact_cert):
    lam = descriptor.eigenvalues(default_mode_count(descriptor, exact_cert.alpha))
    h = 1e-3 / 20
    R, W = compose_rk4_substeps(lam, h, 20)
    z = lam * h
    assert np.allclose(R, (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) ** 20,
                       rtol=1e-13, atol=0.0)
    assert W.shape == (41, len(lam))


def test_oracle_matches_sequential_rk4_substeps(descriptor, exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=2.0)[4]
    traj = oracle_simulate(scen)
    # Redo every coarse step from the oracle's own state with 20 sequential
    # substeps, driven by its control record through the same cubic delayed
    # reads.  (A free-running replay would be open loop and amplify rounding
    # by exp(lambda_1 t).)
    dt, refine = scen.dt, ORACLE_REFINE
    hf = dt / refine
    lam = descriptor.eigenvalues(scen.N_modes)
    B = descriptor.input_matrix(scen.N_modes)
    J = len(traj.t) - 1
    n_pre = int(np.ceil((exact_cert.D0 + exact_cert.delta_max) / dt)) + 2
    hist = _CubicHistory(dt, n_pre, n_pre + J + 2, 1)
    for uj in traj.u[1:]:
        hist.append(uj)
    worst = 0.0
    for j in range(J):
        x = traj.coeffs[j]
        tf = traj.t[j] + (hf / 2.0) * np.arange(2 * refine + 1)
        ff = (hist.eval(tf - scen.delay(tf)) + scen.d1(tf)) @ B.T
        for i in range(refine):
            x = rk4_substep(lam, hf, x, ff[2 * i], ff[2 * i + 1], ff[2 * i + 2])
        worst = max(worst, float(np.max(np.abs(x - traj.coeffs[j + 1]))))
    assert worst <= 1e-10 * np.max(np.abs(traj.coeffs))


def _table_dip_scenario(descriptor, cert):
    """Scenario 4 at dt = 1e-2 under a delay that dips briefly to 2.5 dt at
    t = 1, so a block of two steps would read its own first control."""
    scen = cli.builtin_scenarios(descriptor, cert, dt=1e-2, T=2.0)[4]
    dip = DelaySignal(kind="table", D0=cert.D0,
                      times=(0.0, 0.9, 1.0, 1.1, 2.0),
                      values=(cert.D0, cert.D0, 0.025, cert.D0, cert.D0))
    return replace(scen, delay=dip, certified=False)


@pytest.mark.parametrize("case", ["dt=1e-3", "dt=1e-2", "one-step blocks"])
def test_oracle_matches_per_node_reference(descriptor, exact_cert, case):
    # Scenario 4 at T = 2 covers the clipped window t < D0, the phi ramp and
    # the full window; the coarser dt and the dipping delay shrink the block.
    if case == "one-step blocks":
        scen = _table_dip_scenario(descriptor, exact_cert)
    else:
        dt = 1e-3 if case == "dt=1e-3" else 1e-2
        scen = cli.builtin_scenarios(descriptor, exact_cert, dt=dt, T=2.0)[4]
    traj = oracle_simulate(scen)
    ref = reference_oracle_simulate(scen)
    for key in ("coeffs", "u", "v", "Z"):
        got, want = getattr(traj, key), getattr(ref, key)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), key
    block = traj.meta["block_steps"]
    if case == "dt=1e-3":
        assert block == BLOCK_STEPS
    elif case == "dt=1e-2":
        assert 1 < block < BLOCK_STEPS
    else:
        assert block == 1


def test_oracle_block_may_outrun_its_taps(descriptor, exact_cert):
    # A delay longer than D0 lets a block run past the last tap: at dt = 1e-2
    # the taps span 51 steps and the block 57.
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-2, T=1.5)[4]
    scen = replace(scen, delay=DelaySignal(kind="constant", D0=0.6),
                   certified=False)
    traj = oracle_simulate(scen)
    assert traj.meta["block_steps"] == 57
    ref = reference_oracle_simulate(scen)
    for key in ("coeffs", "u", "v", "Z"):
        got, want = getattr(traj, key), getattr(ref, key)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), key


def test_oracle_matches_the_reference_on_a_growing_run(descriptor, exact_cert):
    # Past the certified band the run grows: |u| reaches the thousands, so the
    # reference's fixed point must stop at a step relative to |u|.
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-2, T=2.0)[4]
    scen = replace(scen, delay=DelaySignal(kind="constant", D0=0.6),
                   certified=False)
    traj = oracle_simulate(scen)
    ref = reference_oracle_simulate(scen)
    assert np.max(np.abs(ref.u)) > 1e3
    for key in ("coeffs", "u", "v", "Z"):
        got, want = getattr(traj, key), getattr(ref, key)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), key


def test_oracle_agrees_with_itself_at_a_quarter_of_the_step(descriptor,
                                                            exact_cert):
    # The per-node reference shares the oracle's method, so this pins the
    # oracle's own accuracy: dt = 1e-3 against dt = 2.5e-4 on the coarse grid.
    for i in (0, 4):
        coarse, fine = (oracle_simulate(cli.builtin_scenarios(
            descriptor, exact_cert, dt=dt, T=4.0)[i]) for dt in (1e-3, 2.5e-4))
        gap = np.max(np.abs(coarse.coeffs - fine.coeffs[::4])) \
            / np.max(np.abs(fine.coeffs))
        assert gap <= 1e-8, (i, gap)


def test_engine_gap_to_oracle_converges_at_second_order(descriptor,
                                                        exact_cert):
    # The oracle's own error sits far below the engine's, so the gap is the
    # engine's O(dt^2) error: halving dt divides it by about four.
    for i in (0, 4):
        gaps = []
        for dt in (2e-3, 1e-3):
            scen = cli.builtin_scenarios(descriptor, exact_cert, dt=dt,
                                         T=4.0)[i]
            a, b = simulate(scen), oracle_simulate(scen)
            gaps.append(np.max(np.abs(a.coeffs - b.coeffs))
                        / np.max(a.norm_upper))
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5, (i, gaps)


def complex_plant_scenario():
    """One complex mode lambda = -1 + 2i with X0 = 1 + 1i and K = 0."""
    desc = SystemDescriptor(
        eigenvalue_law=lambda n: -1.0 + 2.0j,
        input_coeff_law=lambda n, k: 1.0 + 0.0j,
        num_inputs=1, riesz_lower=1.0, riesz_upper=1.0, field="complex",
        monotone_dominated=False,
        params={"norm_Be_sq": [0.5], "norm_ABe_sq": [0.5]})
    model = TruncatedModel(A=np.diag([-1.0 + 2.0j]),
                           B=np.array([[1.0 + 0.0j]]), N0=1, alpha=5.0, xi=3.0)
    cert = synthesize_certificate(desc, model, D0=0.4, t0=1.0,
                                  K=np.array([[0.0 + 0.0j]]))
    zero = DisturbanceSignal(kind="zero", m=1)
    return Scenario(descriptor=desc, certificate=cert,
                    delay=DelaySignal(kind="constant", D0=0.4),
                    d1=zero, d2=zero, X0_coeffs=np.array([1.0 + 1.0j]),
                    dt=1e-3, T_final=0.5, N_modes=1)


# The complex plant as explicit eigen-data, which a scenario file can hold.
COMPLEX_PLANT_DICT = {"kind": "explicit", "m": 1, "riesz_lower": 1.0,
                      "riesz_upper": 1.0, "explicit_eigenvalues": ["-1+2j"],
                      "explicit_b": [["1+0j"]]}


def test_oracle_rejects_complex_field():
    scen = complex_plant_scenario()
    traj = simulate(scen)  # complex plants run on the primary engine
    assert np.all(np.isfinite(traj.coeffs.real))
    with pytest.raises(ScenarioError):
        oracle_simulate(scen)


def test_complex_initial_state_roundtrips_through_scenario_file(tmp_path):
    scen = complex_plant_scenario()
    path = tmp_path / "scen.json"
    save_scenario(scen, path)
    d = json.loads(path.read_text())
    assert d["initial"]["X0_coeffs"] == {"real": [1.0], "imag": [1.0]}
    d["system"] = COMPLEX_PLANT_DICT
    path.write_text(json.dumps(d))
    back = load_scenario(path, scen.certificate)
    assert back.descriptor.field == "complex"
    assert np.array_equal(back.X0_coeffs, scen.X0_coeffs)
    assert np.array_equal(simulate(back).coeffs, simulate(scen).coeffs)


def test_complex_trajectory_csv_is_refused(tmp_path):
    traj = simulate(complex_plant_scenario())
    assert np.any(traj.coeffs.imag != 0)
    with pytest.raises(ScenarioError):
        trajectory_to_csv(traj, tmp_path / "traj.csv")
    assert not (tmp_path / "traj.csv").exists()


def test_simulate_complex_plant_exits_2(tmp_path, capsys):
    scen = complex_plant_scenario()
    cert_path = tmp_path / "cert.json"
    scen_path = tmp_path / "scen.json"
    save_certificate(scen.certificate, cert_path)
    d = scenario_to_dict(scen)
    d["system"] = COMPLEX_PLANT_DICT
    scen_path.write_text(json.dumps(d))
    argv = ["simulate", "--certificate", str(cert_path), "--scenario",
            str(scen_path), "--out", str(tmp_path / "traj.csv")]
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_artstein_transform_definition(descriptor, exact_cert):
    from specpred.numerics import simpson_integrate

    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=2e-3, T=2.0)[0]
    traj = simulate(scen)
    Z = artstein_transform(traj)
    # At t = 0 the control history is identically zero, so Z = Y.
    assert np.allclose(Z[0], traj.Y[0])
    assert np.allclose(Z, traj.Z)
    # Independent quadrature of the shift integral at a full-window time.
    lam = exact_cert.lambdas[0]
    D0 = exact_cert.D0
    j = 600  # t = 1.2 > D0
    t = traj.t[j]
    lo = int(round((t - D0) / scen.dt))
    s = traj.t[lo: j + 1]
    integrand = np.exp(lam * (t - D0 - s)) * (traj.u[lo: j + 1, 0]
                                              * exact_cert.B[0, 0])
    shift = simpson_integrate(integrand, scen.dt)
    # Piecewise-linear exact quadrature vs Simpson through the samples agree
    # to the O(dt^2) interpolation level.
    assert Z[j, 0] == pytest.approx(traj.Y[j, 0] + shift, rel=1e-3, abs=1e-8)


def test_artstein_residual_small(descriptor, exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=2.5)[0]
    traj = simulate(scen)
    ts, res = artstein_residual(traj)
    assert np.max(res) < 5e-3 * max(np.max(np.abs(traj.Z)), 1.0)


def test_artstein_residual_matches_pointwise_reference(descriptor, exact_cert):
    # The residual cancels O(1) terms, so the whole-grid evaluation moves it
    # by rounding relative to those terms, not to the residual itself.
    for scen in cli.builtin_scenarios(descriptor, exact_cert, dt=2e-3, T=2.5):
        traj = simulate(scen)
        ts, res = artstein_residual(traj)
        ts_ref, ref = reference_artstein_residual(traj, exact_cert)
        assert np.array_equal(ts, ts_ref)
        assert np.max(np.abs(res - ref)) <= 1e-8 * np.max(ref)


def test_artstein_needs_the_scenario(tmp_path, descriptor, exact_cert):
    # A trajectory read back from its CSV carries no scenario to take the
    # certificate from.
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3, T=1.0)[0]
    path = tmp_path / "traj.csv"
    trajectory_to_csv(simulate(scen), path)
    back = trajectory_from_csv(path)
    for transform in (artstein_transform, artstein_residual):
        with pytest.raises(ValueError, match="must carry its scenario"):
            transform(back)


# ---------------------------------------------------------------------------
# Serialization

def test_trajectory_csv_roundtrip(tmp_path, descriptor, exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3, T=1.0)[2]
    traj = simulate(scen)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    back = trajectory_from_csv(path)
    # %.17g formatting round-trips every float bit-exactly
    assert np.array_equal(back.t, traj.t)
    assert np.array_equal(back.coeffs, traj.coeffs)
    assert np.array_equal(back.u, traj.u)
    assert np.array_equal(back.Z, traj.Z)
    assert np.array_equal(back.norm_upper, traj.norm_upper)


def test_scenario_json_roundtrip(tmp_path, descriptor, exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3, T=1.0)[3]
    path = tmp_path / "scen.json"
    save_scenario(scen, path)
    back = load_scenario(path, exact_cert)
    assert back.dt == scen.dt
    assert back.N_modes == scen.N_modes
    assert back.delay.kind == scen.delay.kind
    assert back.delay.amplitude == scen.delay.amplitude
    assert np.array_equal(back.X0_coeffs, np.asarray(scen.X0_coeffs))
    ts = np.linspace(0, 1, 11)
    assert np.array_equal(back.d2(ts), scen.d2(ts))


@pytest.mark.parametrize("delay, d1, d2", [
    (DelaySignal("constant", D0=0.5), DisturbanceSignal("zero"),
     DisturbanceSignal("sinusoid", amplitude=(0.7,), omega=1.5, phase=0.2)),
    (DelaySignal("sinusoid", D0=0.5, amplitude=1e-3, omega=2.0, phase=0.3),
     DisturbanceSignal("smoothed_step", amplitude=(0.5,), t_on=0.2, ramp=0.4),
     DisturbanceSignal("exp_decay", amplitude=(2.0,), rate=3.0)),
    (DelaySignal("table", D0=0.5, times=(0.0, 1.0, 2.0),
                 values=(0.5, 0.501, 0.499)),
     DisturbanceSignal("exp_decay", amplitude=(-1.0,), rate=0.5),
     DisturbanceSignal("zero")),
], ids=["constant", "sinusoid", "table"])
def test_scenario_file_reads_back_equal(descriptor, exact_cert, delay, d1, d2):
    # Every delay kind and every disturbance kind, through JSON text.
    scen = replace(cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3,
                                         T=1.0)[0], delay=delay, d1=d1, d2=d2)
    d = json.loads(json.dumps(scenario_to_dict(scen)))
    back = scenario_from_dict(d, exact_cert)
    assert (back.delay, back.d1, back.d2) == (delay, d1, d2)
    assert np.array_equal(back.X0_coeffs, scen.X0_coeffs)
    assert (back.dt, back.T_final, back.N_modes, back.certified) == \
        (scen.dt, scen.T_final, scen.N_modes, scen.certified)
    assert scenario_to_dict(back) == d
    # An older file writes no times or values for a delay other than a table.
    if delay.kind != "table":
        del d["delay"]["times"], d["delay"]["values"]
        assert scenario_from_dict(d, exact_cert).delay == delay
