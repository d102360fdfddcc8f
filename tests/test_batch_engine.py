"""The batched closed-loop engine against the per-step reference loop.

``simulate`` steps a sequence of scenarios together and runs one scenario as
a batch of one; it reads each block's delayed controls through
``controller.ControlHistory.interp`` and solves each block through
``controller.PredictorController.step``.  ``reference.reference_simulate``
is the former one-scenario loop through ``reference.StepController``.
"""

import copy
import json
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from reference import reference_oracle_simulate, reference_simulate
from specpred import cli, controller, iss_certifier, sim_engine, synthesis
from specpred.controller import (
    SOLVE_CONDITIONING_FLOOR,
    SOLVE_RESIDUAL_TOL,
    ControlHistory,
    ControllerError,
    PredictorController,
    predictor_taps,
)
from specpred.errors import SpecpredError
from specpred.sim_engine import (
    BLOCK_STEPS,
    DelaySignal,
    DisturbanceSignal,
    Scenario,
    ScenarioError,
    Trajectories,
    oracle_simulate,
    simulate,
)
from specpred.spectral_model import SystemDescriptor, TruncatedModel
from specpred.synthesis import synthesize_certificate
from test_sim_engine import complex_plant_scenario

FIELDS = ("coeffs", "u", "v", "Z")


def worst_relative(got_trajs, want_trajs):
    """Largest max-abs difference over max-abs value, per field."""
    worst = dict.fromkeys(FIELDS, 0.0)
    for got, want in zip(got_trajs, want_trajs, strict=True):
        for key in FIELDS:
            a, b = getattr(got, key), getattr(want, key)
            assert a.shape == b.shape and a.dtype == b.dtype
            scale = np.max(np.abs(b))
            diff = np.max(np.abs(a - b))
            worst[key] = max(worst[key], diff / scale if scale > 0 else diff)
    return worst


@pytest.fixture(scope="module")
def fitting_run(descriptor):
    """The seed-0 fitting ensemble of ``certify``: its exact certificate, the
    scenarios, the batched run and the reference runs."""
    _, cert = cli.design_pipeline(descriptor)
    scens = cli.fitting_ensemble(descriptor, cert, seed=0)
    return cert, scens, simulate(scens), [reference_simulate(s) for s in scens]


def test_fitting_ensemble_matches_reference(fitting_run):
    _, scens, batch, refs = fitting_run
    assert isinstance(batch, Trajectories) and len(batch) == len(scens) == 20
    assert batch.t is batch[0].t
    for key, err in worst_relative(batch, refs).items():
        assert err <= 1e-12, key


def test_builtin_scenarios_match_reference(descriptor, exact_cert):
    scens = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=10.0)
    refs = [reference_simulate(s) for s in scens]
    for key, err in worst_relative(simulate(scens), refs).items():
        assert err <= 1e-12, key


def test_batch_member_matches_its_single_run(fitting_run):
    _, scens, batch, _ = fitting_run
    singles = [simulate(s) for s in scens]
    for key, err in worst_relative(batch, singles).items():
        assert err <= 1e-14, key


def _numbers(tree):
    if isinstance(tree, dict):
        for key in sorted(tree):
            yield from ((f"{key}.{k}", v) for k, v in _numbers(tree[key]))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield "", float(tree)


def test_certify_constants_match_reference_loop(descriptor, fitting_run):
    cert, _, _, refs = fitting_run
    want = iss_certifier.fit_constants(refs, copy.deepcopy(cert))
    got = cli.certify_pipeline(descriptor, seed=0)
    keys = ("u_constants", "y_constants", "z_constants", "x_constants",
            "tail_constants")
    want_d = {k: synthesis.certificate_to_dict(want)[k] for k in keys}
    got_d = {k: synthesis.certificate_to_dict(got)[k] for k in keys}
    want_n, got_n = dict(_numbers(want_d)), dict(_numbers(got_d))
    assert got_n.keys() == want_n.keys() and len(want_n) >= 12
    for key, value in want_n.items():
        assert abs(got_n[key] - value) <= 1e-12 * abs(value), key
    assert got.fit_info == want.fit_info
    assert got.fit_info["inflation"] == iss_certifier.FIT_INFLATION


def test_long_run_shows_no_rounding_growth(descriptor, exact_cert):
    # lambda_1 = c - pi^2 ~ 5.13: rounding that a recursive window update
    # fed back would grow like e^{5.13 t}, about 1e44 at T = 20.
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=20.0)[4]
    for key, err in worst_relative([simulate(scen)],
                                   [reference_simulate(scen)]).items():
        assert err <= 1e-12, key


def test_batch_rejects_ill_conditioned_solve(descriptor, exact_cert):
    dt = 1e-3
    G0 = predictor_taps(exact_cert.lambdas, exact_cert.B, exact_cert.D0, dt)[0]
    # N0 = m = 1 here: K G_0 = I makes I - phi K G_0 singular at phi = 1.
    cert = replace(exact_cert, K=np.linalg.inv(G0))
    scens = cli.builtin_scenarios(descriptor, cert, dt=dt, T=2.0)[:2]
    with pytest.raises(ControllerError, match="ill-conditioned"):
        simulate(scens)


def test_oracle_rejects_ill_conditioned_solve(descriptor, exact_cert):
    dt = 1e-3
    G0 = sim_engine._predictor_tap(exact_cert.lambdas, exact_cert.B,
                                   exact_cert.D0, dt)[0]
    # The oracle's own G_0: I - phi K G_0 is singular at phi = 1.
    cert = replace(exact_cert, K=np.linalg.inv(G0))
    scen = cli.builtin_scenarios(descriptor, cert, dt=dt, T=2.0)[0]
    with pytest.raises(ControllerError, match="ill-conditioned"):
        oracle_simulate(scen)


def test_oracle_meta_reports_the_solve(descriptor, exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=2.0)[4]
    meta = oracle_simulate(scen).meta
    assert {"max_solve_residual", "min_solve_sigma"} <= meta.keys()
    assert 0 < meta["max_solve_residual"] <= SOLVE_RESIDUAL_TOL
    assert meta["min_solve_sigma"] >= SOLVE_CONDITIONING_FLOOR
    assert meta["steps"] == 2000 == simulate(scen).meta["steps"]
    # The pre-buffer holds the certified band and two rows more, so a
    # certified read keeps the stencil's back row inside it.
    assert meta["min_read_margin"] >= 2
    # An uncertified delay that starts 2 delta_max past the band reads
    # before the pre-buffer; the oracle clamps the read, and the margin,
    # taken before the clamp, shows it.  Both minima are the read at t = 0.
    deep = DelaySignal(kind="sinusoid", D0=exact_cert.D0,
                       amplitude=3 * exact_cert.delta_max, omega=1.0,
                       phase=np.pi / 2)
    deep_margin = oracle_simulate(
        replace(scen, delay=deep, certified=False)).meta["min_read_margin"]
    assert deep_margin < 0
    assert deep_margin == pytest.approx(
        meta["min_read_margin"] - (deep(0.0) - scen.delay(0.0)) / 1e-3,
        rel=1e-9)


def test_complex_plant_batch_matches_reference():
    scen = complex_plant_scenario()
    scens = [scen, replace(scen, X0_coeffs=np.array([0.5 - 2.0j]))]
    batch = simulate(scens)
    assert np.iscomplexobj(batch[1].coeffs)
    for key, err in worst_relative(
            batch, [reference_simulate(s) for s in scens]).items():
        assert err <= 1e-12, key


@pytest.mark.parametrize("field", ["descriptor", "certificate", "dt",
                                   "T_final", "N_modes"])
def test_batch_members_must_share_the_run(descriptor, exact_cert, field):
    base = cli.builtin_scenarios(descriptor, exact_cert, dt=2e-3, T=1.0)[0]
    other = {"descriptor": cli.default_descriptor(),
             "certificate": copy.deepcopy(exact_cert),
             "dt": 1e-3, "T_final": 2.0, "N_modes": base.N_modes + 1}[field]
    with pytest.raises(ScenarioError) as info:
        simulate([base, replace(base, **{field: other})])
    assert isinstance(info.value, SpecpredError)     # exit status 2 in the CLI
    with pytest.raises(ScenarioError):
        simulate([])


def test_engine_counters_in_meta(fitting_run):
    _, _, batch, _ = fitting_run
    for traj in batch:
        meta = traj.meta
        assert {"steps", "max_solve_residual", "min_solve_sigma",
                "min_read_margin"} <= meta.keys()
        assert meta["steps"] == len(traj.t) - 1
        assert meta["max_solve_residual"] <= 1e-12
        assert meta["min_solve_sigma"] >= SOLVE_CONDITIONING_FLOOR


@pytest.mark.parametrize("c", [20.0, 25.0, 30.0])
def test_solve_gate_passes_the_fitting_ensemble_of_stiffer_plants(c):
    # The rows sum terms |K Q| about 15x larger than |u| here, so a residual
    # scaled by max(1, |u|) read 1e-12 on sound solves; the componentwise
    # backward error stays at a few eps.
    cert = cli.certify_pipeline(cli.default_descriptor(c))
    assert cert.has_fitted_constants


@pytest.mark.parametrize("c", [15.0, 25.0])
def test_solve_gate_refuses_a_perturbed_solve(monkeypatch, c):
    _, cert = cli.design_pipeline(cli.default_descriptor(c))
    scen = cli.builtin_scenarios(cli.default_descriptor(c), cert, dt=1e-3,
                                 T=2.0)[4]
    assert simulate(scen).meta["max_solve_residual"] <= SOLVE_RESIDUAL_TOL
    solve = controller.solve_triangular
    monkeypatch.setattr(controller, "solve_triangular",
                        lambda *a, **k: solve(*a, **k) * (1.0 + 1e-9))
    with pytest.raises(ControllerError,
                       match="implicit equation backward error"):
        simulate(scen)


def test_solve_gate_refuses_a_perturbed_steady_product(monkeypatch):
    # Only the blocks after t0 = 1 solve by their law's explicit inverse,
    # and the 2 s run has such blocks.
    _, cert = cli.design_pipeline(cli.default_descriptor(15.0))
    scen = cli.builtin_scenarios(cli.default_descriptor(15.0), cert, dt=1e-3,
                                 T=2.0)[4]
    assert cert.t0 < 2.0 - BLOCK_STEPS * 1e-3
    apply = controller.apply_inverse
    monkeypatch.setattr(controller, "apply_inverse",
                        lambda *a: apply(*a) * (1.0 + 1e-9))
    with pytest.raises(ControllerError,
                       match="implicit equation backward error") as info:
        simulate(scen)
    assert float(re.search(r"t=(\S+)$", str(info.value))[1]) > cert.t0


def test_read_margin_on_certified_and_past_the_prebuffer(descriptor,
                                                         exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=2.0)[1]
    assert scen.certified
    assert simulate(scen).meta["min_read_margin"] > 0
    # The pre-buffer follows the certificate: an uncertified delay that
    # starts past D0 + delta_max + dt reads outside it.
    deep = DelaySignal(kind="sinusoid", D0=exact_cert.D0,
                       amplitude=3 * exact_cert.delta_max, omega=1.0,
                       phase=np.pi / 2)
    with pytest.raises(ControllerError,
                       match="history read outside covered span") as info:
        simulate(replace(scen, delay=deep, certified=False))
    # The first bad read is at t = 0, at -(D0 + 3 delta_max); the buffer
    # reaches back between D0 + delta_max + dt and one step further.
    position, out = map(float, re.search(
        r"grid position (\S+) lies (\S+) steps outside \[0, \d+\]$",
        str(info.value)).groups())
    gap = 2 * exact_cert.delta_max / 1e-3
    assert 1 - gap <= position < 2 - gap
    assert out == pytest.approx(-position, rel=1e-3)


def test_batch_members_equal_their_single_runs_bit_for_bit(fitting_run):
    _, scens, batch, _ = fitting_run
    for member, scen in zip(batch, scens, strict=True):
        alone = simulate(scen)
        for key in FIELDS:
            assert np.array_equal(getattr(member, key), getattr(alone, key)), key


def test_cached_block_law_equals_a_rebuilt_one(exact_cert):
    # dt = 2e-3: phi ramps over steps 1..500, so the first three blocks are
    # transition blocks, the next two are steady (phi = 1) and share one
    # law, and the run ends in a short block.
    cert, dt, block, S = exact_cert, 2e-3, BLOCK_STEPS, 3
    J = 5 * block + 50
    ts = dt * np.arange(J + 1)
    taps = predictor_taps(cert.lambdas, cert.B, cert.D0, dt)
    rng = np.random.default_rng(5)
    n_pre = len(taps)
    samples = rng.standard_normal((S, n_pre + J + 1, 1))
    samples[:, n_pre:] = 0.0
    rebuilt_samples = samples.copy()
    Y = rng.standard_normal((S, J + 1, cert.N0))
    d2 = rng.standard_normal((S, J + 1, 1))
    cached = PredictorController(cert, taps, ts, block)
    laws = []
    for j0 in range(0, J, block):
        n = min(block, J - j0)
        rows, top = slice(j0 + 1, j0 + n + 1), n_pre + j0 + 1
        u, residual = cached.step(samples, top, j0, Y[:, rows], d2[:, rows])
        laws.append(cached.block_law(cached.which[rows]))
        rebuilt = PredictorController(cert, taps, ts, block)
        want_u, want_residual = rebuilt.step(rebuilt_samples, top, j0,
                                             Y[:, rows], d2[:, rows])
        assert np.array_equal(u, want_u) and np.array_equal(residual,
                                                            want_residual)
        assert residual.max() <= SOLVE_RESIDUAL_TOL
    assert np.array_equal(samples, rebuilt_samples)
    phis = [law[0] for law in laws]
    assert all(len(np.unique(p)) > 1 for p in phis[:3])
    assert np.all(phis[3] == 1.0) and len(phis[-1]) == 50
    # The steady blocks share one set of operators.
    assert all(a is b for a, b in zip(laws[3], laws[4]))
    assert laws[2][2] is not laws[3][2]


def test_each_block_is_one_controller_step_and_one_read(descriptor,
                                                        exact_cert,
                                                        monkeypatch):
    calls = Counter()
    for owner, name in ((PredictorController, "step"),
                        (ControlHistory, "interp")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=1.0)[4]
    meta = simulate(scen).meta
    J, B = meta["steps"], meta["block_steps"]
    assert J % B and J > B
    # One read of step 0, then one read and one solve per block.
    assert calls == {"step": -(-J // B), "interp": -(-J // B) + 1}
    # The oracle takes its cubic reads itself and solves through the
    # controller, one step call per block.
    calls.clear()
    B = oracle_simulate(scen).meta["block_steps"]
    assert J % B and J > B
    assert calls == {"step": -(-J // B)}


def test_certify_steps_only_the_head_modes(monkeypatch, descriptor):
    runs = []

    def recording(scens, _simulate=simulate):
        runs.append([scen.N_modes for scen in scens])
        return _simulate(scens)

    monkeypatch.setattr(sim_engine, "simulate", recording)
    cert = cli.certify_pipeline(descriptor, seed=0)
    assert runs == [[cert.N0] * cli.FIT_MEMBERS]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_head_run_is_the_full_run_bit_for_bit(fitting_run):
    # Every plant operation works per mode and the law reads only Y, so the
    # head modes of the fitting ensemble step alone to the same bits.
    cert, scens, batch, _ = fitting_run
    heads = simulate([replace(scen, N_modes=cert.N0,
                              X0_coeffs=scen.X0_coeffs[:cert.N0])
                      for scen in scens])
    for head, full in zip(heads, batch, strict=True):
        assert head.coeffs.shape[1] == cert.N0 < full.coeffs.shape[1]
        for key in ("u", "v", "Y", "Z"):
            assert np.array_equal(bits(getattr(head, key)),
                                  bits(getattr(full, key))), key


@pytest.mark.parametrize("c, design, seed", [
    (15.0, None, 0), (15.0, None, 1), (15.0, None, 2), (15.0, None, 3),
    (50.0, {"D0": 0.01, "target_poles": [-8.0, -32.0]}, 1)],
    ids=["seed0", "seed1", "seed2", "seed3", "c50-N0-2-seed1"])
def test_certify_equals_the_fit_on_the_full_run(c, design, seed):
    descriptor = cli.default_descriptor(c)
    got = cli.certify_pipeline(descriptor, design, seed=seed)
    _, cert = cli.design_pipeline(descriptor, design)
    iss_certifier.fit_constants(
        simulate(cli.fitting_ensemble(descriptor, cert, seed=seed)), cert)
    assert json.dumps(synthesis.certificate_to_dict(got)) \
        == json.dumps(synthesis.certificate_to_dict(cert))


# ---------------------------------------------------------------------------
# The causal block solve

def two_input_scenarios():
    """Two scenarios of an m = 2, N0 = 2 plant with a manual K that places
    the predicted head at -2, with disturbances on both inputs."""
    desc = SystemDescriptor(
        eigenvalue_law=lambda n: 3.0 - n * n,
        input_coeff_law=lambda n, k: 1.0 / (n + k) if k == 1 else (-1.0) ** n / n,
        num_inputs=2, riesz_lower=1.0, riesz_upper=1.0,
        params={"norm_Be_sq": [0.5, 0.5], "norm_ABe_sq": [0.5, 0.5]})
    A, B, D0 = np.diag(desc.eigenvalues(2)), desc.input_matrix(2), 0.3
    K = -np.linalg.solve(expm(-D0 * A) @ B, A + 2.0 * np.eye(2))
    model = TruncatedModel(A=A, B=B, N0=2, alpha=1.0, xi=1.0)
    cert = synthesize_certificate(desc, model, D0=D0, t0=0.5, K=K)

    def sinusoid(amplitude, omega):
        return DisturbanceSignal(kind="sinusoid", m=2, amplitude=amplitude,
                                 omega=omega)

    scen = Scenario(
        descriptor=desc, certificate=cert,
        delay=DelaySignal(kind="sinusoid", D0=D0,
                          amplitude=0.5 * cert.delta_max, omega=3.0),
        d1=sinusoid((0.3, -0.2), 2.0), d2=sinusoid((0.1, 0.4), 1.3),
        X0_coeffs=np.array([1.0, -0.5, 0.2]), dt=1e-3, T_final=2.0,
        N_modes=6)
    return [scen, replace(scen, X0_coeffs=np.array([-0.3, 0.8]),
                          d2=sinusoid((-0.5, 0.2), 0.7))]


def gathered_pre_block_product(taps, block):
    """H by a gather of the tap at each (step, window sample) lag."""
    L, N0, m = taps.shape[0] - 1, taps.shape[1], taps.shape[2]
    tap_of = np.arange(1, block + 1)[:, np.newaxis] + np.arange(L - 1, -1, -1)
    H = np.where((tap_of <= L)[..., np.newaxis, np.newaxis],
                 taps[np.minimum(tap_of, L)], 0.0)
    return H.transpose(0, 2, 1, 3).reshape(block * N0, L * m)


@pytest.mark.parametrize("dt, block", [(1e-3, BLOCK_STEPS), (2e-3, 7),
                                       (0.2, 5)])
def test_pre_block_product_equals_the_gather_bit_for_bit(exact_cert, dt,
                                                         block):
    # N0 = m = 1 on the built-in plant, then N0 = m = 2; at dt = 0.2 the
    # block outruns the L = 3 taps.
    for cert in (exact_cert, two_input_scenarios()[0].certificate):
        taps = predictor_taps(cert.lambdas, cert.B, cert.D0, dt)
        H = PredictorController(cert, taps, dt * np.arange(3), block).H
        want = gathered_pre_block_product(taps, block)
        assert H.shape == want.shape and H.flags.c_contiguous
        assert np.array_equal(bits(H), bits(want))


def test_two_input_plant_matches_reference():
    scens = two_input_scenarios()
    batch = simulate(scens)
    assert batch[0].u.shape[1] == 2
    assert batch[0].meta["block_steps"] == BLOCK_STEPS
    for key, err in worst_relative(
            batch, [reference_simulate(s) for s in scens]).items():
        assert err <= 1e-12, key
    for key, err in worst_relative(batch, [simulate(s) for s in scens]).items():
        assert err <= 1e-14, key


def test_two_input_oracle_matches_per_node_reference():
    # The oracle's composed forcing weights flatten (half-substep, input)
    # pairs; m = 2 is the case a wrong order would show in.
    for scen in two_input_scenarios():
        traj, ref = oracle_simulate(scen), reference_oracle_simulate(scen)
        for key in FIELDS:
            got, want = getattr(traj, key), getattr(ref, key)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), key


def near_delay(cert, min_delay):
    """An uncertified delay from D0 - a down to ``min_delay`` at t = 0, rising
    slowly enough that every read stays inside the pre-buffer."""
    return DelaySignal(kind="sinusoid", D0=cert.D0,
                       amplitude=cert.D0 - min_delay, omega=1.0,
                       phase=-np.pi / 2)


def test_short_delay_member_shrinks_the_block(descriptor, exact_cert):
    certified = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3,
                                      T=2.0)[1]
    short = replace(certified, delay=near_delay(exact_cert, 0.05),
                    certified=False)
    batch = simulate([certified, short])
    block = batch[0].meta["block_steps"]
    assert 2 < block < BLOCK_STEPS and batch[1].meta["block_steps"] == block
    alone = simulate(certified)
    assert alone.meta["block_steps"] == BLOCK_STEPS
    refs = [reference_simulate(s) for s in (certified, short)]
    for key, err in worst_relative(batch, refs).items():
        assert err <= 1e-12, key
    for key, err in worst_relative([batch[0]], [alone]).items():
        assert err <= 1e-12, key


@pytest.mark.parametrize("steps", [1.5, 2.5])
def test_minimum_delay_of_a_few_steps(descriptor, exact_cert, steps):
    dt = 1e-3
    base = cli.builtin_scenarios(descriptor, exact_cert, dt=dt, T=1.0)[3]
    scen = replace(base, delay=near_delay(exact_cert, steps * dt),
                   certified=False)
    traj = simulate(scen)
    assert traj.meta["block_steps"] == int(steps)
    for key, err in worst_relative([traj], [reference_simulate(scen)]).items():
        assert err <= 1e-12, key


@pytest.mark.parametrize("channel", ["d1", "d2"])
def test_non_finite_run_names_its_first_bad_step(descriptor, exact_cert,
                                                 channel):
    # exp(800 t) overflows near t = 0.88, between steps 769 and 896;
    # through d1 the state goes non-finite first, through d2 the control.
    base = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=2.0)[0]
    blowup = DisturbanceSignal(kind="exp_decay", m=1, amplitude=(1.0,),
                               rate=-800.0)
    scen = replace(base, **{channel: blowup})
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SpecpredError) as got:
        simulate(scen)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SpecpredError) as want:
        reference_simulate(scen)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    step = round(float(re.search(r"t=([0-9.]+)", str(got.value))[1]) / 1e-3)
    assert 769 < step <= 896
    expected = ScenarioError if channel == "d1" else ControllerError
    assert type(got.value) is expected


def test_overflowing_state_norm_names_its_first_step(descriptor, exact_cert):
    # A d2 of amplitude 1e308 keeps the state and control finite up to
    # T = 0.6, but the squares of the state norm overflow once the delayed
    # control reaches the plant; both engines refuse with no RuntimeWarning.
    base = cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3, T=0.6)[3]
    scen = replace(base, d2=replace(base.d2, amplitude=(1e308,)))
    for engine, step, t in ((simulate, 101, "0.505"),
                            (oracle_simulate, 100, "0.5")):
        with pytest.raises(ScenarioError) as info:
            engine(scen)
        assert str(info.value).startswith(
            f"state norm ||X||_upper overflows at step {step} (t={t})")


def test_overflowing_run_is_refused_without_a_warning(descriptor, exact_cert):
    # Over T = 2 the same d2 drives the controls past the float range; the
    # backward-error products overflow before the state does, and each
    # engine reaches its refusal with no RuntimeWarning on the way.
    base = cli.builtin_scenarios(descriptor, exact_cert, dt=5e-3, T=2.0)[3]
    scen = replace(base, d2=replace(base.d2, amplitude=(1e308,)))
    for engine, error, text in (
            (simulate, ScenarioError, "non-finite state at step 124 (t=0.62)"),
            (oracle_simulate, ControllerError,
             "non-finite control value at t=0.63")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as info:
                engine(scen)
        assert str(info.value) == text


def test_out_of_span_member_fails_the_batch_before_the_first_step(
        descriptor, exact_cert):
    scen = cli.builtin_scenarios(descriptor, exact_cert, dt=1e-3, T=2.0)[1]
    deep = replace(scen, certified=False, delay=DelaySignal(
        kind="sinusoid", D0=exact_cert.D0, amplitude=3 * exact_cert.delta_max,
        omega=1.0, phase=np.pi / 2))
    with pytest.raises(ControllerError) as info:
        simulate([scen, deep])
    with pytest.raises(ControllerError) as alone:
        simulate(deep)
    assert str(info.value).startswith("history read outside covered span: ")
    assert str(info.value) == str(alone.value)
