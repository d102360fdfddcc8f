"""The batched delay-difference integrator against a per-member RK4 reference.

``reference_simulate`` and ``reference_validate`` are the former one-member-
at-a-time implementations of ``simulate_delay_difference`` and
``lemma2_validate``, kept here as the reference the batched pass must match.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specpred import cli, iss_certifier, synthesis
from specpred.iss_certifier import (
    CertifierError,
    Lemma2Problem,
    _max_ratio,
    fading_memory_sup,
    lemma2_validate,
    simulate_delay_difference,
)
from specpred.sim_engine import DelaySignal, DisturbanceSignal

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "specbench"))
import checks  # noqa: E402
from workloads import GROWTH_MEMBER  # noqa: E402

REL_TOL = 1e-12


def reference_simulate(problem, dt, T):
    """Per-member RK4 with scalar Catmull-Rom history reads."""
    A = np.asarray(problem.A, dtype=float)
    C = np.asarray(problem.C, dtype=float)
    n = A.shape[0]
    r, eps = problem.r, problem.eps
    n_pre = int(math.ceil((r + eps) / dt)) + 2
    J = int(round(T / dt))
    xs = np.zeros((n_pre + J + 1, n))
    t_hist0 = -n_pre * dt
    for j in range(n_pre + 1):
        xs[j] = problem.x0(max(t_hist0 + j * dt, -(r + eps)))

    def read(t):
        x = (t - t_hist0) / dt
        x = min(max(x, 0.0), n_pre + J)
        j = int(x)
        j = min(max(j, 1), len(xs) - 3)
        w = x - j
        p0, p1, p2, p3 = xs[j - 1], xs[j], xs[j + 1], xs[j + 2]
        return (p1 + 0.5 * w * (p2 - p0)
                + w * w * (p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3)
                + w * w * w * (1.5 * (p1 - p2) + 0.5 * (p3 - p0)))

    def rhs(t, x):
        lag = read(t - r - eps * float(problem.d(t)))
        nom = read(t - r)
        return A @ x + float(problem.q(t)) * (C @ (lag - nom)) \
            + np.atleast_1d(problem.p(t))

    if dt * 3 > r - eps and eps < r:
        raise ValueError("dt too large for the delay margin")
    ts = dt * np.arange(J + 1)
    for j in range(J):
        t = ts[j]
        x = xs[n_pre + j]
        k1 = rhs(t, x)
        k2 = rhs(t + dt / 2, x + dt / 2 * k1)
        k3 = rhs(t + dt / 2, x + dt / 2 * k2)
        k4 = rhs(t + dt, x + dt * k3)
        xs[n_pre + j + 1] = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return ts, xs[n_pre:]


def reference_validate(problems, sigma, M_lambda, lam, dt=5e-3, T=12.0):
    """Per-member validator: one simulation and one p evaluation pass each."""
    M_fit, N_fit, per_member = 1.0, 0.0, []
    for prob in problems:
        assert prob.smallgain_ok(M_lambda, lam)
        ts, xs = reference_simulate(prob, dt, T)
        xn = np.linalg.norm(xs, axis=1)
        hist_ts = np.linspace(-(prob.r + prob.eps), 0.0, 201)
        sup_x0 = max(np.linalg.norm(np.atleast_1d(prob.x0(t))) for t in hist_ts)
        p_norms = np.array([np.linalg.norm(np.atleast_1d(prob.p(t))) for t in ts])
        has_p = np.max(p_norms) > 0
        if sup_x0 > 0 and not has_p:
            ratio = _max_ratio(xn, np.exp(-sigma * ts) * sup_x0)
            M_fit = max(M_fit, ratio)
            per_member.append({"channel": "x0", "ratio": ratio})
        elif has_p and sup_x0 == 0:
            ratio = _max_ratio(xn, fading_memory_sup(p_norms, sigma, dt))
            N_fit = max(N_fit, ratio)
            per_member.append({"channel": "p", "ratio": ratio})
        else:
            per_member.append({"channel": "mixed", "ratio": float(np.max(xn))})
    return {"M": M_fit, "N": N_fit, "members": per_member}


def assert_close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= REL_TOL * scale


def sinusoid_member(a, c, r, eps, wd, wq, amp, w, phase, forced, n=1):
    A = a * np.eye(n)
    C = c * np.eye(n)
    if forced:
        p = (lambda t: amp * math.sin(w * t + phase) * np.ones(n))
        x0 = (lambda t: np.zeros(n))
    else:
        p = (lambda t: np.zeros(n))
        x0 = (lambda t: amp * math.cos(w * t) * np.ones(n))
    return Lemma2Problem(A=A, C=C, r=r, eps=eps,
                         d=lambda t: math.sin(wd * t + phase),
                         q=lambda t: math.cos(wq * t), p=p, x0=x0)


@pytest.mark.parametrize("seed", [0, 4, 31])
def test_batched_validator_matches_per_member_reference(seed):
    p = cli.LEMMA2_DEFAULTS
    sigma, _ = synthesis.sigma_rate(1.0, -p["a"], abs(p["a"]), p["c_norm"],
                                    p["r"], p["eps"])
    problems = cli.lemma2_suite(seed=seed, **p)
    got = lemma2_validate(problems, sigma, 1.0, -p["a"], T=4.0)
    want = reference_validate(problems, sigma, 1.0, -p["a"], T=4.0)
    assert got["M"] == pytest.approx(want["M"], rel=REL_TOL)
    assert got["N"] == pytest.approx(want["N"], rel=REL_TOL)
    assert [m["channel"] for m in got["members"]] == \
        [m["channel"] for m in want["members"]]
    for g, w in zip(got["members"], want["members"]):
        assert g["ratio"] == pytest.approx(w["ratio"], rel=REL_TOL)


def test_heterogeneous_members_match_per_member_runs():
    members = [
        sinusoid_member(-1.0, 2.0, 0.5, 0.05, 3.0, 1.0, 1.5, 2.0, 0.3, False),
        sinusoid_member(-0.5, 0.7, 0.3, 0.10, 5.0, 2.0, 0.8, 1.0, 1.1, True),
        sinusoid_member(-2.0, 0.0, 0.8, 0.00, 1.0, 4.0, 1.0, 3.0, 2.0, False),
        sinusoid_member(-1.5, 1.2, 0.4, 0.02, 2.0, 0.5, 0.6, 0.7, 0.4, True, n=2),
    ]
    dt, T = 4e-3, 2.0
    ts, xs, ps = simulate_delay_difference(members, dt, T, with_forcing=True)
    assert xs.shape == ps.shape == (len(ts), len(members), 2)
    for i, prob in enumerate(members):
        k = prob.A.shape[0]
        _, want = reference_simulate(prob, dt, T)
        assert_close(xs[:, i, :k], want)
        assert np.all(xs[:, i, k:] == 0.0)
        _, alone, p_alone = simulate_delay_difference(prob, dt, T,
                                                      with_forcing=True)
        assert alone.shape == want.shape
        assert_close(alone, want)
        assert np.array_equal(p_alone, np.array([prob.p(t) for t in ts]))
        assert np.array_equal(ps[:, i, :k], p_alone)


def test_delay_margin_is_checked_for_every_member():
    ok = sinusoid_member(-1.0, 1.0, 0.5, 0.05, 1.0, 1.0, 1.0, 1.0, 0.0, False)
    tight = sinusoid_member(-1.0, 1.0, 0.1, 0.09, 1.0, 1.0, 1.0, 1.0, 0.0, False)
    with pytest.raises(ValueError, match="delay margin"):
        simulate_delay_difference([ok, tight], 5e-3, 1.0)


member_params = st.tuples(
    st.floats(-2.0, -0.1), st.floats(0.0, 2.0), st.floats(0.2, 0.8),
    st.floats(0.0, 0.15), st.floats(0.1, 6.0), st.floats(0.1, 6.0),
    st.floats(0.1, 2.0), st.floats(0.0, 5.0), st.floats(0.0, 2 * math.pi),
    st.booleans())


@settings(max_examples=15, deadline=None)
@given(st.lists(member_params, min_size=1, max_size=4))
def test_batched_pass_matches_reference_on_random_sinusoidal_members(params):
    members = [sinusoid_member(*prm) for prm in params]
    dt, T = 5e-3, 1.0
    _, xs = simulate_delay_difference(members, dt, T)
    for i, prob in enumerate(members):
        _, want = reference_simulate(prob, dt, T)
        assert_close(xs[:, i], want)


def as_lambdas(prob):
    """``prob`` with its signal objects rebuilt as ``math.sin`` lambdas from
    the signals' fields, evaluated one sample per call."""
    def unit(sig):
        return lambda t: sig.D0 + sig.amplitude * math.sin(sig.omega * t
                                                           + sig.phase)

    def vector(sig):
        if sig.kind == "zero":
            return lambda t: np.zeros(sig.m)
        return lambda t: np.array([sig.amplitude[0]
                                   * math.sin(sig.omega * t + sig.phase)])

    x0 = vector(prob.x0) if isinstance(prob.x0, DisturbanceSignal) else prob.x0
    return Lemma2Problem(A=prob.A, C=prob.C, r=prob.r, eps=prob.eps,
                         d=unit(prob.d), q=unit(prob.q), p=vector(prob.p),
                         x0=x0)


@pytest.mark.parametrize("seed", [0, 4, 31])
def test_suite_report_equals_the_report_of_its_members_as_lambdas(seed):
    p = cli.LEMMA2_DEFAULTS
    sigma, _ = synthesis.sigma_rate(1.0, -p["a"], abs(p["a"]), p["c_norm"],
                                    p["r"], p["eps"])
    problems = cli.lemma2_suite(seed=seed, **p)
    assert all(isinstance(pr.d, DelaySignal) for pr in problems)
    got = lemma2_validate(problems, sigma, 1.0, -p["a"], T=4.0)
    want = lemma2_validate([as_lambdas(pr) for pr in problems], sigma, 1.0,
                           -p["a"], T=4.0)
    assert got == want


def test_mixed_signal_and_callable_members_match_per_member_runs():
    # dt = 2^-8 makes r - eps = 3 dt exact for the tight member, whose
    # blocks are one step long; the other members have other r.
    dt, T = 2.0 ** -8, 1.5
    suite = cli.lemma2_suite(seed=7, n_members=2)
    tight = Lemma2Problem(
        A=np.array([[-1.0]]), C=np.array([[1.5]]), r=0.25, eps=0.25 - 3 * dt,
        d=DelaySignal("sinusoid", D0=0.0, amplitude=1.0, omega=4.0),
        q=lambda t: math.cos(3.0 * t),
        p=DisturbanceSignal("sinusoid", amplitude=(0.7,), omega=2.0),
        x0=DisturbanceSignal("zero"))
    pair = Lemma2Problem(
        A=np.array([[-1.0, 0.3], [0.0, -2.0]]), C=0.5 * np.eye(2), r=0.6,
        eps=0.1, d=lambda t: math.sin(5.0 * t),
        q=DelaySignal("sinusoid", D0=0.0, amplitude=1.0, omega=1.3, phase=0.2),
        p=DisturbanceSignal("sinusoid", m=2, amplitude=(0.4, -0.9), omega=1.7),
        x0=lambda t: np.array([math.cos(t), 0.5]))
    members = [*suite, tight, pair,
               sinusoid_member(-0.5, 0.7, 0.3, 0.10, 5.0, 2.0, 0.8, 1.0, 1.1,
                               True)]
    _, xs = simulate_delay_difference(members, dt, T)
    for i, prob in enumerate(members):
        k = prob.A.shape[0]
        _, want = reference_simulate(prob, dt, T)
        assert_close(xs[:, i, :k], want)


def test_signal_members_are_sampled_once_per_block(monkeypatch):
    # The sinusoid members of each signal class are stacked into one signal
    # of that class, called once per block on all members at once: no member
    # is called on its own and no time is sampled twice.
    calls = {DelaySignal: [], DisturbanceSignal: []}  # (times, members)

    def counting(cls):
        formula = cls.__call__

        def call(self, t):
            assert np.ndim(self.omega) == 1, "a member was called on its own"
            calls[cls].append((len(t), len(self.omega)))
            return formula(self, t)
        return call

    for cls in calls:
        monkeypatch.setattr(cls, "__call__", counting(cls))
    r, eps, dt, T = 0.5, 0.05, 5e-3, 2.0
    members = [Lemma2Problem(
        A=np.array([[-1.0]]), C=np.array([[2.0]]), r=r, eps=eps,
        d=DelaySignal("sinusoid", D0=0.0, amplitude=1.0, omega=3.0 + i),
        q=DelaySignal("sinusoid", D0=0.0, amplitude=1.0, omega=2.0 - i / 2),
        p=DisturbanceSignal("sinusoid", amplitude=(1.0,), omega=1.0 + i),
        x0=lambda t: np.array([0.0])) for i in range(3)]
    ts, _ = simulate_delay_difference(members, dt, T)
    J = len(ts) - 1
    # d and q of the 3 members in one call, p in another, on each block's
    # 2 L + 1 step and half-step times.
    for cls, width in ((DelaySignal, 6), (DisturbanceSignal, 3)):
        got = calls[cls]
        assert all(k == width and size % 2 == 1 for size, k in got), cls
        steps = [(size - 1) // 2 for size, _ in got]
        assert sum(steps) == J and steps[0] >= int((r - eps) / dt) - 4
        assert len(got) == math.ceil(J / steps[0]) < J / 50


def test_zero_members_are_not_sampled(monkeypatch):
    # The sampler's output starts at zero, so a zero member costs no call.
    called = []

    def recording(f, ts, _sample=iss_certifier._sample):
        called.append(f)
        return _sample(f, ts)

    monkeypatch.setattr(iss_certifier, "_sample", recording)
    zero = DisturbanceSignal("zero", m=2)
    ramp = DisturbanceSignal("smoothed_step", m=2, amplitude=(1.0, -0.5))
    other = (lambda t: np.array([t, 2.0 * t]))
    ts = np.linspace(0.0, 1.5, 7)
    got = iss_certifier._sampler([zero, ramp, zero, other], 3)(ts)
    assert called == [ramp, other]
    assert got.shape == (7, 4, 3) and np.all(got[:, [0, 2]] == 0.0)
    assert np.array_equal(got[:, 1, :2], ramp(ts))
    assert np.array_equal(got[:, 3, :2], np.array([other(t) for t in ts]))
    assert np.all(got[:, 1:, 2] == 0.0)


def test_stiff_members_step_on_dt_split_into_equal_parts():
    # h max|eig A| <= 2.5 splits dt = 5e-3 into 4 parts at a = -2000; the
    # ratios are taken on that grid.  Past 16 parts the batch is refused.
    a, eps = -2000.0, 1e-5
    sigma, _ = synthesis.sigma_rate(1.0, -a, -a, 2.0, 0.5, eps)
    problems = cli.lemma2_suite(seed=2, n_members=4, a=a, eps=eps)
    got = lemma2_validate(problems, sigma, 1.0, -a, T=0.5)
    want = reference_validate(problems, sigma, 1.0, -a, dt=5e-3 / 4, T=0.5)
    assert got["M"] == pytest.approx(want["M"], rel=REL_TOL)
    assert got["N"] == pytest.approx(want["N"], rel=REL_TOL)
    for g, w in zip(got["members"], want["members"]):
        assert g["ratio"] == pytest.approx(w["ratio"], rel=REL_TOL)
    stiff = cli.lemma2_suite(n_members=2, a=-8001.0, c_norm=0.0)
    with pytest.raises(CertifierError, match=r"\|a\| = max\|eig A\| = 8001"):
        lemma2_validate(stiff, 1.0, 1.0, 8001.0, T=0.5)


def test_stiff_member_matches_the_reference_over_a_long_horizon():
    # h |a| = 2.5 at a = -2000: |R| < 1, so the block scan's doubled powers
    # of R stay bounded over T = 4 (3200 steps).
    members = [sinusoid_member(-2000.0, 2.0, 0.5, 0.05, 3.0, 1.0, 1.5, 2.0,
                               0.3, forced) for forced in (False, True)]
    dt, T = 5e-3 / 4, 4.0
    _, xs = simulate_delay_difference(members, dt, T)
    for i, prob in enumerate(members):
        _, want = reference_simulate(prob, dt, T)
        assert_close(xs[:, i], want)


def test_resonant_growth_member_matches_the_reference():
    g = GROWTH_MEMBER
    prob = Lemma2Problem(
        A=np.array([[g["a"]]]), C=np.array([[g["c"]]]), r=g["r"],
        eps=g["eps"], d=lambda t: math.sin(6.0 * t),
        q=lambda t: math.sin(6.0 * t + 0.5), p=lambda t: np.zeros(1),
        x0=lambda t: np.array([1.0]))
    ts, xs = simulate_delay_difference(prob, g["dt"], g["T"])
    _, want = reference_simulate(prob, g["dt"], g["T"])
    assert np.max(np.abs(want)) > 10 * np.max(np.abs(want[ts <= g["T"] / 2]))
    assert_close(xs, want)


def test_uncoupled_member_converges_at_fourth_order():
    # With C = 0 the member is x' = a x + p with a constant history, whose
    # closed form the RK4 steps approach at order 4.
    a, x0, amp, w, ph, T = -1.0, 1.2, 0.8, 1.7, 0.4, 4.0
    prob = Lemma2Problem(
        A=np.array([[a]]), C=np.array([[0.0]]), r=0.5, eps=0.05,
        d=DelaySignal("sinusoid", D0=0.0, amplitude=1.0, omega=2.0),
        q=DelaySignal("sinusoid", D0=0.0, amplitude=1.0, omega=1.0),
        p=DisturbanceSignal("sinusoid", amplitude=(amp,), omega=w, phase=ph),
        x0=lambda t: np.array([x0]))
    errors = []
    for dt in (0.1, 0.05, 0.025):
        ts, xs = simulate_delay_difference(prob, dt, T)
        errors.append(np.max(np.abs(xs[:, 0] - checks.forced_decay(
            ts, a, x0, amp, w, ph))))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= 3.8), orders


def test_non_normal_member_matches_the_reference():
    prob = Lemma2Problem(
        A=np.array([[-1.0, 0.3], [0.0, -2.0]]), C=np.array([[0.5, 0.2],
                                                            [0.0, 0.5]]),
        r=0.6, eps=0.1,
        d=DelaySignal("sinusoid", D0=0.0, amplitude=1.0, omega=5.0),
        q=DelaySignal("sinusoid", D0=0.0, amplitude=1.0, omega=1.3, phase=0.2),
        p=DisturbanceSignal("sinusoid", m=2, amplitude=(0.4, -0.9), omega=1.7),
        x0=lambda t: np.array([math.cos(t), 0.5]))
    dt, T = 5e-3, 4.0
    _, xs = simulate_delay_difference(prob, dt, T)
    _, want = reference_simulate(prob, dt, T)
    assert_close(xs, want)
