from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from reference import (
    StepController,
    StepHistory,
    control_step,
    predictor_integral,
    windowed_exp_integral,
)
from specpred.controller import (
    ControllerError,
    linear_stencil,
    predictor_taps,
    transition,
)


def test_transition_values_and_slope(exact_cert):
    assert transition(-1.0, 2.0) == 0.0
    assert transition(2.0, 2.0) == 1.0
    assert transition(1.0, 2.0) == pytest.approx(0.5)  # midpoint of the ramp
    # 6 s (1-s) / t0 at s = 1/2, by a central difference
    assert (transition(1.0 + 1e-6, 2.0) - transition(1.0 - 1e-6, 2.0)) / 2e-6 \
        == pytest.approx(0.75)
    with pytest.raises(ValueError, match="t0"):      # the certificate's check
        replace(exact_cert, t0=0.0)


def test_transition_c1_at_endpoints():
    # One-sided difference quotients at both ends of the ramp vanish like h.
    for h in (1e-4, 1e-6):
        assert 0 <= (transition(h, 1.0) - transition(0.0, 1.0)) / h <= 4 * h
        assert 0 <= (transition(1.0, 1.0) - transition(1.0 - h, 1.0)) / h <= 4 * h
        assert transition(-h, 1.0) == 0.0 and transition(1.0 + h, 1.0) == 1.0


def make_history(dt=0.01, D0=0.5, delta=0.05, T=3.0, m=1):
    return StepHistory(dt, D0, delta, T, m=m)


def test_history_preload_and_append():
    h = make_history()
    assert h.latest_time == pytest.approx(0.0)
    assert np.all(h.samples[: h.filled + 1] == 0.0)
    h.append(0.01, [2.0])
    assert h.latest_time == pytest.approx(0.01)
    assert h.interp(0.005)[0] == pytest.approx(1.0)
    with pytest.raises(ControllerError):
        h.append(0.05, [1.0])  # off grid
    with pytest.raises(ControllerError):
        h.interp(1.0)  # beyond the filled prefix


def test_history_interp_preload_zone():
    h = make_history()
    assert np.all(h.interp(np.array([-0.3, -0.55, 0.0])) == 0.0)


def test_linear_stencil_span_and_interp(rng):
    hi = 7
    for x in (-2e-9, hi + 2e-9):
        with pytest.raises(ControllerError, match="outside covered span"):
            linear_stencil(np.array([1.0, x]), hi)
    j0, w0, w1 = linear_stencil(np.array([-1e-10, hi + 1e-10]), hi)
    assert list(j0) == [0, hi - 1] and list(w1) == [0.0, 1.0]
    h = make_history(dt=0.01, D0=0.05, delta=0.0, T=0.2)
    fill_history_with(h, np.sin, 0.1)
    t = rng.uniform(-0.06, 0.1, size=50)
    j0, w0, w1 = linear_stencil((t - h.start_time) / h.dt, h.filled)
    read = w0 * h.samples[j0, 0] + w1 * h.samples[j0 + 1, 0]
    assert np.array_equal(h.interp(t)[:, 0], read)
    grid = h.start_time + h.dt * np.arange(h.filled + 1)
    assert np.allclose(read, np.interp(t, grid, h.samples[: h.filled + 1, 0]),
                       rtol=0, atol=1e-15)


def fill_history_with(h, fn, T):
    t = h.dt
    while t <= T + 1e-12:
        h.append(t, [fn(t)])
        t += h.dt


def test_predictor_integral_against_quadrature():
    # u(s) = sin(3 s) sampled on a fine grid; the piecewise-linear quadrature
    # must converge to the continuous integral at second order.
    lam = np.array([1.7, -4.0])
    B = np.array([[2.0], [-1.0]])
    D0 = 0.5
    t = 1.2

    def continuous(lam_n, b_n):
        return b_n * quad(
            lambda s: np.exp(lam_n * (t - s - D0)) * np.sin(3 * s),
            t - D0, t, limit=200,
        )[0]

    want = np.array([continuous(lam[i], B[i, 0]) for i in range(2)])
    errs = []
    for dt in (2e-3, 1e-3):
        h = StepHistory(dt, D0, 0.05, 2.0, m=1)
        fill_history_with(h, lambda s: np.sin(3 * s), 1.5)
        got = predictor_integral(h, t, lam, B, D0)
        errs.append(np.max(np.abs(got - want)))
    assert errs[1] < errs[0] / 3.5
    assert errs[1] < 1e-6


def test_predictor_integral_clips_at_zero():
    lam = np.array([0.5])
    B = np.array([[1.0]])
    h = StepHistory(0.01, 0.5, 0.05, 2.0, m=1)
    fill_history_with(h, lambda s: 1.0, 0.3)
    # t < D0: the window is [0, t]; u = 1 on (0, 0.3] with a step at 0.
    t = 0.3
    got = predictor_integral(h, t, lam, B, 0.5)
    want = quad(lambda s: np.exp(0.5 * (t - s - 0.5)) * 1.0, 0.01, t)[0] \
        + quad(lambda s: np.exp(0.5 * (t - s - 0.5)) * (s / 0.01), 0.0, 0.01)[0]
    assert got[0] == pytest.approx(want, rel=1e-10)


def test_windowed_integral_splits_additively():
    lam = np.array([1.0, -2.0])
    B = np.array([[1.0], [0.3]])
    h = StepHistory(0.01, 0.5, 0.05, 2.0, m=1)
    fill_history_with(h, lambda s: np.cos(2 * s), 1.0)
    t = 0.9
    whole = windowed_exp_integral(h, 0.4, t, t, lam, B, 0.5)
    parts = windowed_exp_integral(h, 0.4, 0.683, t, lam, B, 0.5) \
        + windowed_exp_integral(h, 0.683, t, t, lam, B, 0.5)
    assert np.allclose(whole, parts, rtol=1e-12)


@pytest.mark.parametrize("dt, t", [
    (1e-3, 0.9),   # D0/dt = 500, full window
    (3e-3, 0.9),   # D0/dt not an integer: partial oldest segment
    (1e-3, 0.3),   # t < D0: window clipped at zero
    (3e-3, 0.3),
])
def test_predictor_taps_match_windowed_integral(dt, t):
    lam = np.array([5.13, -4.0])
    B = np.array([[2.0, -0.5], [-1.0, 0.7]])
    D0 = 0.5
    h = StepHistory(dt, D0, 0.05, 2.0, m=2)
    for j in range(1, int(round(t / dt)) + 1):
        s = j * dt
        h.append(s, [np.sin(3 * s) + 0.2, np.cos(7 * s) * s])
    taps = predictor_taps(lam, B, D0, dt)
    L = len(taps) - 1
    newest_first = h.samples[h.filled - L: h.filled + 1][::-1]
    got = np.einsum("kna,ka->n", taps, newest_first)
    want = predictor_integral(h, t, lam, B, D0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_control_step_residual_direct(exact_cert):
    cert = exact_cert
    dt = 1e-3
    hist = StepHistory(dt, cert.D0, cert.delta_max, 3.0, m=1)
    K = np.atleast_2d(cert.K)
    t = 0.0
    Y = np.array([0.7])
    d2 = np.array([0.05])
    for _ in range(1500):
        t += dt
        u = control_step(Y * np.cos(t), d2, t, cert, hist)
        hist.append(t, u)
    phi = transition(t, cert.t0)
    I = predictor_integral(hist, t, cert.lambdas, cert.B, cert.D0)
    res = hist.samples[hist.filled] - phi * (K @ (Y * np.cos(t)) + d2 + K @ I)
    assert np.linalg.norm(res) < 1e-10


def test_control_step_zero_before_ramp(exact_cert):
    hist = StepHistory(1e-3, exact_cert.D0, exact_cert.delta_max, 1.0, m=1)
    u = control_step(np.array([5.0]), np.array([1.0]), 0.0, exact_cert, hist)
    assert u[0] == 0.0


def test_predictor_controller_guards(exact_cert):
    with pytest.raises(ControllerError):
        StepController(exact_cert, dt=exact_cert.D0 * 1.5, T_final=1.0)


def test_predictor_controller_rejects_singular_solve(exact_cert):
    dt = 1e-3
    G0 = predictor_taps(exact_cert.lambdas, exact_cert.B, exact_cert.D0, dt)[0]
    # N0 = m = 1 here: K G_0 = I makes I - phi K G_0 singular at phi = 1.
    ctrl = StepController(replace(exact_cert, K=np.linalg.inv(G0)), dt,
                               T_final=2.0)
    with pytest.raises(ControllerError, match="ill-conditioned"):
        for j in range(1, 2001):
            ctrl.step(j * dt, np.zeros(1), np.zeros(1))
    assert ctrl.history.latest_time < exact_cert.t0 + dt
