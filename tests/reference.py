"""Per-step references for the closed-loop engine.

``reference_simulate`` is the former one-scenario ``sim_engine.simulate``:
the same exponential plant step, with every delayed read taken through
``ControlHistory.interp`` and the control from ``PredictorController.step``,
one scenario and one step at a time.  ``control_step`` solves the implicit
law by per-segment quadrature (``windowed_exp_integral``) and Picard
iteration instead of the predictor taps and a direct solve.
``fading_memory_sup_brute`` is the direct form of the fading-memory sup
recursion.
"""

import math

import numpy as np

from specpred.controller import (
    ControlHistory,
    ControllerError,
    PredictorController,
    TransitionSignal,
    transition_eval,
)
from specpred.numerics import exp_moments, segment_exp_integral
from specpred.sim_engine import ScenarioError, _trajectory


def reference_simulate(scenario):
    """Closed loop of one scenario through ``PredictorController``."""
    cert = scenario.certificate
    desc = scenario.descriptor
    dt = scenario.dt
    J = int(round(scenario.T_final / dt))
    ts = dt * np.arange(J + 1)
    n_modes = scenario.N_modes
    m = desc.num_inputs
    lam_all = desc.eigenvalues(n_modes)
    B_all = desc.input_matrix(n_modes)
    cdtype = complex if desc.field == "complex" else float

    c = np.zeros((J + 1, n_modes), dtype=cdtype)
    X0 = np.asarray(scenario.X0_coeffs, dtype=cdtype)
    c[0, : len(X0)] = X0
    u = np.zeros((J + 1, m), dtype=cdtype)
    v = np.zeros((J + 1, m), dtype=cdtype)

    controller = PredictorController(cert, dt, scenario.T_final)
    history = controller.history

    E = np.exp(lam_all * dt)
    m0, m1 = exp_moments(lam_all, dt)
    W1 = E * (m1 / dt)
    W0 = E * m0 - W1

    D_ts = np.asarray(scenario.delay(ts), dtype=float)
    d1_ts = np.asarray(scenario.d1(ts))
    d2_ts = np.asarray(scenario.d2(ts))

    def delayed_u(j):
        return history.interp(np.asarray(ts[j] - D_ts[j]))

    v[0] = delayed_u(0) + d1_ts[0]
    for j in range(J):
        tn = ts[j + 1]
        v[j + 1] = delayed_u(j + 1) + d1_ts[j + 1]
        c[j + 1] = E * c[j] + W0 * (B_all @ v[j]) + W1 * (B_all @ v[j + 1])
        if not np.all(np.isfinite(c[j + 1])):
            raise ScenarioError(f"non-finite state at step {j + 1} (t={tn:.6g})")
        u[j + 1] = controller.step(tn, c[j + 1, : cert.N0], d2_ts[j + 1])

    return _trajectory(scenario, ts, c, u, v, "exp",
                       {"dt": dt, "N_modes": n_modes})


def windowed_exp_integral(history: ControlHistory, lo: float, hi: float,
                          t_ref: float, lambdas, B, D0: float):
    """Exact integral of exp((t_ref-s-D0) A) B u(s) over [lo, hi].

    u is the piecewise-linear interpolant of the history; partial end
    segments are clipped exactly.  Returns a length-N0 vector.
    """
    lambdas = np.asarray(lambdas)
    B = np.atleast_2d(np.asarray(B))
    if hi <= lo + 1e-15:
        return np.zeros(len(lambdas), dtype=B.dtype)
    if history.latest_time < hi - 1e-9 * max(1.0, abs(hi)):
        raise ControllerError("insufficient history for predictor integral")
    dt = history.dt
    # Segment boundaries: lo, then every grid point in (lo, hi), then hi.
    j_lo = int(np.floor(history.index_of(lo) + 1e-12)) + 1
    j_hi = int(np.ceil(history.index_of(hi) - 1e-12))
    grid_times = history.start_time + dt * np.arange(j_lo, j_hi)
    bounds = np.concatenate([[lo], grid_times, [hi]])
    u_nodes = history.interp(bounds)                      # (S+1, m)
    f_nodes = u_nodes @ B.T                               # (S+1, N0): (B u)_n
    s0, s1 = bounds[:-1], bounds[1:]
    keep = s1 - s0 > 1e-15
    seg = segment_exp_integral(lambdas, t_ref - D0, s0[keep, np.newaxis],
                               s1[keep, np.newaxis], f_nodes[:-1][keep],
                               f_nodes[1:][keep])
    return seg.sum(axis=0)


def predictor_integral(history: ControlHistory, t: float, lambdas, B, D0: float):
    """Exact integral of exp((t-s-D0) A) B u(s) over [max(t-D0,0), t]."""
    return windowed_exp_integral(history, max(t - D0, 0.0), t, t, lambdas, B, D0)


# Picard iteration limits of ``control_step``.
PICARD_MAX_ITERS = 50
PICARD_TOL = 1e-12


def control_step(Y_t, d2_t, t: float, certificate, history: ControlHistory,
                 transition: TransitionSignal):
    """Solve the implicit control law at time t and return u(t).

    Per-segment reference for ``PredictorController.step``, which evaluates
    the same integral through the predictor taps.  The history must be valid
    up to t - dt; the candidate u(t) enters the predictor integral only
    through the final interpolation segment, so the integral splits as
    I_known + W u(t) and the Picard iteration is cheap.
    The converged residual of the implicit equation is checked against
    ``PICARD_TOL`` and a ControllerError is raised on non-convergence.
    """
    K = np.atleast_2d(np.asarray(certificate.K))
    lambdas = certificate.lambdas
    B = certificate.B
    D0 = certificate.D0
    phi, _ = transition_eval(transition, t)
    m = K.shape[0]
    if phi == 0.0:
        return np.zeros(m, dtype=K.dtype)
    dt = history.dt
    Y_t = np.atleast_1d(np.asarray(Y_t))
    d2_t = np.zeros(m) if d2_t is None else np.atleast_1d(np.asarray(d2_t))
    lower = max(t - D0, 0.0)
    s_break = max(t - dt, lower)
    I_known = windowed_exp_integral(history, lower, s_break, t, lambdas, B, D0)
    h = t - s_break
    u_prev = history.samples[history.filled]
    # Final segment from s0 = t-h to t: linear from u(s0) to the candidate.
    if h > 1e-15:
        s0 = t - h
        u_s0 = history.interp(np.asarray(s0))
        m0, m1 = exp_moments(lambdas, h)
        pre = np.exp(lambdas * (h - D0))
        base = pre * m0
        slope = pre * (m1 / h)
        f_s0 = B @ u_s0
        I_fixed = I_known + (base - slope) * f_s0
        W = slope[:, np.newaxis] * B
    else:
        I_fixed = I_known
        W = np.zeros((len(lambdas), m), dtype=B.dtype)
    drive = K @ Y_t + d2_t
    u = np.array(u_prev, dtype=float if not np.iscomplexobj(K) else complex)
    for _ in range(PICARD_MAX_ITERS):
        u_new = phi * (drive + K @ (I_fixed + W @ u))
        step = np.linalg.norm(u_new - u)
        u = u_new
        if step < PICARD_TOL:
            break
    else:
        raise ControllerError(
            f"implicit control solve did not converge at t={t} "
            f"(contraction factor {np.linalg.norm(phi * K @ W, 2):.3g}); reduce dt"
        )
    if not np.all(np.isfinite(u)):
        raise ControllerError(f"non-finite control value at t={t}")
    residual = np.linalg.norm(u - phi * (drive + K @ (I_fixed + W @ u)))
    if residual > 10 * PICARD_TOL:
        raise ControllerError(f"implicit equation residual {residual:.3g} at t={t}")
    return u


def fading_memory_sup_brute(norms, kappa: float, dt: float) -> np.ndarray:
    """O(n^2) reference: direct maximum over per-sample decayed candidates.

    Each candidate e^{-kappa (t_j - t_i)} ||d_i|| is accumulated by one decay
    multiplication per step, so rounding matches the recursion exactly
    (multiplying by a positive factor is order preserving, hence commutes
    with the maximum bit-for-bit).
    """
    norms = np.asarray(norms, dtype=float)
    n = len(norms)
    decay = math.exp(-kappa * dt)
    cand = np.empty(n)
    out = np.empty(n)
    for j in range(n):
        cand[:j] *= decay
        cand[j] = norms[j]
        out[j] = cand[: j + 1].max()
    return out
