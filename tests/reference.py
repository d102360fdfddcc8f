"""Per-step references for the closed-loop engine and the certifier.

``StepHistory`` and ``StepController`` are the former per-step
``controller.ControlHistory`` and ``controller.PredictorController``: one
scenario's samples, appended one step at a time, and the implicit law
solved as one m x m system per step.  ``reference_simulate`` is the former
one-scenario ``sim_engine.simulate``: the same exponential plant step, with
every delayed read taken through ``StepHistory.interp`` and the control
from ``StepController.step``, one step at a time.  ``control_step`` solves the implicit
law by per-segment quadrature (``windowed_exp_integral`` over
``segment_exp_integral``) and Picard iteration instead of the predictor
taps and a direct solve.  ``reference_oracle_simulate`` is the RK4 oracle
one Simpson node and one coarse step at a time, each node read through
``_CubicHistory.eval`` or the newest-segment cubic, with no tap row and no
block of delayed reads, and its control law solved by fixed-point
iteration.  ``_CubicHistory`` is the former oracle history: one scenario's
samples, appended one step at a time, and Catmull-Rom reads clamped to the
filled rows.

``fading_memory_sup_brute`` is the direct form of the fading-memory sup
recursion, and ``reference_windowed_fading_sup`` the causal-window sup one
grid point at a time.  ``reference_check_ratios`` and ``reference_fit`` are
the former envelope check and constant fit, with each envelope's right-hand
side and each channel's shapes written out by hand, and
``reference_artstein_residual`` is the former per-point Artstein residual.
``reference_matrix_exp_norm`` is the former per-time matrix-exponential norm
through the eigendecomposition, with its ``expm`` fallback.
``reference_trajectory_to_csv`` is the former one-process trajectory writer,
one ``np.savetxt`` call.
"""

import math

import numpy as np
from scipy.linalg import expm

from specpred.controller import (
    SOLVE_CONDITIONING_FLOOR,
    SOLVE_RESIDUAL_TOL,
    ControllerError,
    linear_stencil,
    predictor_taps,
    transition,
)
from specpred.iss_certifier import (
    FIT_INFLATION,
    _channel_of,
    _max_ratio,
    _ratio_check,
    _signal_norms,
    causal_lag_steps,
    fading_memory_sup,
    windowed_fading_sup,
)
from specpred.numerics import (catmull_rom, cubic_stencil, exp_moments,
                               simpson_weights)
from specpred.sim_engine import (ScenarioError, _csv_columns, _trajectory,
                                  compose_rk4_substeps)


class StepHistory:
    """Uniformly sampled control history with linear interpolation.

    Samples live on the grid start_time + j*dt.  The history is pre-loaded
    with zeros on [-(D0 + delta) - dt, 0], matching the zero initial control.
    Storage is a flat array sized for the whole run (trajectories keep the
    full control record anyway); reads are clamped to the filled prefix.
    """

    def __init__(self, dt: float, D0: float, delta: float, T_final: float,
                 m: int = 1, dtype=float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = float(dt)
        self.m = int(m)
        # Grid reaches back one sample beyond -(D0+delta) so any delayed read
        # falls inside the covered span.
        self.n_pre = int(np.ceil((D0 + delta) / dt - 1e-12)) + 1
        n_total = self.n_pre + int(np.ceil(T_final / dt - 1e-12)) + 2
        self.samples = np.zeros((n_total, self.m), dtype=dtype)
        self.start_time = -self.n_pre * self.dt
        self.filled = self.n_pre  # index of the latest valid sample (t = 0)

    @property
    def latest_time(self) -> float:
        return self.start_time + self.filled * self.dt

    def index_of(self, t: float) -> float:
        return (t - self.start_time) / self.dt

    def append(self, t: float, u) -> None:
        j = self.filled + 1
        expected = self.start_time + j * self.dt
        if abs(t - expected) > 1e-9 * max(1.0, abs(t)):
            raise ControllerError(
                f"history append off-grid: got t={t}, expected {expected}"
            )
        if j >= len(self.samples):
            raise ControllerError("history capacity exceeded")
        self.samples[j] = u
        self.filled = j

    def interp(self, t):
        """Linear interpolation of the recorded control at time(s) t."""
        x = (np.asarray(t, dtype=float) - self.start_time) / self.dt
        j0, w0, w1 = linear_stencil(x, self.filled)
        return w0[..., np.newaxis] * self.samples[j0] \
            + w1[..., np.newaxis] * self.samples[j0 + 1]


class StepController:
    """Stateful wrapper advancing the implicit law on a uniform grid.

    The predictor taps are built once; each step evaluates the convolution
    over the recorded samples and solves the m x m linear system for u(t).
    """

    def __init__(self, certificate, dt: float, T_final: float):
        self.cert = certificate
        self.dt = float(dt)
        self.K = np.atleast_2d(np.asarray(certificate.K))
        m = self.K.shape[0]
        self.history = StepHistory(
            dt, certificate.D0, certificate.delta_max, T_final, m=m,
            dtype=complex if np.iscomplexobj(certificate.K) else float,
        )
        if dt > certificate.D0:
            raise ControllerError("controller dt must not exceed the nominal delay")
        taps = predictor_taps(certificate.lambdas, certificate.B,
                              certificate.D0, dt)
        self.L = len(taps) - 1
        self.KG0 = self.K @ taps[0]
        # Past taps G_L..G_1 flattened to match the contiguous sample block
        # u_{j-L}..u_{j-1}: I_past = block.ravel() @ past_taps.
        self.past_taps = taps[:0:-1].transpose(0, 2, 1).reshape(self.L * m, -1)
        self._phi = None

    def _system(self, phi: float):
        """I - phi K G_0, checked against the conditioning floor."""
        if phi != self._phi:
            M = np.eye(self.K.shape[0]) - phi * self.KG0
            smin = np.linalg.svd(M, compute_uv=False)[-1]
            if smin < SOLVE_CONDITIONING_FLOOR:
                raise ControllerError(
                    f"implicit control solve ill-conditioned: "
                    f"sigma_min(I - phi K G_0) = {smin:.3g} at phi={phi:.6g}"
                )
            self._phi, self._M = phi, M
        return self._M

    def step(self, t: float, Y_t, d2_t):
        """Compute, record and return u(t); t must be the next grid time."""
        hist = self.history
        phi = transition(t, self.cert.t0)
        if phi == 0.0:
            u = np.zeros(self.K.shape[0], dtype=hist.samples.dtype)
        else:
            f = hist.filled
            I_past = hist.samples[f - self.L + 1: f + 1].ravel() @ self.past_taps
            rhs = phi * (self.K @ (Y_t + I_past) + d2_t)
            M = self._system(phi)
            u = np.linalg.solve(M, rhs)
            if not np.all(np.isfinite(u)):
                raise ControllerError(f"non-finite control value at t={t}")
            # Componentwise backward error, as the block solve reports it.
            residual = np.max(np.abs(M @ u - rhs) / np.maximum(
                np.abs(M) @ np.abs(u) + np.abs(rhs), np.finfo(float).tiny))
            if residual > SOLVE_RESIDUAL_TOL:
                raise ControllerError(
                    f"implicit equation backward error {residual:.3g} at t={t}")
        hist.append(t, u)
        return u


def reference_simulate(scenario):
    """Closed loop of one scenario through ``StepController``."""
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

    controller = StepController(cert, dt, scenario.T_final)
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

    return _trajectory(scenario, ts, c, u, v, {"dt": dt, "N_modes": n_modes})


class _CubicHistory:
    """Uniform-grid sample store with local cubic (Catmull-Rom) interpolation."""

    def __init__(self, dt, n_pre, n_total, m):
        self.dt = dt
        self.samples = np.zeros((n_total, m))
        self.filled = n_pre
        self.start_time = -n_pre * dt

    def append(self, value):
        self.filled += 1
        self.samples[self.filled] = value

    def eval(self, t):
        """Catmull-Rom reads at times ``t``, clamped to the filled rows."""
        start, w = cubic_stencil((np.asarray(t) - self.start_time) / self.dt,
                                 self.filled)
        rows = start[..., np.newaxis] + np.arange(4)
        weights = catmull_rom(np.eye(4), w[..., np.newaxis])
        return np.einsum("...k,...ka->...a", weights, self.samples[rows])


def reference_oracle_simulate(scenario, refine: int = 20):
    """Per-node RK4 oracle: the same method as ``oracle_simulate``.

    Each Simpson node of the predictor integral is read on its own.  A node
    after t_{k-2}, inside the last two steps before the candidate u_k, reads
    the Lagrange cubic through u_{k-3}, u_{k-2}, u_{k-1} and the candidate;
    every other node reads the Catmull-Rom cubic of the stored samples.
    """
    cert = scenario.certificate
    desc = scenario.descriptor
    dt = scenario.dt
    J = int(round(scenario.T_final / dt))
    ts = dt * np.arange(J + 1)
    n_modes = scenario.N_modes
    m = desc.num_inputs
    lam_all = desc.eigenvalues(n_modes)
    B_all = desc.input_matrix(n_modes)
    K = np.atleast_2d(cert.K)
    lam_head = cert.lambdas
    B_head = cert.B
    D0 = cert.D0

    hf = dt / refine
    c = np.zeros((J + 1, n_modes))
    X0 = np.asarray(scenario.X0_coeffs)
    c[0, : len(X0)] = X0
    u = np.zeros((J + 1, m))
    v = np.zeros((J + 1, m))
    n_pre = int(np.ceil((D0 + cert.delta_max) / dt)) + 2
    hist = _CubicHistory(dt, n_pre, n_pre + J + 2, m)
    R, Wf = compose_rk4_substeps(lam_all, hf, refine)

    D_ts = np.asarray(scenario.delay(ts), dtype=float)
    d1 = scenario.d1
    d2_ts = np.asarray(scenario.d2(ts))

    n_seg = max(int(np.ceil(D0 / dt * 2)) * 2, 4)   # Simpson panels

    def kernel_weights(tau, n_seg):
        w = simpson_weights(n_seg + 1, (tau[0] - tau[-1]) / n_seg)
        return w * np.exp(np.multiply.outer(lam_head, tau))

    def solve_u(j, Yj):
        t = ts[j]
        phi = transition(t, cert.t0)
        if phi == 0.0:
            return np.zeros(m)
        # The window [t - D0, t] reads u = 0 before t = 0 from the pre-buffer.
        s = np.linspace(t - D0, t, n_seg + 1)
        kw = kernel_weights(t - s - D0, n_seg)
        # Every node but the last (the candidate itself) is read on its own.
        x = (s[:-1] - t) / dt + 2.0             # steps past t_{k-2}
        old = x <= 0.0
        f_nodes = np.zeros((n_seg, m))
        f_nodes[old] = hist.eval(s[:-1][old])
        x = x[~old, np.newaxis]
        newest = hist.samples[hist.filled - 2: hist.filled + 1]  # u_{k-3..k-1}
        f_nodes[~old] = (-x * (x - 1) * (x - 2) / 6 * newest[0]
                         + (x + 1) * (x - 1) * (x - 2) / 2 * newest[1]
                         - (x + 1) * x * (x - 2) / 2 * newest[2])
        known = np.einsum("ns,sn->n", kw[:, :-1], f_nodes @ B_head.T)
        l3 = np.zeros(n_seg)
        l3[~old] = ((x + 1) * x * (x - 1) / 6)[:, 0]
        w_last = (kw[:, -1] + kw[:, :-1] @ l3)[:, np.newaxis] * B_head
        u_c = hist.samples[hist.filled].copy()
        drive = K @ Yj + d2_ts[j]
        for _ in range(100):
            u_new = phi * (drive + K @ (known + w_last @ u_c))
            if np.linalg.norm(u_new - u_c) <= 1e-12 * max(
                    1.0, np.linalg.norm(u_new)):
                return u_new
            u_c = u_new
        raise ScenarioError(
            f"oracle: control fixed point did not converge at step {j}")

    v[0] = hist.eval(ts[0] - D_ts[0]) + np.asarray(d1(ts[0]))
    for j in range(J):
        tf = ts[j] + (hf / 2.0) * np.arange(2 * refine + 1)
        vf = hist.eval(tf - np.asarray(scenario.delay(tf), dtype=float)) \
            + np.asarray(d1(tf))
        x = R * c[j] + np.einsum("qn,qn->n", Wf, vf @ B_all.T)
        c[j + 1] = x
        if not np.all(np.isfinite(x)):
            raise ScenarioError(f"oracle: non-finite state at step {j + 1}")
        v[j + 1] = vf[-1]
        u[j + 1] = solve_u(j + 1, c[j + 1, : cert.N0])
        hist.append(u[j + 1])

    return _trajectory(scenario, ts, c, u, v,
                       {"dt": dt, "refine": refine, "N_modes": n_modes})


def segment_exp_integral(lam, t_ref, s0, s1, u0, u1):
    """Exact integral of e^{lam (t_ref - s)} * u(s) over [s0, s1] for linear u.

    u is the linear interpolant with u(s0) = u0, u(s1) = u1.  ``lam`` may be
    an array of modes; u0/u1 scalars or arrays matching lam's shape.
    """
    h = np.asarray(s1 - s0)
    m0, m1 = exp_moments(lam, h)
    pre = np.exp(lam * (np.asarray(t_ref) - s0))
    slope_w = np.where(h != 0, m1 / np.where(h != 0, h, 1.0), 0.0)
    return pre * (u0 * m0 + (u1 - u0) * slope_w)


def windowed_exp_integral(history: StepHistory, lo: float, hi: float,
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


def predictor_integral(history: StepHistory, t: float, lambdas, B, D0: float):
    """Exact integral of exp((t-s-D0) A) B u(s) over [max(t-D0,0), t]."""
    return windowed_exp_integral(history, max(t - D0, 0.0), t, t, lambdas, B, D0)


# Picard iteration limits of ``control_step``.
PICARD_MAX_ITERS = 50
PICARD_TOL = 1e-12


def control_step(Y_t, d2_t, t: float, certificate, history: StepHistory):
    """Solve the implicit control law at time t and return u(t).

    Per-segment reference for ``StepController.step``, which evaluates
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
    phi = transition(t, certificate.t0)
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


def reference_windowed_fading_sup(norms, kappa: float, dt: float,
                                  lag_steps: int) -> np.ndarray:
    """The causal-window sup one grid point at a time, from its own
    ``fading_memory_sup``."""
    norms = np.asarray(norms, dtype=float)
    s = fading_memory_sup(norms, kappa, dt)
    out = np.empty_like(s)
    for j in range(len(s)):
        i = j - lag_steps
        if i <= 0:
            out[j] = math.exp(-kappa * dt * j) * norms[0]
        else:
            out[j] = math.exp(-kappa * dt * lag_steps) * s[i]
    return out


def reference_matrix_exp_norm(A, ts):
    """2-norm of exp(A t) per time through the eigendecomposition, or per-time
    ``expm`` when the eigenvector matrix is close to singular."""
    A = np.asarray(A, dtype=complex)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty(ts.shape)
    mu, V = np.linalg.eig(A)
    if np.linalg.cond(V) < 1e12:
        Vinv = np.linalg.inv(V)
        for i, t in enumerate(ts):
            out[i] = np.linalg.norm(V @ np.diag(np.exp(mu * t)) @ Vinv, 2)
    else:
        for i, t in enumerate(ts):
            out[i] = np.linalg.norm(expm(A * t), 2)
    return out


def reference_check_ratios(traj, cert):
    """Worst ratio of each envelope, with the right-hand sides written out."""
    ts = traj.t
    dt = ts[1] - ts[0]
    k, s = cert.kappa, cert.sigma
    n1, n2 = _signal_norms(traj.scenario, ts)
    X0 = traj.norm_upper[0]
    lag = causal_lag_steps(cert.D0, cert.delta_max, dt)
    s1_k = fading_memory_sup(n1, k, dt)
    s2_k = fading_memory_sup(n2, k, dt)
    s1_s = fading_memory_sup(n1, s, dt)
    s2_s = fading_memory_sup(n2, s, dt)
    w2_k = windowed_fading_sup(n2, k, dt, lag)
    w2_s = windowed_fading_sup(n2, s, dt, lag)
    xb, ub, yb, zb = (cert.x_constants, cert.u_constants,
                      cert.y_constants, cert.z_constants)
    y0 = np.linalg.norm(traj.Y[0])
    rhs = {
        "state": xb["Cbar1"] * np.exp(-k * ts) * X0 + xb["Cbar2"] * s1_k
        + xb["Cbar3"] * w2_k,
        "control": ub["Cbar4"] * np.exp(-k * ts) * X0 + ub["Cbar5"] * s1_k
        + ub["Cbar6"] * s2_k,
        "head_state": yb["C1"] * np.exp(-s * ts) * X0 + yb["C2"] * s1_s
        + yb["C3"] * w2_s,
        "transformed_state": zb["gamma3"] * np.exp(-s * ts) * y0
        + zb["gamma4"] * s1_s + zb["gamma5"] * s2_s,
    }
    observed = {"state": traj.norm_upper,
                "control": np.linalg.norm(traj.u, axis=1),
                "head_state": np.linalg.norm(traj.Y, axis=1),
                "transformed_state": np.linalg.norm(traj.Z, axis=1)}
    return {name: _ratio_check(observed[name], rhs[name], ts, {},
                               {})["worst_ratio"] for name in rhs}


# Fitted constants of the |u|, |Y| and |Z| envelopes on each channel.
_CHANNEL_CONSTANTS = {"x0": ("Cbar4", "C1", "gamma3"),
                      "d1": ("Cbar5", "C2", "gamma4"),
                      "d2": ("Cbar6", "C3", "gamma5")}


def reference_channel_bounds(channel, traj, cert):
    """Envelope shapes that the channel's |u|, |Y| and |Z| constants scale."""
    ts = traj.t
    dt = ts[1] - ts[0]
    k, s = cert.kappa, cert.sigma
    if channel == "x0":
        X0, y0 = traj.norm_upper[0], np.linalg.norm(traj.Y[0])
        return np.exp(-k * ts) * X0, np.exp(-s * ts) * X0, np.exp(-s * ts) * y0
    n1, n2 = _signal_norms(traj.scenario, ts)
    if channel == "d1":
        n1_s = fading_memory_sup(n1, s, dt)
        return fading_memory_sup(n1, k, dt), n1_s, n1_s
    lag = causal_lag_steps(cert.D0, cert.delta_max, dt)
    return (fading_memory_sup(n2, k, dt), windowed_fading_sup(n2, s, dt, lag),
            fading_memory_sup(n2, s, dt))


def reference_fit(trajectories, cert):
    """The u, Y and Z constant banks fitted channel by channel."""
    fits = {key: 0.0 for keys in _CHANNEL_CONSTANTS.values() for key in keys}
    for traj in trajectories:
        ch = _channel_of(traj.scenario)
        norms = (np.linalg.norm(traj.u, axis=1),
                 np.linalg.norm(traj.Y, axis=1),
                 np.linalg.norm(traj.Z, axis=1))
        for key, num, den in zip(_CHANNEL_CONSTANTS[ch], norms,
                                 reference_channel_bounds(ch, traj, cert)):
            fits[key] = max(fits[key], _max_ratio(num, den))
    fits = {key: val * FIT_INFLATION for key, val in fits.items()}
    return {bank: {key: fits[key] for key in keys} for bank, keys in (
        ("u_constants", ("Cbar4", "Cbar5", "Cbar6")),
        ("y_constants", ("C1", "C2", "C3")),
        ("z_constants", ("gamma3", "gamma4", "gamma5")))}


def reference_artstein_residual(trajectory, cert):
    """Artstein residual one interior grid point at a time."""
    scen = trajectory.scenario
    ts = trajectory.t
    dt = ts[1] - ts[0]
    Z = trajectory.Z
    A = np.diag(cert.lambdas)
    B = cert.B
    K = np.atleast_2d(cert.K)
    E = expm(-cert.D0 * A)
    BK = B @ K
    EB = E @ B

    def phiZ(x):
        """[phi Z](x) with Z linearly interpolated; zero for x < 0."""
        if x < 0.0:
            return np.zeros(Z.shape[1], dtype=Z.dtype)
        idx = min(x / dt, len(ts) - 1.001)
        j0 = int(idx)
        w = idx - j0
        zx = (1.0 - w) * Z[j0] + w * Z[j0 + 1]
        phi = transition(x, cert.t0)
        return phi * zx

    def phid2(x):
        if x < 0.0:
            return np.zeros(B.shape[1])
        phi = transition(x, cert.t0)
        return phi * np.asarray(scen.d2(np.asarray(x)))

    res = []
    d1_ts = np.asarray(scen.d1(ts))
    d2_ts = np.asarray(scen.d2(ts))
    D_ts = np.asarray(scen.delay(ts), dtype=float)
    for j in range(1, len(ts) - 1):
        t = ts[j]
        dZ = (Z[j + 1] - Z[j - 1]) / (2.0 * dt)
        phi = transition(t, cert.t0)
        rhs = (A + phi * (E @ BK)) @ Z[j]
        rhs = rhs + BK @ (phiZ(t - D_ts[j]) - phiZ(t - cert.D0))
        rhs = rhs + B @ d1_ts[j] + phi * (EB @ d2_ts[j])
        rhs = rhs + B @ (phid2(t - D_ts[j]) - phid2(t - cert.D0))
        res.append(np.linalg.norm(dZ - rhs))
    return ts[1:-1], np.asarray(res)


def reference_trajectory_to_csv(traj, path):
    """The trajectory CSV as one ``np.savetxt`` call writes it."""
    cols = _csv_columns(traj.coeffs.shape[1], traj.Z.shape[1], traj.u.shape[1])
    data = np.column_stack([
        traj.t, traj.coeffs, traj.Y, traj.Z,
        traj.u, traj.v, traj.norm_lower, traj.norm_upper,
    ])
    np.savetxt(path, data, fmt="%.17g", delimiter=", ",
               header=", ".join(cols), comments="")
