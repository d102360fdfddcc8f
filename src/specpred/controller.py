"""Runtime implementation of the implicit predictor feedback law.

The control value at time t solves

    u(t) = phi(t) * { K Y(t) + d2(t) + K * I[u](t) },
    I[u](t) = int_{max(t-D0,0)}^t exp((t-s-D0) A) B u(s) ds,

where the integral is taken over the piecewise-linear interpolant of the
sampled control history, so the final segment depends on u(t) itself.

On a uniform grid t_j = j dt the integral is a fixed-tap convolution of the
samples, I(t_j) = sum_{k=0..L} G_k u_{j-k} with L = ceil(D0/dt); the taps are
exact exponential moments, built once per run (``predictor_taps``).  The
convolution is evaluated explicitly at every step: the recursive sliding-window
update of the same integral amplifies rounding like exp(lambda_1 t) on the
unstable head modes.  Because the law is linear in u_j, ``PredictorController``
solves (I - phi K G_0) u_j = phi (K Y_j + d2_j + K sum_{k>=1} G_k u_{j-k})
directly.  ``control_step`` (per-segment quadrature plus warm-started Picard
iteration) and ``predictor_integral`` (``numerics.segment_exp_integral``
per segment) are kept as the per-step references for that fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecpredError
from .numerics import exp_moments, segment_exp_integral, smoothstep


class ControllerError(SpecpredError, RuntimeError):
    pass


@dataclass(frozen=True)
class TransitionSignal:
    """C^1 smoothstep ramp: 0 on (-inf, 0], 1 on [t0, inf)."""

    t0: float

    def __post_init__(self):
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")


def transition_eval(signal: TransitionSignal, t: float):
    """Return (phi(t), phi'(t)) for the cubic smoothstep transition."""
    s = np.clip(np.asarray(t, dtype=float) / signal.t0, 0.0, 1.0)
    phi = smoothstep(s)
    dphi = 6.0 * s * (1.0 - s) / signal.t0
    if phi.ndim == 0:
        return float(phi), float(dphi)
    return phi, dphi


class ControlHistory:
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
        t = np.asarray(t, dtype=float)
        x = (t - self.start_time) / self.dt
        if np.any(x < -1e-9) or np.any(x > self.filled + 1e-9):
            raise ControllerError("history read outside covered span")
        x = np.clip(x, 0.0, self.filled)
        j0 = np.minimum(x.astype(int), self.filled - 1)
        w = x - j0
        vals = (1.0 - w)[..., np.newaxis] * self.samples[j0] \
            + w[..., np.newaxis] * self.samples[j0 + 1]
        return vals


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


def predictor_taps(lambdas, B, D0: float, dt: float):
    """Taps G_k, shape (L+1, N0, m), with I(t_j) = sum_k G_k u_{j-k} exactly.

    The window [t_j - D0, t_j] splits into L-1 full grid segments and one
    oldest segment of length r = D0 - (L-1) dt, whose lower end interpolates
    between u_{j-L} and u_{j-L+1}; a non-integer D0/dt only moves weight
    between the last two taps.  Samples before t = 0 are zero and u(0) = 0,
    so for t_j < D0 the same taps give the window clipped at zero.
    """
    lambdas = np.asarray(lambdas)
    B = np.atleast_2d(np.asarray(B))
    L = int(np.ceil(D0 / dt - 1e-9))
    r = D0 - (L - 1) * dt
    # Full segment [t_j-(k+1)dt, t_j-k dt], k = 0..L-2: kernel prefactor at
    # its lower end times the linear-interpolation moments.
    m0, m1 = exp_moments(lambdas, dt)
    pre = np.exp(lambdas * (dt * np.arange(1, L)[:, np.newaxis] - D0))
    g = np.zeros((L + 1, len(lambdas)), dtype=pre.dtype)
    g[: L - 1] += pre * (m1 / dt)
    g[1:L] += pre * (m0 - m1 / dt)
    # Oldest segment [t_j-D0, t_j-(L-1)dt]: prefactor exp(0) = 1.
    m0r, m1r = exp_moments(lambdas, r)
    w = (L * dt - D0) / dt   # weight of u_{j-L+1} in u(t_j - D0)
    g[L - 1] += (m0r - m1r / r) * w + m1r / r
    g[L] += (m0r - m1r / r) * (1.0 - w)
    return g[:, :, np.newaxis] * B[np.newaxis, :, :]


# Picard iteration limits of the reference ``control_step``.
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


# Smallest admissible sigma_min(I - phi K G_0); below it the direct solve
# would amplify rounding by more than ~1e6.
SOLVE_CONDITIONING_FLOOR = 1e-6
# Relative residual bound on the implicit equation after the direct solve.
SOLVE_RESIDUAL_TOL = 1e-12


class PredictorController:
    """Stateful wrapper advancing the implicit law on a uniform grid.

    The predictor taps are built once; each step evaluates the convolution
    over the recorded samples and solves the m x m linear system for u(t).
    """

    def __init__(self, certificate, dt: float, T_final: float):
        self.cert = certificate
        self.dt = float(dt)
        self.transition = TransitionSignal(certificate.t0)
        self.K = np.atleast_2d(np.asarray(certificate.K))
        m = self.K.shape[0]
        self.history = ControlHistory(
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
        phi, _ = transition_eval(self.transition, t)
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
            residual = np.linalg.norm(M @ u - rhs)
            if residual > SOLVE_RESIDUAL_TOL * max(1.0, np.linalg.norm(u)):
                raise ControllerError(
                    f"implicit equation residual {residual:.3g} at t={t}")
        hist.append(t, u)
        return u
