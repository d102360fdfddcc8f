"""The implicit predictor feedback law and its per-step implementation.

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
unstable head modes.  Because the law is linear in u_j, it is solved
directly as
(I - phi K G_0) u_j = phi (K Y_j + d2_j + K sum_{k>=1} G_k u_{j-k}), checked
against ``SOLVE_CONDITIONING_FLOOR`` and ``SOLVE_RESIDUAL_TOL``.
``sim_engine.simulate`` stacks the laws of B consecutive steps into one
lower block-triangular system: the diagonal blocks are I - phi_j K G_0, the
block below the diagonal at lag k is -phi_j K G_k, and the taps on samples
before the block move to the right-hand side.  The residual bound holds for
every row of that system.  ``ControlHistory`` and ``PredictorController``
are the one-scenario, one-step form of the same computation.  Every linear
history read (``ControlHistory.interp``, the engine's delayed reads and the
Artstein residual's reads of Z) goes through ``linear_stencil``, which also
owns the covered-span check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecpredError
from .numerics import exp_moments, smoothstep


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
        x = (np.asarray(t, dtype=float) - self.start_time) / self.dt
        j0, w0, w1 = linear_stencil(x, self.filled)
        return w0[..., np.newaxis] * self.samples[j0] \
            + w1[..., np.newaxis] * self.samples[j0 + 1]


def linear_stencil(x, hi):
    """Row j0 and weights (w0, w1) of the linear reads at grid positions
    ``x`` from samples 0..hi: the read is w0 s[j0] + w1 s[j0 + 1].  A read
    more than 1e-9 steps outside [0, hi] raises ControllerError."""
    x = np.asarray(x, dtype=float)
    if np.any(x < -1e-9) or np.any(x > hi + 1e-9):
        raise ControllerError("history read outside covered span")
    x = np.clip(x, 0.0, hi)
    j0 = np.minimum(x.astype(int), hi - 1)
    w = x - j0
    return j0, 1.0 - w, w


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
