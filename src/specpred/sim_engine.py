"""Closed-loop simulation of the modal system with delayed boundary input.

Two engines share one output schema:

* ``simulate`` advances every mode with the exact variation-of-constants step
  (unconditionally stable for the stiff tail), with the boundary input
  piecewise-linear on each step.  It steps S >= 1 scenarios that share a
  descriptor, certificate, dt, horizon and mode count together; one scenario
  is the case S = 1.  The delayed reads are fixed up front because D(t) is
  exogenous.  Since D(t) >= D0 - delta_max > 0, the state at t_j depends
  only on controls many steps old, and the only same-time coupling is the
  predictor law, which is linear in u (see ``controller``).  So the run
  advances one causal block of B <= ``BLOCK_STEPS`` steps at a time: it
  gathers the block's delayed reads, all from earlier blocks, in one indexed
  expression, advances the modes over the block with a doubling scan, and
  solves the block's B controls as one lower block-triangular system.  The
  state, control and residual checks run on every row of the block;
* ``oracle_simulate`` is an independent cross-check: classical RK4 at dt/20,
  with the substeps of each coarse step composed once into per-mode
  coefficients, cubic history interpolation and its own direct control
  solve (Simpson quadrature of the predictor integral).  Its loop-invariant
  stencils are built once: the Simpson sum is one tap row over the newest
  samples, and the delayed reads and forcing of a block of steps are built
  together.

Both evaluate the same implicit predictor feedback through the delayed
channel v(t) = u(t - D(t)) + d1(t).  ``artstein_transform`` evaluates the
transformed state Z with the controller's predictor taps as one convolution,
and ``artstein_residual`` checks its dynamics on the whole grid at once.
The engine's linear reads use ``controller.linear_stencil`` and the oracle's
cubic reads ``numerics.cubic_stencil``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .controller import (
    SOLVE_CONDITIONING_FLOOR,
    SOLVE_RESIDUAL_TOL,
    ControllerError,
    TransitionSignal,
    linear_stencil,
    predictor_taps,
    transition_eval,
)
from .errors import SpecpredError
from .numerics import (catmull_rom, cubic_stencil, exp_moments,
                       simpson_weights, smoothstep)
from .spectral_model import SystemDescriptor
from .synthesis import Certificate, _array_from_list, _array_to_list

DEFAULT_MODE_DECAY_FACTOR = 50.0
MAX_MODES = 400
# Longest block of steps ``simulate`` solves at once, and the longest block
# whose delayed reads ``oracle_simulate`` builds at once; the delay may
# shorten it.
BLOCK_STEPS = 128
# RK4 substeps per coarse step of ``oracle_simulate``.
ORACLE_REFINE = 20


class ScenarioError(SpecpredError, ValueError):
    pass


# ---------------------------------------------------------------------------
# Signal library

@dataclass(frozen=True)
class DelaySignal:
    """Time-varying input delay D(t) within [D0 - amplitude, D0 + amplitude]."""

    kind: str              # constant | sinusoid | table
    D0: float
    amplitude: float = 0.0
    omega: float = 0.0
    phase: float = 0.0
    table: Optional[tuple] = None   # (times, values) knots, PCHIP interpolated

    def __call__(self, t):
        """D(t); a table holds its end values outside the knot span, and PCHIP
        does not overshoot between knots, so the knots bound it."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(self.D0, t.shape).copy() if t.ndim else self.D0
        if self.kind == "sinusoid":
            return self.D0 + self.amplitude * np.sin(self.omega * t + self.phase)
        if self.kind == "table":
            from scipy.interpolate import PchipInterpolator

            knots_t, knots_v = self.table
            f = PchipInterpolator(np.asarray(knots_t), np.asarray(knots_v))
            return f(np.clip(t, knots_t[0], knots_t[-1]))
        raise ScenarioError(f"unknown delay kind {self.kind!r}")

    def max_amplitude(self) -> float:
        if self.kind == "constant":
            return 0.0
        if self.kind == "sinusoid":
            return abs(self.amplitude)
        if self.kind == "table":
            return float(np.max(np.abs(np.asarray(self.table[1]) - self.D0)))
        raise ScenarioError(f"unknown delay kind {self.kind!r}")


@dataclass(frozen=True)
class DisturbanceSignal:
    """C^1 boundary disturbance with values in K^m.

    kinds: zero | sinusoid | smoothed_step | exp_decay.  ``amplitude`` is a
    length-m vector (scalars are broadcast).
    """

    kind: str
    m: int = 1
    amplitude: tuple = (0.0,)
    omega: float = 0.0
    phase: float = 0.0
    t_on: float = 0.0
    ramp: float = 1.0      # smoothed_step rise time (smoothstep kernel)
    rate: float = 1.0      # exp_decay rate

    def _amp(self):
        a = np.asarray(self.amplitude, dtype=float)
        if a.ndim == 0:
            a = np.full(self.m, float(a))
        return a

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        a = self._amp()
        if self.kind == "zero":
            shape = t.shape + (self.m,)
            return np.zeros(shape)
        if self.kind == "sinusoid":
            base = np.sin(self.omega * t + self.phase)
        elif self.kind == "smoothed_step":
            base = smoothstep(np.clip((t - self.t_on) / self.ramp, 0.0, 1.0))
        elif self.kind == "exp_decay":
            base = np.exp(-self.rate * np.maximum(t, 0.0))
        else:
            raise ScenarioError(f"unknown disturbance kind {self.kind!r}")
        return np.asarray(base)[..., np.newaxis] * a


def make_delay(spec: dict, T_final: float = 100.0) -> DelaySignal:
    """Build a delay signal from its config mapping; it must stay positive
    on the horizon [0, T_final]."""
    kind = spec.get("kind", "constant")
    sig = DelaySignal(
        kind=kind,
        D0=float(spec["D0"]),
        amplitude=float(spec.get("amplitude", 0.0)),
        omega=float(spec.get("omega", 0.0)),
        phase=float(spec.get("phase", 0.0)),
        table=(tuple(spec["times"]), tuple(spec["values"])) if kind == "table" else None,
    )
    if np.any(np.asarray(sig(np.linspace(0.0, T_final, 1001))) <= 0):
        raise ScenarioError("delay signal must stay positive")
    return sig


def make_disturbance(spec: dict, m: int = 1) -> DisturbanceSignal:
    """Build a disturbance signal from its config mapping."""
    amp = spec.get("amplitude", 0.0)
    amp = tuple(np.atleast_1d(np.asarray(amp, dtype=float)).tolist())
    return DisturbanceSignal(
        kind=spec.get("kind", "zero"),
        m=m,
        amplitude=amp,
        omega=float(spec.get("omega", 0.0)),
        phase=float(spec.get("phase", 0.0)),
        t_on=float(spec.get("t_on", 0.0)),
        ramp=float(spec.get("ramp", 1.0)),
        rate=float(spec.get("rate", 1.0)),
    )


# ---------------------------------------------------------------------------
# Scenario / trajectory containers

@dataclass(frozen=True)
class Scenario:
    descriptor: SystemDescriptor
    certificate: Certificate
    delay: DelaySignal
    d1: DisturbanceSignal
    d2: DisturbanceSignal
    X0_coeffs: np.ndarray
    dt: float
    T_final: float
    N_modes: int
    certified: bool = True
    label: str = ""

    def __post_init__(self):
        cert = self.certificate
        if self.N_modes < cert.N0:
            raise ScenarioError("N_modes must be at least N0")
        if self.dt <= 0 or self.T_final <= 0:
            raise ScenarioError("dt and T_final must be positive")
        if self.certified and self.delay.max_amplitude() > cert.delta_max * (1 + 1e-12):
            raise ScenarioError(
                f"delay amplitude {self.delay.max_amplitude():.4g} exceeds "
                f"certified delta_max {cert.delta_max:.4g}; "
                "set certified=False for an uncertified run"
            )
        amp = self.delay.max_amplitude()
        if self.dt > cert.D0 - amp:
            raise ScenarioError("dt must be smaller than the minimum delay D0 - delta")


@dataclass
class Trajectory:
    t: np.ndarray                 # (J+1,)
    coeffs: np.ndarray            # (J+1, N_modes)
    u: np.ndarray                 # (J+1, m)
    v: np.ndarray                 # (J+1, m)
    Z: np.ndarray                 # (J+1, N0)
    norm_lower: np.ndarray
    norm_upper: np.ndarray
    scenario: Optional[Scenario] = None
    engine: str = "exp"
    meta: dict = field(default_factory=dict)

    @property
    def Y(self) -> np.ndarray:
        n0 = self.Z.shape[1]
        return self.coeffs[:, :n0]


def default_mode_count(descriptor: SystemDescriptor, alpha: float) -> int:
    """Smallest n with Re(lambda_n) <= -DEFAULT_MODE_DECAY_FACTOR * alpha, capped."""
    target = -DEFAULT_MODE_DECAY_FACTOR * alpha
    for n in range(1, MAX_MODES + 1):
        if complex(descriptor.eigenvalue_law(n)).real <= target:
            return n
    return MAX_MODES


def state_norm(coeffs, m_R: float, M_R: float):
    """Riesz sandwich bounds on ||X||_H from modal coefficients.

    Returns (lower, upper) = (sqrt(m_R S), sqrt(M_R S)) with S = sum |c_n|^2,
    evaluated along the leading axis if ``coeffs`` is 2-D.
    """
    coeffs = np.asarray(coeffs)
    S = np.sum(np.abs(coeffs) ** 2, axis=-1)
    return np.sqrt(m_R * S), np.sqrt(M_R * S)


def _trajectory(scenario: Scenario, ts, c, u, v, engine: str,
                meta: dict, taps=None) -> Trajectory:
    """Common epilogue of both engines: state norms, the record and Z
    (with the run's predictor taps when the engine has built them)."""
    desc = scenario.descriptor
    lower, upper = state_norm(c, desc.riesz_lower, desc.riesz_upper)
    traj = Trajectory(t=ts, coeffs=c, u=u, v=v, Z=None,
                      norm_lower=lower, norm_upper=upper,
                      scenario=scenario, engine=engine, meta=meta)
    traj.Z = artstein_transform(traj, scenario.certificate, taps=taps)
    return traj


# ---------------------------------------------------------------------------
# Primary engine: exact exponential per-mode stepping

class Trajectories(list):
    """Member trajectories of one batched run, which share the time grid ``t``."""

    @property
    def t(self) -> np.ndarray:
        return self[0].t


def simulate(scenario):
    """Integrate the closed loop with the exponential per-mode stepper.

    ``scenario`` is one Scenario or a sequence of them that share the same
    descriptor and certificate objects, dt, T_final and N_modes; a sequence
    of S members is stepped together (state (S, J+1, N_modes), control
    history (S, n_pre+J+1, m)) and one scenario is the case S = 1.  The run
    advances one causal block of B steps at a time (see the module
    docstring).  Returns a Trajectory, or ``Trajectories`` for a sequence.
    """
    single = isinstance(scenario, Scenario)
    scens = [scenario] if single else list(scenario)
    if not scens:
        raise ScenarioError("simulate needs at least one scenario")
    first = scens[0]
    if any(s.descriptor is not first.descriptor
           or s.certificate is not first.certificate
           or (s.dt, s.T_final, s.N_modes)
           != (first.dt, first.T_final, first.N_modes) for s in scens):
        raise ScenarioError("batched scenarios must share descriptor, "
                            "certificate, dt, T_final and N_modes")
    cert, desc, dt = first.certificate, first.descriptor, first.dt
    S = len(scens)
    J = int(round(first.T_final / dt))
    ts = dt * np.arange(J + 1)
    n_modes = first.N_modes
    m = desc.num_inputs
    N0 = cert.N0
    lam_all = desc.eigenvalues(n_modes)
    B_all = desc.input_matrix(n_modes)
    cdtype = complex if desc.field == "complex" else float
    K = np.atleast_2d(np.asarray(cert.K))

    c = np.zeros((S, J + 1, n_modes), dtype=cdtype)
    for s, scen in enumerate(scens):
        X0 = np.asarray(scen.X0_coeffs, dtype=cdtype)
        c[s, 0, : len(X0)] = X0
    v = np.zeros((S, J + 1, m), dtype=cdtype)
    # Control history on the grid (i - n_pre) dt, zero on the pre-buffer
    # [-(D0 + delta_max) - dt, 0]; u_j is hist[:, n_pre + j] and u_0 = 0.
    # The pre-buffer follows the certificate, so a delay reaching past
    # D0 + delta_max + dt reads outside it.
    n_pre = int(np.ceil((cert.D0 + cert.delta_max) / dt - 1e-12)) + 1
    n_hist = n_pre + J + 1
    hist = np.zeros((S, n_hist, m), dtype=cdtype)
    flat = hist.reshape(S * n_hist, m)

    # Per-mode propagators and forcing weights for linear v on each step:
    # c_{j+1} = E c_j + W0 (B v_j) + W1 (B v_{j+1}), from the moments of the
    # kernel e^{lam (dt - tau)}, which stay finite on stiff modes.
    E = np.exp(lam_all * dt)
    n0, n1 = exp_moments(-lam_all, dt)
    W0 = n1 / dt
    W1 = n0 - W0

    # D(t) is exogenous, so every linear read u(t_j - D(t_j)) is fixed up
    # front: it may use u_0..u_{j-1} (u_0 alone at j = 0).
    x = np.stack([ts - np.asarray(sc.delay(ts), dtype=float) for sc in scens])
    x = (x + n_pre * dt) / dt                          # (S, J+1) grid indices
    i0, w0, w1 = linear_stencil(x, n_pre + np.maximum(np.arange(J + 1) - 1, 0))
    margin = np.min(x, axis=1)      # steps from the oldest history sample
    w0, w1 = w0[..., np.newaxis], w1[..., np.newaxis]
    # Block length: no read of a block may touch a sample of the same block.
    # Reads of step j reach u_{i0+1-n_pre}; an in-band delay keeps that at
    # least floor((D0 - delta_max)/dt) - 1 steps back, so that bound fixes
    # the length for in-band members whatever their batch-mates.
    lag = np.arange(J + 1) + n_pre - 1 - i0
    block = max(1, min(BLOCK_STEPS, int((cert.D0 - cert.delta_max) / dt) - 1,
                       int(np.min(lag[:, 1:], initial=BLOCK_STEPS))))
    i0 = i0 + n_hist * np.arange(S)[:, np.newaxis]              # rows of flat
    d1 = np.stack([np.asarray(sc.d1(ts)) for sc in scens])      # (S, J+1, m)
    d2 = np.stack([np.asarray(sc.d2(ts)) for sc in scens])

    # Predictor taps, split for the block of steps j0+1..j0+block: taps on
    # samples up to u_{j0} form the pre-block product H over the last L
    # samples u_{j0-L+1}..u_{j0}; taps on the block's own samples form the
    # strictly lower block-Toeplitz T, with K folded in.  Every sum is
    # evaluated in full: a sliding-window update amplifies rounding like
    # exp(lambda_1 t).
    taps = predictor_taps(cert.lambdas, cert.B, cert.D0, dt)
    L = len(taps) - 1
    tap_of = np.arange(1, block + 1)[:, np.newaxis] + np.arange(L - 1, -1, -1)
    H = np.where((tap_of <= L)[..., np.newaxis, np.newaxis],
                 taps[np.minimum(tap_of, L)], 0.0)         # (block, L, N0, m)
    H = H.transpose(0, 2, 1, 3).reshape(block * N0, L * m)
    tap_of = np.arange(block)[:, np.newaxis] - np.arange(block)
    T = np.where((tap_of > 0)[..., np.newaxis, np.newaxis],
                 K @ taps[np.maximum(tap_of, 0)], 0.0).transpose(0, 2, 1, 3)
    # I - phi K G_0 for every distinct phi of the run, conditioning-checked;
    # these are the diagonal blocks of the block systems.
    phi_all, _ = transition_eval(TransitionSignal(cert.t0), ts)
    phis, which = np.unique(phi_all, return_inverse=True)
    systems = np.eye(m) - phis[:, np.newaxis, np.newaxis] * (K @ taps[0])
    sigma = np.linalg.svd(systems, compute_uv=False)[:, -1]
    used = phis != 0.0
    for phi, smin in zip(phis[used], sigma[used]):
        if smin < SOLVE_CONDITIONING_FLOOR:
            raise ControllerError(
                f"implicit control solve ill-conditioned: "
                f"sigma_min(I - phi K G_0) = {smin:.3g} at phi={phi:.6g}")
    inverses = np.linalg.inv(systems)
    max_residual = np.zeros(S)

    v[:, 0] = w0[:, 0] * flat[i0[:, 0]] + w1[:, 0] * flat[i0[:, 0] + 1] \
        + d1[:, 0]
    for j0 in range(0, J, block):
        n = min(block, J - j0)
        rows = slice(j0 + 1, j0 + n + 1)
        ia = i0[:, rows]
        v[:, rows] = w0[:, rows] * flat[ia] + w1[:, rows] * flat[ia + 1] \
            + d1[:, rows]
        # Plant: c_{j+1} = E c_j + g_j over the block as a doubling scan.
        f = np.einsum("sjk,nk->sjn", v[:, j0: j0 + n + 1], B_all)
        cb = W0 * f[:, :-1] + W1 * f[:, 1:]
        cb[:, 0] += E * c[:, j0]
        Ed, d = E, 1
        while d < n:
            cb[:, d:] += Ed * cb[:, :-d]
            Ed, d = Ed * Ed, 2 * d
        c[:, rows] = cb
        # Control: row i of the block system is M_i u_i - phi_i sum_{i'<i}
        # T[i, i'] u_i' = phi_i (K Y_i + d2_i + K H-product_i), with
        # M_i = I - phi_i K G_0.  Scaling row i by M_i^{-1} leaves a unit
        # lower-triangular matrix, one for all members.
        w = which[rows]
        A = -phis[w][:, np.newaxis, np.newaxis, np.newaxis] * T[:n, :, :n]
        A[np.arange(n), :, np.arange(n)] = systems[w]
        unit = np.einsum("iab,ibkc->iakc", inverses[w], A).reshape(n * m, -1)
        window = hist[:, n_pre + j0 - L + 1: n_pre + j0 + 1].reshape(S, L * m)
        Q = cb[:, :, :N0] + np.einsum("sk,nk->sn", window,
                                      H[: n * N0]).reshape(S, n, N0)
        rhs = phis[w][:, np.newaxis] * (np.einsum("sin,an->sia", Q, K)
                                        + d2[:, rows])
        scaled = np.einsum("iab,sib->sia", inverses[w], rhs).reshape(S, -1)
        # One solve per member keeps its rounding independent of S.
        ub = np.stack([solve_triangular(unit, r, lower=True, unit_diagonal=True,
                                        check_finite=False)
                       for r in scaled]).reshape(S, n, m)
        residual = np.linalg.norm(
            np.einsum("iakc,skc->sia", A, ub) - rhs, axis=2) \
            / np.maximum(1.0, np.linalg.norm(ub, axis=2))
        faults = np.stack([~np.isfinite(cb).all(axis=(0, 2)),
                           ~np.isfinite(ub).all(axis=(0, 2)),
                           (residual > SOLVE_RESIDUAL_TOL).any(axis=0)], axis=1)
        if faults.any():
            # The first faulty row, checked in the per-step order: state,
            # then control, then residual.
            i, kind = np.argwhere(faults)[0]
            j = j0 + 1 + i
            if kind == 0:
                raise ScenarioError(f"non-finite state at step {j} "
                                    f"(t={ts[j]:.6g})")
            if kind == 1:
                raise ControllerError(f"non-finite control value at t={ts[j]}")
            raise ControllerError(f"implicit equation residual "
                                  f"{residual[:, i].max():.3g} at t={ts[j]}")
        np.maximum(max_residual, residual.max(axis=1), out=max_residual)
        hist[:, n_pre + j0 + 1: n_pre + j0 + n + 1] = ub

    meta = {"dt": dt, "N_modes": n_modes, "steps": J, "block_steps": block,
            "min_solve_sigma": float(np.min(sigma[used], initial=np.inf))}
    trajs = Trajectories(
        _trajectory(sc, ts, c[s], hist[s, n_pre:], v[s], "exp",
                    {**meta, "max_solve_residual": float(max_residual[s]),
                     "min_read_margin": float(margin[s])}, taps)
        for s, sc in enumerate(scens))
    return trajs[0] if single else trajs


def artstein_transform(trajectory: Trajectory, certificate: Certificate,
                       *, taps=None) -> np.ndarray:
    """Z(t) = Y(t) + int_{t-D0}^t exp((t-D0-s)A) B u(s) ds on the trajectory grid.

    The integral is the controller's predictor convolution with the same
    exact taps, evaluated for all grid points at once; u vanishes before
    t = 0, so the window clips at 0.  ``taps`` are the certificate's
    ``predictor_taps`` at the grid step, built here when not given.
    """
    cert = certificate
    ts = trajectory.t
    u = trajectory.u
    if taps is None:
        taps = predictor_taps(cert.lambdas, cert.B, cert.D0, ts[1] - ts[0])
    Z = np.array(trajectory.coeffs[:, : cert.N0])
    for n in range(Z.shape[1]):
        for a in range(u.shape[1]):
            Z[:, n] += np.convolve(u[:, a], taps[:, n, a])[: len(ts)]
    return Z


def artstein_residual(trajectory: Trajectory, certificate: Certificate):
    """Central-difference residual of the transformed dynamics at interior points.

    Returns (t_interior, residual_norms).  The residual compares dZ/dt with
    the delay-difference dynamics that the transformation satisfies in
    continuous time; both sides are O(dt^2) accurate, so halving dt should
    shrink the residual about fourfold.  Z is read linearly between grid
    points, and phi vanishes for t <= 0, so the delayed terms
    [phi Z](t - D) and [phi d2](t - D) read 0 before the run starts.
    """
    from scipy.linalg import expm

    cert = certificate
    scen = trajectory.scenario
    if scen is None:
        raise ValueError("trajectory must carry its scenario")
    ts = trajectory.t
    dt = ts[1] - ts[0]
    Z = trajectory.Z
    t = ts[1:-1]
    B = cert.B
    BK = B @ np.atleast_2d(cert.K)
    E = expm(-cert.D0 * np.diag(cert.lambdas))
    transition = TransitionSignal(cert.t0)
    phi, _ = transition_eval(transition, t)
    # The delayed (row 0) and nominal (row 1) arguments, clipped at 0.
    x = np.maximum(np.stack([t - np.asarray(scen.delay(t), dtype=float),
                             t - cert.D0]), 0.0)
    phi_x, _ = transition_eval(transition, x)
    j0, w0, w1 = linear_stencil(x / dt, len(ts) - 1)
    phi_z = phi_x[..., np.newaxis] * (w0[..., np.newaxis] * Z[j0]
                                      + w1[..., np.newaxis] * Z[j0 + 1])
    phi_d2 = phi_x[..., np.newaxis] * np.asarray(scen.d2(x))
    dZ = (Z[2:] - Z[:-2]) / (2.0 * dt)
    rhs = Z[1:-1] * cert.lambdas + phi[:, np.newaxis] * (Z[1:-1] @ (E @ BK).T) \
        + (phi_z[0] - phi_z[1]) @ BK.T + np.asarray(scen.d1(t)) @ B.T \
        + phi[:, np.newaxis] * (np.asarray(scen.d2(t)) @ (E @ B).T) \
        + (phi_d2[0] - phi_d2[1]) @ B.T
    return t, np.linalg.norm(dZ - rhs, axis=1)


# ---------------------------------------------------------------------------
# Independent oracle engine: RK4 + Simpson predictor quadrature

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

    def stencil(self, t, filled=None):
        """Rows (..., 4) and Catmull-Rom weights of the reads at times ``t``,
        clamped to the samples up to row ``filled`` (default: the newest)."""
        filled = self.filled if filled is None else filled
        start, w = cubic_stencil((np.asarray(t) - self.start_time) / self.dt,
                                 filled)
        rows = start[..., np.newaxis] + np.arange(4)
        return rows, catmull_rom(np.eye(4), w[..., np.newaxis])

    def eval(self, t):
        rows, weights = self.stencil(t)
        return np.einsum("...k,...ka->...a", weights, self.samples[rows])


def _predictor_tap(x, kw, B_head):
    """The oracle's Simpson predictor sum as one tap over history samples.

    ``x`` are the Simpson nodes in grid steps past the candidate sample (the
    candidate at 0, the newest stored sample at -1) and ``kw`` (N0, nodes)
    their Simpson weights times the kernel.  Nodes at or before x = -2 read
    the Catmull-Rom cubic of the stored samples; later nodes read the cubic
    through the three newest samples and the candidate.  Returns the tap
    (N0, L, m): column L-1 weighs the candidate, column L-1-i the sample i
    steps before it.
    """
    stored = x <= -2.0
    p1 = np.where(stored, np.minimum(np.floor(x), -3.0), -2.0)
    w = (x - p1)[:, np.newaxis]
    # Both cubics on the stencil p1-1..p1+2; the newest one is Lagrange.
    lagrange = np.hstack([-w * (w - 1) * (w - 2) / 6,
                          (w + 1) * (w - 1) * (w - 2) / 2,
                          -(w + 1) * w * (w - 2) / 2,
                          (w + 1) * w * (w - 1) / 6])
    weights = np.where(stored[:, np.newaxis], catmull_rom(np.eye(4), w),
                       lagrange)
    first = int(p1.min()) - 1
    cols = (p1.astype(int) - first)[:, np.newaxis] + np.arange(-1, 3)
    n_cols = 1 - first
    row = np.stack([np.bincount(cols.ravel(),
                                (k[:, np.newaxis] * weights).ravel(),
                                minlength=n_cols) for k in kw])
    return row[:, :, np.newaxis] * B_head[:, np.newaxis, :]


def rk4_substep(lam, h, x, f0, fm, f1):
    """One classical RK4 step of x' = lam x + f(t) with forcing f0, fm, f1
    at the start, midpoint and end of the step (elementwise in the modes)."""
    k1 = lam * x + f0
    k2 = lam * (x + 0.5 * h * k1) + fm
    k3 = lam * (x + 0.5 * h * k2) + fm
    k4 = lam * (x + h * k3) + f1
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def compose_rk4_substeps(lam, h, refine: int):
    """Coefficients of ``refine`` consecutive RK4 substeps as one affine map.

    Returns (R, W) with x_end = R * x + sum_q W[q] * f_q, where f_q is the
    forcing at the 2*refine+1 half-substep points; R = R(lam h)^refine for
    the RK4 stability polynomial R.  The map is built by running the RK4
    recurrence itself on its coefficient rows.
    """
    lam = np.asarray(lam)
    n_f = 2 * refine + 1
    # Row 0 is the coefficient of x, row 1+q that of f_q.
    coef = np.zeros((n_f + 1, len(lam)), dtype=np.result_type(lam, float))
    coef[0] = 1.0
    unit = np.eye(n_f + 1)[:, 1:, np.newaxis]      # unit[:, q] selects f_q
    for i in range(refine):
        coef = rk4_substep(lam, h, coef, unit[:, 2 * i], unit[:, 2 * i + 1],
                           unit[:, 2 * i + 2])
    return coef[0], coef[1:]


def oracle_simulate(scenario: Scenario) -> Trajectory:
    """Cross-check engine: classical RK4 at dt/``ORACLE_REFINE`` on the modal
    ODE.

    The substeps of each coarse step are composed once into per-mode
    coefficients (``compose_rk4_substeps``).  The delayed reads are cubic
    (Catmull-Rom).  Since D(t) is exogenous, the read stencils of a block of
    up to ``BLOCK_STEPS`` steps, each clamped as at its own step, and the
    block's forcing are built at once; the block halves until no stencil
    touches a sample the block has yet to compute.  The predictor integral
    is composite Simpson over cubically interpolated nodes.  That sum is
    linear in the history, so it is one tap row over the newest samples
    (``_predictor_tap``): built per step while the window is clipped at 0
    (t < D0), and once for t >= D0.  Nodes inside the last two steps read
    the cubic through the three newest samples and the candidate, so the
    control law at each coarse step is linear in the candidate, and it is
    solved directly as one m x m system.
    """
    cert = scenario.certificate
    desc = scenario.descriptor
    if desc.field != "real":
        raise ScenarioError("the RK4 oracle supports real-field plants")
    dt = scenario.dt
    J = int(round(scenario.T_final / dt))
    ts = dt * np.arange(J + 1)
    n_modes = scenario.N_modes
    m = desc.num_inputs
    lam_all = desc.eigenvalues(n_modes)
    B_all = desc.input_matrix(n_modes)
    K = np.atleast_2d(cert.K)
    D0 = cert.D0

    hf = dt / ORACLE_REFINE
    c = np.zeros((J + 1, n_modes))
    X0 = np.asarray(scenario.X0_coeffs)
    c[0, : len(X0)] = X0
    u = np.zeros((J + 1, m))
    v = np.zeros((J + 1, m))
    n_pre = int(np.ceil((D0 + cert.delta_max) / dt)) + 2
    hist = _CubicHistory(dt, n_pre, n_pre + J + 2, m)
    R, Wf = compose_rk4_substeps(lam_all, hf, ORACLE_REFINE)
    half = (hf / 2.0) * np.arange(2 * ORACLE_REFINE + 1)
    phi_all, _ = transition_eval(TransitionSignal(cert.t0), ts)
    d2_ts = np.asarray(scenario.d2(ts))

    def simpson_panels(width):
        # Even panel count, about four panels per coarse step.
        return max(int(np.ceil(width / dt * 2)) * 2, 4)

    def k_tap(s, t):
        """K times the tap of the Simpson nodes ``s`` at time t, split into
        the stored samples' part (m, L*m) and the candidate's (m, m)."""
        n_seg = len(s) - 1
        tau = t - s - D0
        kw = simpson_weights(n_seg + 1, (tau[0] - tau[-1]) / n_seg) \
            * np.exp(np.multiply.outer(cert.lambdas, tau))
        tap = np.einsum("an,nlb->alb", K,
                        _predictor_tap((s - t) / dt, kw, cert.B))
        return tap[:, :-1].reshape(m, -1), tap[:, -1]

    n_full = simpson_panels(D0)
    full = k_tap(np.linspace(-D0, 0.0, n_full + 1), 0.0)

    def solve_u(j, drive):
        """The implicit law at ts[j], (I - phi cand) u = phi (drive + known
        window) with ``drive`` = K Y + d2 there, solved directly."""
        phi = phi_all[j]
        if phi == 0.0:
            return np.zeros(m)
        t = ts[j]
        known, cand = full if t >= D0 else \
            k_tap(np.linspace(0.0, t, simpson_panels(t) + 1), t)
        top = hist.filled + 1
        window = hist.samples[top - known.shape[1] // m: top].reshape(-1)
        return np.linalg.solve(np.eye(m) - phi * cand,
                               phi * (drive + known @ window))

    v[0] = hist.eval(ts[0] - scenario.delay(ts[0])) \
        + np.asarray(scenario.d1(ts[0]))
    block = BLOCK_STEPS
    j0 = 0
    while j0 < J:
        n = min(block, J - j0)
        while True:
            tf = ts[j0: j0 + n, np.newaxis] + half
            sf = tf - np.asarray(scenario.delay(tf), dtype=float)
            rows, wts = hist.stencil(sf, hist.filled
                                     + np.arange(n)[:, np.newaxis])
            if rows.max() <= hist.filled:
                break
            n = block = n // 2
        vf = np.einsum("jqk,jqka->jqa", wts, hist.samples[rows]) \
            + np.asarray(scenario.d1(tf))
        g = np.einsum("qn,jqn->jn", Wf, vf @ B_all.T)
        v[j0 + 1: j0 + n + 1] = vf[:, -1]
        # The block's states need none of its controls.
        for i in range(n):
            c[j0 + i + 1] = R * c[j0 + i] + g[i]
        steps = slice(j0 + 1, j0 + n + 1)
        bad = np.flatnonzero(~np.isfinite(c[steps]).all(axis=1))
        if bad.size:
            raise ScenarioError(
                f"oracle: non-finite state at step {j0 + 1 + bad[0]}")
        drive = c[steps, : cert.N0] @ K.T + d2_ts[steps]
        for i in range(n):
            u[j0 + i + 1] = solve_u(j0 + i + 1, drive[i])
            hist.append(u[j0 + i + 1])
        j0 += n

    return _trajectory(scenario, ts, c, u, v, "rk4",
                       {"dt": dt, "refine": ORACLE_REFINE, "N_modes": n_modes,
                        "block_steps": block})


# ---------------------------------------------------------------------------
# CSV export / import

def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write the trajectory with the fixed header schema (round-trip floats);
    the schema is real, so complex data raises ScenarioError."""
    if any(np.iscomplexobj(a) for a in (traj.coeffs, traj.Z, traj.u, traj.v)):
        raise ScenarioError("trajectory CSV holds real data only; "
                            "complex-field trajectories cannot be written")
    n = traj.coeffs.shape[1]
    n0 = traj.Z.shape[1]
    m = traj.u.shape[1]
    cols = (
        ["t"]
        + [f"c_{i}" for i in range(1, n + 1)]
        + [f"Y_{i}" for i in range(1, n0 + 1)]
        + [f"Z_{i}" for i in range(1, n0 + 1)]
        + [f"u_{i}" for i in range(1, m + 1)]
        + [f"v_{i}" for i in range(1, m + 1)]
        + ["norm_lower", "norm_upper"]
    )
    data = np.column_stack([
        traj.t, traj.coeffs, traj.Y, traj.Z,
        traj.u, traj.v, traj.norm_lower, traj.norm_upper,
    ])
    with open(path, "w") as fh:
        fh.write(", ".join(cols) + "\n")
        for row in data:
            fh.write(", ".join(repr(float(x)) for x in row) + "\n")


def trajectory_from_csv(path) -> Trajectory:
    with open(path) as fh:
        header = [h.strip() for h in fh.readline().split(",")]
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    n = sum(1 for h in header if h.startswith("c_"))
    n0 = sum(1 for h in header if h.startswith("Y_"))
    m = sum(1 for h in header if h.startswith("u_"))
    i = 1
    coeffs = data[:, i:i + n]; i += n
    i += n0  # Y is a view of coeffs
    Z = data[:, i:i + n0]; i += n0
    u = data[:, i:i + m]; i += m
    v = data[:, i:i + m]; i += m
    return Trajectory(
        t=data[:, 0], coeffs=coeffs, u=u, v=v, Z=Z,
        norm_lower=data[:, i], norm_upper=data[:, i + 1],
        engine="csv",
    )


# ---------------------------------------------------------------------------
# Scenario config files

def scenario_to_dict(scen: Scenario) -> dict:
    from .spectral_model import descriptor_to_dict

    def sig_dict(s):
        d = {"kind": s.kind}
        if isinstance(s, DelaySignal):
            d.update({"D0": s.D0, "amplitude": s.amplitude,
                      "omega": s.omega, "phase": s.phase})
            if s.table is not None:
                d.update({"times": list(s.table[0]), "values": list(s.table[1])})
        else:
            d.update({"amplitude": list(s._amp()), "omega": s.omega,
                      "phase": s.phase, "t_on": s.t_on, "ramp": s.ramp,
                      "rate": s.rate})
        return d

    return {
        "system": descriptor_to_dict(scen.descriptor),
        "certificate": None,   # stored separately; path patched in by the CLI
        "delay": sig_dict(scen.delay),
        "disturbance_d1": sig_dict(scen.d1),
        "disturbance_d2": sig_dict(scen.d2),
        "initial": {"X0_coeffs": _array_to_list(scen.X0_coeffs)},
        "integration": {"dt": scen.dt, "T_final": scen.T_final,
                        "N_modes": scen.N_modes, "certified": scen.certified},
    }


def scenario_from_dict(d: dict, certificate: Certificate) -> Scenario:
    from .spectral_model import descriptor_from_dict

    desc = descriptor_from_dict(d["system"])
    integ = d["integration"]
    return Scenario(
        descriptor=desc,
        certificate=certificate,
        delay=make_delay(d["delay"], float(integ["T_final"])),
        d1=make_disturbance(d["disturbance_d1"], m=desc.num_inputs),
        d2=make_disturbance(d["disturbance_d2"], m=desc.num_inputs),
        X0_coeffs=_array_from_list(d["initial"]["X0_coeffs"]),
        dt=float(integ["dt"]),
        T_final=float(integ["T_final"]),
        N_modes=int(integ["N_modes"]),
        certified=bool(integ.get("certified", True)),
    )


def save_scenario(scen: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scen), fh, indent=2)


def load_scenario(path, certificate: Certificate) -> Scenario:
    with open(path) as fh:
        d = json.load(fh)
    try:
        return scenario_from_dict(d, certificate)
    except (TypeError, AttributeError) as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from exc
