"""Closed-loop simulation of the modal system with delayed boundary input.

One closed loop, ``_closed_loop``, with two discretizations.  Since
D(t) >= D0 - delta_max > 0, the state at t_j depends only on controls many
steps old, and the only same-time coupling is the predictor law, which is
linear in u.  So a run advances one causal block of steps at a time: the
engine writes the block's delayed reads v and forcing g, the plant scan
c_{j+1} = E c_j + g_j runs by ``numerics.affine_scan``, and
``controller.PredictorController.step``, built with the engine's taps,
solves the block's controls, once per pattern of phis for the block's
system; one fault report checks every row.

* ``simulate`` steps each mode by its exact variation-of-constants map
  (unconditionally stable for the stiff tail) under a piecewise-linear
  input, with linear delayed reads (``controller.ControlHistory.interp``)
  and the controller's exact taps.  It steps S >= 1 scenarios that share a
  descriptor, certificate, dt, horizon and mode count together;
* ``oracle_simulate`` is an independent cross-check: classical RK4 at
  dt/20, its substeps composed into per-mode coefficients (E), cubic
  (Catmull-Rom) delayed reads, and Simpson quadrature of the predictor
  integral over the cubic history as its own taps (``_predictor_tap``).

Both evaluate the same implicit predictor feedback through the delayed
channel v(t) = u(t - D(t)) + d1(t).  ``artstein_transform`` evaluates the
transformed state Z with the controller's predictor taps as one convolution,
and ``artstein_residual`` checks its dynamics on the whole grid at once.
The Artstein residual's linear reads use ``controller.linear_stencil`` and
the oracle's cubic reads ``numerics.cubic_reader``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import stat
import tempfile
import warnings
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .controller import (
    SOLVE_RESIDUAL_TOL,
    ControlHistory,
    ControllerError,
    PredictorController,
    linear_stencil,
    predictor_taps,
    transition,
)
from .errors import KINDS, SpecpredError, load_json, read_section
from .numerics import (affine_scan, catmull_rom, cubic_reader, exp_moments,
                       history_rows, simpson_weights, smoothstep)
from .spectral_model import (SystemDescriptor, descriptor_from_dict,
                             descriptor_to_dict)
from .synthesis import Certificate, _array_from_list, _array_to_list

DEFAULT_MODE_DECAY_FACTOR = 50.0
MAX_MODES = 400
# Most steps round(T_final / dt) a scenario may take, and most rows of a
# lemma-2 history: the state array of one run at the built-in plant's 12
# modes is then at most 96 MB.
MAX_STEPS = 10**6
# Longest block of steps ``simulate`` solves at once, and the longest block
# whose delayed reads ``oracle_simulate`` builds at once; the delay may
# shorten it.
BLOCK_STEPS = 240
# RK4 substeps per coarse step of ``oracle_simulate``.
ORACLE_REFINE = 20


class ScenarioError(SpecpredError, ValueError):
    pass


# ---------------------------------------------------------------------------
# Signal library

@dataclass(frozen=True)
class DelaySignal:
    """Time-varying input delay D(t) within [D0 - amplitude, D0 + amplitude];
    the fields are the keys of a scenario's ``delay`` section."""

    kind: str              # constant | sinusoid | table
    D0: float
    amplitude: float = 0.0
    omega: float = 0.0
    phase: float = 0.0
    times: tuple = ()      # a table's knots (times, values), PCHIP interpolated;
    values: tuple = ()     # the other kinds ignore them

    def __post_init__(self):
        if self.kind not in ("constant", "sinusoid", "table"):
            raise ScenarioError(f"unknown delay kind {self.kind!r}")
        _check_finite(self, "delay",
                      ("D0", "amplitude", "omega", "phase", "times", "values"))
        if self.kind == "table" and not (
                len(self.times) == len(self.values) >= 2
                and (np.diff(self.times) > 0).all()):
            raise ScenarioError("delay times and values must be of one length "
                                "of at least 2, and times increasing")

    def __call__(self, t):
        """D(t); a table holds its end values outside the knot span, and PCHIP
        does not overshoot between knots, so the knots bound it."""
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(self.D0, t.shape).copy() if t.ndim else self.D0
        if self.kind == "sinusoid":
            return self.D0 + self.amplitude * np.sin(self.omega * t + self.phase)
        return self._pchip(np.clip(t, self.times[0], self.times[-1]))

    @functools.cached_property
    def _pchip(self):         # the table's interpolator, built once
        from scipy.interpolate import PchipInterpolator
        return PchipInterpolator(self.times, self.values)

    def max_amplitude(self) -> float:
        if self.kind == "constant":
            return 0.0
        if self.kind == "sinusoid":
            return abs(self.amplitude)
        return float(np.max(np.abs(np.asarray(self.values) - self.D0)))


@dataclass(frozen=True)
class DisturbanceSignal:
    """C^1 boundary disturbance with values in K^m.

    kinds: zero | sinusoid | smoothed_step | exp_decay.  ``amplitude`` is a
    length-m vector (a scalar or one entry is broadcast).
    """

    kind: str
    m: int = 1
    amplitude: tuple = (0.0,)
    omega: float = 0.0
    phase: float = 0.0
    t_on: float = 0.0
    ramp: float = 1.0      # smoothed_step rise time (smoothstep kernel)
    rate: float = 1.0      # exp_decay rate

    def __post_init__(self):
        if self.kind not in ("zero", "sinusoid", "smoothed_step", "exp_decay"):
            raise ScenarioError(f"unknown disturbance kind {self.kind!r}")

    def _amp(self):
        a = np.asarray(self.amplitude, dtype=float)
        if a.size == 1:
            a = np.full(self.m, a.item())
        return a

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        a = self._amp()
        if self.kind == "zero":
            return np.zeros(t.shape + (self.m,))
        if self.kind == "sinusoid":
            base = np.sin(self.omega * t + self.phase)
        elif self.kind == "smoothed_step":
            base = smoothstep(np.clip((t - self.t_on) / self.ramp, 0.0, 1.0))
        else:
            base = np.exp(-self.rate * np.maximum(t, 0.0))
        return np.asarray(base)[..., np.newaxis] * a


def _check_finite(sig, section: str, names) -> None:
    """A ScenarioError, led by ``section``, naming the first of the fields
    ``names`` of ``sig`` that is not finite (arrays too: a stacked signal)."""
    for name in names:
        if not np.isfinite(value := getattr(sig, name)).all():
            raise ScenarioError(f"{section} {name} must be finite, got {value}")


# A signal section's keys: its class's fields, each of the kind its type names.
_SIGNAL_KINDS = {cls: {f.name: KINDS[f.type] for f in fields(cls) if f.name != "m"}
                 for cls in (DelaySignal, DisturbanceSignal)}


def make_delay(spec: dict) -> DelaySignal:
    """The delay of a scenario's ``delay`` section (``errors.read_section``; an
    absent kind reads as constant); ``Scenario`` refuses one that reaches 0."""
    return DelaySignal(**{"kind": "constant", **read_section(
        spec, "delay", _SIGNAL_KINDS[DelaySignal], ScenarioError)})


def make_disturbance(spec: dict, m: int = 1,
                     section: str = "disturbance") -> DisturbanceSignal:
    """The disturbance of a scenario's ``section`` (``errors.read_section``;
    an absent kind reads as zero, and ``m`` is the plant's input count)."""
    return DisturbanceSignal(**{"kind": "zero", **read_section(
        spec, section, _SIGNAL_KINDS[DisturbanceSignal], ScenarioError)}, m=m)


# ---------------------------------------------------------------------------
# Scenario / trajectory containers

def _check_step(name: str, value: float) -> float:
    """``value`` if it is positive and finite, else a ScenarioError naming it."""
    if not 0 < value < np.inf:
        raise ScenarioError(f"{name} must be positive and finite, got {value}")
    return value


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

    def __post_init__(self):
        cert = self.certificate
        if not cert.N0 <= self.N_modes <= MAX_MODES:
            raise ScenarioError(f"N_modes must lie in [N0, MAX_MODES] = "
                                f"[{cert.N0}, {MAX_MODES}], got {self.N_modes}")
        explicit = self.descriptor.params.get("explicit_eigenvalues")
        if explicit is not None and self.N_modes > len(explicit):
            raise ScenarioError(f"N_modes = {self.N_modes} exceeds the length "
                                f"{len(explicit)} of the explicit spectrum")
        _check_step("dt", self.dt)
        _check_step("T_final", self.T_final)
        # T_final / dt is inf for a subnormal dt, which round() refuses.
        if not (steps := self.T_final / self.dt) <= MAX_STEPS:
            raise ScenarioError(f"T_final / dt = {self.T_final:g} / {self.dt:g}"
                                f" is {steps:g} steps, more than MAX_STEPS = "
                                f"{MAX_STEPS}")
        if self.steps < 1:
            raise ScenarioError(f"T_final = {self.T_final:g} is under half a step")
        if len(self.X0_coeffs) > self.N_modes:
            raise ScenarioError(f"X0_coeffs has {len(self.X0_coeffs)} entries, "
                                f"more than N_modes = {self.N_modes}")
        if not np.isfinite(self.X0_coeffs).all():
            raise ScenarioError("initial X0_coeffs has a non-finite entry")
        m = self.descriptor.num_inputs
        for section, sig in (("disturbance_d1", self.d1),
                             ("disturbance_d2", self.d2)):
            _check_finite(sig, section,
                          ("amplitude", "omega", "phase", "t_on", "rate"))
            _check_step(f"{section} ramp", sig.ramp)
            if sig._amp().shape != (m,):
                raise ScenarioError(f"{section} amplitude needs one entry "
                                    f"per input ({m})")
        # The delay's band [lo, hi] must lie in [D0 - delta_max, D0 + delta_max].
        amp = self.delay.max_amplitude()
        lo, hi = self.delay.D0 - amp, self.delay.D0 + amp
        if self.certified and not cert.admits(max(cert.D0 - lo, hi - cert.D0)):
            raise ScenarioError(
                f"delay band [{lo:.6g}, {hi:.6g}] leaves the certified band "
                f"[{cert.D0 - cert.delta_max:.6g}, {cert.D0 + cert.delta_max:.6g}]"
                "; set certified=False for an uncertified run")
        # A certified run also needs the plant head the certificate is for.
        if self.certified:
            for what, have, want in (
                    ("eigenvalues", self.descriptor.eigenvalues(cert.N0),
                     cert.lambdas),
                    ("input matrix", self.descriptor.input_matrix(cert.N0),
                     cert.B)):
                if np.shape(have) != np.shape(want) or np.linalg.norm(
                        have - want) > 1e-12 * np.linalg.norm(want):
                    raise ScenarioError(
                        f"plant head {what} {np.asarray(have).tolist()} "
                        f"differ from the certificate's "
                        f"{np.asarray(want).tolist()}; set certified=False "
                        "for an uncertified run")
        if self.dt > lo:
            raise ScenarioError(f"dt must be smaller than the minimum delay "
                                f"{lo:.6g}")

    @property
    def steps(self) -> int:
        """round(T_final / dt): the steps J of a run."""
        return round(self.T_final / self.dt)

    @property
    def grid(self) -> np.ndarray:
        """The grid t_j = j dt, j = 0..J, of a run."""
        return self.dt * np.arange(self.steps + 1)

    @property
    def initial_state(self) -> np.ndarray:
        """X0_coeffs zero-padded to N_modes: row 0 of a run's modal state."""
        X0 = np.asarray(self.X0_coeffs)
        return np.pad(X0, (0, self.N_modes - len(X0)))


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


def _trajectory(scenario: Scenario, ts, c, u, v, meta: dict,
                taps=None) -> Trajectory:
    """Common epilogue of both engines: state norms, the record and Z
    (with the run's predictor taps when the engine has built them).  A
    finite state whose norm overflows raises ScenarioError naming the first
    such step."""
    desc = scenario.descriptor
    with np.errstate(over="ignore"):
        lower, upper = state_norm(c, desc.riesz_lower, desc.riesz_upper)
    if not np.isfinite(upper).all():
        j = int(np.argmin(np.isfinite(upper)))
        raise ScenarioError(f"state norm ||X||_upper overflows at step {j} "
                            f"(t={ts[j]:.6g}); the run's state is too large "
                            "to bound")
    traj = Trajectory(t=ts, coeffs=c, u=u, v=v, Z=None,
                      norm_lower=lower, norm_upper=upper,
                      scenario=scenario, meta=meta)
    traj.Z = artstein_transform(traj, taps=taps)
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
    of S members is stepped together and one scenario is the case S = 1.
    Returns a Trajectory, or ``Trajectories`` for a sequence.
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
    ts, lam_all, B_all = _modal_plant(first)
    cdtype = complex if desc.field == "complex" else float

    v = np.zeros((len(scens), len(ts), desc.num_inputs), dtype=cdtype)
    hist = _control_history(scens, cdtype)

    # Per-mode propagators and forcing weights for linear v on each step:
    # c_{j+1} = E c_j + W0 (B v_j) + W1 (B v_{j+1}), from the moments of the
    # kernel e^{lam (dt - tau)}, which stay finite on stiff modes.
    E = np.exp(lam_all * dt)
    n0, n1 = exp_moments(-lam_all, dt)
    W0 = n1 / dt
    W1 = n0 - W0

    # Block length: no read of a block may touch a sample of the same block.
    # An in-band delay keeps every read at least floor((D0 - delta_max)/dt)
    # - 1 steps back, so that bound fixes the length for in-band members
    # whatever their batch-mates.
    block = max(1, min(BLOCK_STEPS, int((cert.D0 - cert.delta_max) / dt) - 1,
                       int(hist.min_lag)))
    d1 = np.stack([np.asarray(sc.d1(ts)) for sc in scens])      # (S, J+1, m)
    taps = predictor_taps(cert.lambdas, cert.B, cert.D0, dt)

    def forcing(j0, n, g):
        rows = slice(j0 + 1, j0 + n + 1)
        v[:, rows] = hist.interp(rows) + d1[:, rows]
        f = np.einsum("sjk,nk->sjn", v[:, j0: j0 + n + 1], B_all)
        np.multiply(W0, f[:, :-1], out=g)
        g += W1 * f[:, 1:]

    v[:, 0] = hist.interp(0) + d1[:, 0]
    c, metas = _closed_loop(scens, ts, E, taps, block, hist.samples,
                            hist.n_pre, forcing)
    trajs = Trajectories(
        _trajectory(sc, ts, c[s], hist.samples[s, hist.n_pre:], v[s],
                    {**metas[s], "min_read_margin": float(hist.margin[s])},
                    taps)
        for s, sc in enumerate(scens))
    return trajs[0] if single else trajs


def _control_history(scens, dtype=float) -> ControlHistory:
    """The control record of a run of ``scens`` with its delayed reads.  The
    pre-buffer follows the certificate, so a delay reaching past
    D0 + delta_max + dt reads outside it."""
    first, cert = scens[0], scens[0].certificate
    ts = first.grid
    return ControlHistory(
        np.stack([ts - np.asarray(sc.delay(ts), dtype=float) for sc in scens]),
        first.dt, cert.D0, cert.delta_max, first.descriptor.num_inputs, dtype)


def _modal_plant(scen: Scenario):
    """A run's grid and its modes' eigenvalues and input matrix."""
    n, desc = scen.N_modes, scen.descriptor
    return scen.grid, desc.eigenvalues(n), desc.input_matrix(n)


@np.errstate(over="ignore", invalid="ignore")
def _closed_loop(scens, ts, E, taps, block: int, samples, n_pre: int,
                 forcing):
    """Run the members ``scens`` on the grid ``ts`` in blocks of at most
    ``block`` steps; returns the states (S, J+1, N_modes) and each member's
    meta.  ``forcing(j0, n, g)`` writes the delayed reads of steps
    j0+1..j0+n and their forcing into g, the block's rows of the states,
    where the scan then runs: a higher heap high-water made the allocator
    return and re-fault memory on every run.  The controls go to
    ``samples``, u_j in row n_pre + j.  The first row with a non-finite
    state or control or a backward error above ``SOLVE_RESIDUAL_TOL``, in
    that order, raises an error naming its step, so the loop runs without
    overflow and invalid-value warnings (an overflowing backward error
    reads nan).
    """
    J, S = len(ts) - 1, len(scens)
    c = np.zeros((S, J + 1, scens[0].N_modes), dtype=samples.dtype)
    c[:, 0] = [scen.initial_state for scen in scens]
    d2 = np.stack([np.asarray(sc.d2(ts)) for sc in scens])     # (S, J+1, m)
    ctrl = PredictorController(scens[0].certificate, taps, ts, block)
    max_residual = np.zeros(S)
    for j0 in range(0, J, block):
        rows = slice(j0 + 1, min(j0 + block, J) + 1)
        g = c[:, rows]
        forcing(j0, g.shape[1], g)
        affine_scan(E, g, c[:, j0])
        ub, residual = ctrl.step(samples, n_pre + j0 + 1, j0,
                                 g[:, :, :ctrl.K.shape[1]], d2[:, rows])
        # Whole-block checks first; the rows are searched only on a fault.
        if not (np.isfinite(g).all() and np.isfinite(ub).all()
                and residual.max() <= SOLVE_RESIDUAL_TOL):
            faults = np.argwhere(np.stack([
                ~np.isfinite(g).all(axis=(0, 2)),
                ~np.isfinite(ub).all(axis=(0, 2)),
                (residual > SOLVE_RESIDUAL_TOL).any(axis=0)], axis=1))
            if len(faults):
                i, kind = faults[0]
                j = j0 + 1 + i
                if kind == 0:
                    raise ScenarioError(f"non-finite state at step {j} "
                                        f"(t={ts[j]:.6g})")
                if kind == 1:
                    raise ControllerError(f"non-finite control value at "
                                          f"t={ts[j]}")
                raise ControllerError(f"implicit equation backward error "
                                      f"{residual[:, i].max():.3g} at t={ts[j]}")
        np.maximum(max_residual, residual.max(axis=1), out=max_residual)
    meta = {"dt": scens[0].dt, "N_modes": scens[0].N_modes, "steps": J,
            "block_steps": block, "min_solve_sigma": ctrl.min_sigma}
    return c, [{**meta, "max_solve_residual": float(r)} for r in max_residual]


def artstein_transform(trajectory: Trajectory, *, taps=None) -> np.ndarray:
    """Z(t) = Y(t) + int_{t-D0}^t exp((t-D0-s)A) B u(s) ds on the trajectory
    grid, for the certificate the trajectory's scenario ran under.

    The integral is the controller's predictor convolution with the same
    exact taps, evaluated for all grid points at once; u vanishes before
    t = 0, so the window clips at 0.  ``taps`` are the certificate's
    ``predictor_taps`` at the grid step, built here when not given.
    """
    if trajectory.scenario is None:
        raise ValueError("trajectory must carry its scenario")
    cert = trajectory.scenario.certificate
    ts = trajectory.t
    u = trajectory.u
    if taps is None:
        taps = predictor_taps(cert.lambdas, cert.B, cert.D0, ts[1] - ts[0])
    Z = np.array(trajectory.coeffs[:, : cert.N0])
    for n in range(Z.shape[1]):
        for a in range(u.shape[1]):
            Z[:, n] += np.convolve(u[:, a], taps[:, n, a])[: len(ts)]
    return Z


def artstein_residual(trajectory: Trajectory):
    """Central-difference residual of the transformed dynamics at interior
    points, for the certificate the trajectory's scenario ran under.

    Returns (t_interior, residual_norms).  The residual compares dZ/dt with
    the delay-difference dynamics that the transformation satisfies in
    continuous time; both sides are O(dt^2) accurate, so halving dt should
    shrink the residual about fourfold.  Z is read linearly between grid
    points, and phi vanishes for t <= 0, so the delayed terms
    [phi Z](t - D) and [phi d2](t - D) read 0 before the run starts.
    """
    scen = trajectory.scenario
    if scen is None:
        raise ValueError("trajectory must carry its scenario")
    cert = scen.certificate
    ts = trajectory.t
    dt = ts[1] - ts[0]
    Z = trajectory.Z
    t = ts[1:-1]
    B = cert.B
    BK = B @ np.atleast_2d(cert.K)
    E = np.exp(-cert.D0 * cert.lambdas)[:, np.newaxis]
    phi = transition(t, cert.t0)
    # The delayed (row 0) and nominal (row 1) arguments, clipped at 0.
    x = np.maximum(np.stack([t - np.asarray(scen.delay(t), dtype=float),
                             t - cert.D0]), 0.0)
    phi_x = transition(x, cert.t0)
    j0, w0, w1 = linear_stencil(x / dt, len(ts) - 1)
    phi_z = phi_x[..., np.newaxis] * (w0[..., np.newaxis] * Z[j0]
                                      + w1[..., np.newaxis] * Z[j0 + 1])
    phi_d2 = phi_x[..., np.newaxis] * np.asarray(scen.d2(x))
    dZ = (Z[2:] - Z[:-2]) / (2.0 * dt)
    rhs = Z[1:-1] * cert.lambdas + phi[:, np.newaxis] * (Z[1:-1] @ (E * BK).T) \
        + (phi_z[0] - phi_z[1]) @ BK.T + np.asarray(scen.d1(t)) @ B.T \
        + phi[:, np.newaxis] * (np.asarray(scen.d2(t)) @ (E * B).T) \
        + (phi_d2[0] - phi_d2[1]) @ B.T
    return t, np.linalg.norm(dZ - rhs, axis=1)


# ---------------------------------------------------------------------------
# Independent oracle engine: RK4 + Simpson predictor quadrature

def _predictor_tap(lambdas, B, D0: float, dt: float):
    """The oracle's predictor taps G_k, shape (L+1, N0, m), with
    I(t_j) = sum_k G_k u_{j-k}: composite Simpson over [t - D0, t] (an even
    panel count, about four per step) of the cubic history.

    Nodes at or more than two steps before t_j read the Catmull-Rom cubic of
    the stored samples; later nodes read the Lagrange cubic through the
    three newest samples and the candidate u_j, which G_0 weighs.  Samples
    before t = 0 are zero, so before t = D0 the same taps give the window
    clipped at zero.
    """
    n_seg = max(int(np.ceil(D0 / dt * 2)) * 2, 4)
    s = np.linspace(-D0, 0.0, n_seg + 1)
    kw = simpson_weights(n_seg + 1, D0 / n_seg) \
        * np.exp(np.multiply.outer(lambdas, -s - D0))
    x = s / dt                            # steps past the candidate
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
    lags = -p1.astype(int)[:, np.newaxis] - np.arange(-1, 3)
    G = np.stack([np.bincount(lags.ravel(), (k[:, np.newaxis] * weights).ravel())
                  for k in kw], axis=1)
    return G[:, :, np.newaxis] * np.atleast_2d(B)[np.newaxis, :, :]


def rk4_substep(lam, h, x, f0, fm, f1):
    """One classical RK4 step of x' = lam x + f(t) with forcing f0, fm, f1
    at the start, midpoint and end of the step: elementwise in the modes for
    rates ``lam``, or through ``lam(x)`` when it is a callable (a matvec)."""
    lin = lam if callable(lam) else lambda y: lam * y
    k1 = lin(x) + f0
    k2 = lin(x + 0.5 * h * k1) + fm
    k3 = lin(x + 0.5 * h * k2) + fm
    k4 = lin(x + h * k3) + f1
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
    ODE, one pass with no search and no iteration.

    The substeps of each coarse step are composed once into per-mode
    coefficients (``compose_rk4_substeps``), so the plant is
    c_{j+1} = R c_j + g_j.  Since D(t) is exogenous, the cubic reads and the
    forcing of a block, as long as the shortest delay allows, are built at
    once, the forcing as one product with the composed weights.  With the
    Simpson taps of ``_predictor_tap`` the law is the controller's.
    """
    cert, desc = scenario.certificate, scenario.descriptor
    if desc.field != "real":
        raise ScenarioError("the RK4 oracle supports real-field plants")
    dt = scenario.dt
    ts, lam_all, B_all = _modal_plant(scenario)

    hf = dt / ORACLE_REFINE
    v = np.zeros((len(ts), desc.num_inputs))
    # u_j is row n_pre + j; the rows before it hold the zero initial control,
    # one more than ControlHistory's for the cubic stencil's back row.
    n_pre = history_rows(cert.D0 + cert.delta_max, dt) + 1
    samples = np.zeros((1, n_pre + len(ts), desc.num_inputs))
    R, Wf = compose_rk4_substeps(lam_all, hf, ORACLE_REFINE)
    # WB[(q, a), n] = Wf[q, n] B_all[n, a]: a block's forcing, the composed
    # RK4 weights applied to B v at the half-substep points, is one product.
    WB = (Wf[:, np.newaxis] * B_all.T).reshape(-1, scenario.N_modes)
    half = (hf / 2.0) * np.arange(2 * ORACLE_REFINE + 1)

    # A read one step past t_j - D_min touches rows up to floor(x) + 2, so
    # the block reads only earlier blocks; each read is clamped as at its own
    # step, so one that does not shows in its stencil.
    delay = scenario.delay
    block = max(1, min(BLOCK_STEPS,
                       int((delay.D0 - delay.max_amplitude()) / dt) - 3))
    margin, read = np.inf, cubic_reader(samples[0])

    def forcing(j0, n, g):
        nonlocal margin
        tf = ts[j0: j0 + n, np.newaxis] + half
        x = (tf - np.asarray(delay(tf), dtype=float) + n_pre * dt) / dt
        margin = min(margin, x.min())
        vf, top = read(x, n_pre + j0 + np.arange(n)[:, np.newaxis])
        if top > n_pre + j0:
            raise ScenarioError(
                f"oracle: a delayed read after t = {ts[j0]:.6g} needs a "
                f"control of its own {block}-step block")
        vf += np.asarray(scenario.d1(tf))
        v[j0 + 1: j0 + n + 1] = vf[:, -1]
        np.matmul(vf.reshape(n, -1), WB, out=g[0])

    v[0] = np.asarray(scenario.d1(ts[0]))   # u is zero up to t = 0
    c, (meta,) = _closed_loop(
        [scenario], ts, R, _predictor_tap(cert.lambdas, cert.B, cert.D0, dt),
        block, samples, n_pre, forcing)
    return _trajectory(scenario, ts, c[0], samples[0, n_pre:], v,
                       {**meta, "refine": ORACLE_REFINE,
                        "min_read_margin": float(margin)})


# ---------------------------------------------------------------------------
# CSV export / import
#
# Text I/O costs several times the closed loop, and CPython's %-formatting
# and numpy's text parser are already the fastest serial paths.  So the
# writer splits the rows in two, a forked child formatting the second half
# while the process writes the first (the file's bytes are those of a
# one-process run), and keeps the rows it formatted in a cache beside the
# file, which the reader loads in place of parsing the text whenever the
# file's bytes still have the digest the cache was written for.

# CSV text below this many bytes is written in one process: a fork and its
# reaping cost 10-30 ms in a process with numpy and scipy loaded, about what
# halving the work on 2 MB of text saves.
_SPLIT_MIN_BYTES = 2 << 20
# Rows formatted by one % operation of the writer.
_CSV_CHUNK_ROWS = 512


def _in_two(first, second, nbytes):
    """``(first(), second())``; ``second`` returns bytes.

    ``second`` runs in a forked child while the process runs ``first``, and
    its bytes come back over a pipe.  Both run here when the process has no
    ``os.fork`` or fewer than two CPUs, when ``nbytes`` of CSV text are too
    few to pay for a fork, or when the fork fails.  A child that fails leaves
    ``second`` to run again here, so its error is raised with its own type.

    Forking a process with threads (OpenBLAS's pool) is safe here because
    the child only formats text and writes no file: it calls no BLAS, LAPACK
    or logging, whose locks another thread may hold, and it ends in
    ``os._exit`` without running any of the parent's cleanup.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if nbytes < _SPLIT_MIN_BYTES or len(cpus) < 2 or not hasattr(os, "fork"):
        return first(), second()
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork in a process with threads; the
            # child takes no lock, as said above.
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return first(), second()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(second())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        # Closing the pipe before the wait ends a child still writing.
        with open(r, "rb") as pipe:
            head = first()
            tail = pipe.read()
    finally:
        ok = os.waitpid(pid, 0)[1] == 0
    return head, (tail if ok else second())


def _digest(chunks, out=None):
    """The SHA-256 hash fed the byte chunks in order, each written to the
    binary file ``out`` first when one is given.

    hashlib is imported here, not with the module: its 4 ms would fall on
    every subcommand, and only ``simulate`` and ``check`` hash."""
    import hashlib
    digest = hashlib.sha256()
    for chunk in chunks:
        if out is not None:
            out.write(chunk)
        digest.update(chunk)
    return digest


def _cache_path(path) -> str:
    """The cache file of the trajectory file ``path``, beside it."""
    return os.fspath(path) + ".cache"


def _csv_columns(n, n0, m):
    """The trajectory CSV header for n modes, N0 = n0 and m inputs."""
    return ["t"] + [f"{name}_{i}" for name, k in (
        ("c", n), ("Y", n0), ("Z", n0), ("u", m), ("v", m))
        for i in range(1, k + 1)] + ["norm_lower", "norm_upper"]


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write the trajectory with the fixed header schema (round-trip floats),
    and its rows to the file's cache (``_write_cache``); the schema is real,
    so complex data raises ScenarioError."""
    if any(np.iscomplexobj(a) for a in (traj.coeffs, traj.Z, traj.u, traj.v)):
        raise ScenarioError("trajectory CSV holds real data only; "
                            "complex-field trajectories cannot be written")
    cols = _csv_columns(traj.coeffs.shape[1], traj.Z.shape[1], traj.u.shape[1])
    data = np.column_stack([
        traj.t, traj.coeffs, traj.Y, traj.Z,
        traj.u, traj.v, traj.norm_lower, traj.norm_upper,
    ])
    # %.17g round-trips every double; these are np.savetxt's bytes, ended
    # by the platform's newline as a text-mode file writes it.
    row_fmt = ", ".join(["%.17g"] * data.shape[1]) + os.linesep

    def formatted(rows):
        for i in range(0, len(rows), _CSV_CHUNK_ROWS):
            chunk = rows[i:i + _CSV_CHUNK_ROWS]
            yield ((row_fmt * len(chunk)) % tuple(chunk.ravel().tolist())).encode()

    header = (", ".join(cols) + os.linesep).encode()
    half = (len(data) + 1) // 2
    with open(path, "wb") as out:
        # %.17g text runs to about 21 bytes a value.
        digest, tail = _in_two(
            lambda: _digest(itertools.chain([header], formatted(data[:half])),
                            out),
            lambda: b"".join(formatted(data[half:])), 21 * data.size)
        out.write(tail)
        digest.update(tail)
    _write_cache(path, digest.digest(), data)


def _write_cache(path, digest: bytes, data) -> None:
    """Keep the rows ``data`` of the trajectory file ``path``, whose bytes
    have the SHA-256 ``digest``, in its cache: that digest, the digest of
    the array's bytes, then the array as ``np.save`` writes it.  A temporary
    file in the same directory, given the trajectory file's permissions,
    replaces the cache whole, so no reader sees part of one and a symlink
    there is replaced, not followed.  A cache that cannot be written is left
    out: the trajectory file alone holds the run."""
    rows = np.ascontiguousarray(data, dtype=np.float64)
    cache = _cache_path(path)
    try:
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(cache) + ".",
                                   dir=os.path.dirname(os.path.abspath(cache)))
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            fh.write(digest + _digest([rows]).digest())
            np.save(fh, rows, allow_pickle=False)
        os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, cache)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _cached_rows(path, digest: bytes, width: int):
    """The rows kept in the cache of the trajectory file ``path``, whose bytes
    have the SHA-256 ``digest``; None (a miss) unless the cache is a regular
    file that holds that digest and a 2-D float64 array of ``width`` columns
    whose bytes have the digest stored beside it."""
    cache = _cache_path(path)
    try:
        if not stat.S_ISREG(os.lstat(cache).st_mode):
            return None
        with open(cache, "rb") as fh:
            if fh.read(len(digest)) != digest:
                return None
            key = fh.read(len(digest))
            rows = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] != width \
            or key != _digest([np.ascontiguousarray(rows)]).digest():
        return None
    return rows


def _malformed(path) -> ScenarioError:
    """The error naming the first line of the trajectory file that the parser
    refuses: one holding a value that is not a number, or other than as
    many values as the first data row."""
    with open(path, "rb") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        fh.readline()
        width = None
        for lineno, line in enumerate(fh, 2):
            try:
                row = np.loadtxt([line], delimiter=",", ndmin=2)
            except ValueError as exc:
                return ScenarioError(f"trajectory file {path}, line {lineno}: "
                                     + str(exc).split(" at row")[0])
            if row.size == 0:
                continue
            width = width or (row.shape[1], lineno)
            if row.shape[1] != width[0]:
                return ScenarioError(
                    f"trajectory file {path}, line {lineno} has "
                    f"{row.shape[1]} values where line {width[1]} has {width[0]}")
    return ScenarioError(f"trajectory file {path} is not rows of numbers")


def trajectory_from_csv(path) -> Trajectory:
    """Read a trajectory CSV; a file with a malformed row, of another layout,
    of fewer than two rows, with a value that is not finite or whose t is
    not an increasing uniform grid raises ScenarioError.

    The rows are the file's cache when it holds the digest of the file's
    bytes (``_cached_rows``), and the parsed text otherwise; every check
    runs on them either way."""
    with open(path, "rb") as fh:
        header = [h.strip() for h in fh.readline().decode().split(",")]
        lo = fh.tell()
        fh.seek(0)
        digest = _digest(iter(functools.partial(fh.read, 1 << 20), b""))
        data = _cached_rows(path, digest.digest(), len(header))
        if data is None:
            fh.seek(lo)
            with warnings.catch_warnings():
                # A file with no rows is refused below, not warned about.
                warnings.filterwarnings("ignore",
                                        "loadtxt: input contained no data")
                try:
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
                except ValueError:
                    raise _malformed(path) from None
    if len(data) < 2:
        raise ScenarioError(f"trajectory file {path} has {len(data)} data "
                            "rows; a trajectory needs at least two")
    n, n0, m = (sum(h.startswith(p) for h in header)
                for p in ("c_", "Y_", "u_"))
    if header != _csv_columns(n, n0, m) or data.shape[1] != len(header):
        raise ScenarioError(f"trajectory file {path} is not in the layout "
                            "simulate writes: t, c_*, Y_*, Z_*, u_*, v_*, "
                            "norm_lower, norm_upper, one value per column")
    if not np.isfinite(data).all():
        row, col = np.argwhere(~np.isfinite(data))[0]
        with open(path, "rb") as fh:     # the row's line, past blank lines
            lineno = [n for n, line in enumerate(fh, 1)
                      if n > 1 and line.split(b"#")[0].strip()][row]
        raise ScenarioError(f"trajectory file {path}, line {lineno}, column "
                            f"{col + 1} ({header[col]}) is {data[row, col]}, "
                            "not a finite number")
    steps = np.diff(data[:, 0])
    if not (steps[0] > 0 and np.all(np.abs(steps - steps[0]) <= 1e-9 * steps[0])):
        raise ScenarioError(f"trajectory file {path}: t is not an increasing "
                            "uniform grid (steps equal to 1e-9 relative)")
    # Y is a view of coeffs, so its columns are skipped.
    _, coeffs, _, Z, u, v, norms = np.split(
        data, np.cumsum([1, n, n0, n0, m, m]), axis=1)
    return Trajectory(t=data[:, 0], coeffs=coeffs, u=u, v=v, Z=Z,
                      norm_lower=norms[:, 0], norm_upper=norms[:, 1])


def match_trajectory(traj: Trajectory, scen: Scenario, path) -> None:
    """Refuse, as a ScenarioError naming the field and both values, the
    trajectory read from ``path`` unless its grid, its columns, its first
    row, its delayed reads and its controls are those ``simulate`` writes
    for ``scen``.  %.17g round-trips, so the first row must equal
    ``X0_coeffs`` zero-padded exactly; v = u(t - D(t)) + d1(t), read from
    the file's u as ``simulate`` reads it, must hold to 1e-12 of the size
    of its terms; and the control law u = phi(t) (K Z + d2(t)) at every step
    past t = 0, from the file's Z, to 1e-9 of |u| + phi (|K| |Z| + |d2|)."""
    for field, have, want in (
            ("dt (the grid step)", traj.t[1] - traj.t[0], scen.dt),
            ("round(T_final / dt) + 1 (the rows)", len(traj.t),
             scen.steps + 1),
            ("N_modes (the c_* columns)", traj.coeffs.shape[1], scen.N_modes),
            ("the certificate's N0 (the Y_*, Z_* columns)", traj.Z.shape[1],
             scen.certificate.N0),
            ("the plant's m (the u_* columns)", traj.u.shape[1],
             scen.descriptor.num_inputs)):
        if abs(have - want) > 1e-9 * want:
            raise ScenarioError(f"trajectory file {path} does not match its "
                                f"scenario: {field} is {have} in the file "
                                f"and {want} in the scenario")
    X0 = scen.initial_state
    if (off := np.flatnonzero(traj.coeffs[0] != X0)).size:
        k = off[0]
        raise ScenarioError(f"trajectory file {path} does not match its "
                            f"scenario: c_{k + 1} of the first row is "
                            f"{traj.coeffs[0, k].item()} in the file and "
                            f"X0_coeffs gives {X0[k].item()}")
    hist = _control_history([scen])
    hist.samples[0, hist.n_pre:] = traj.u
    read, d1 = hist.interp(slice(None))[0], np.asarray(scen.d1(scen.grid))
    v = read + d1
    if (off := np.argwhere(~(np.abs(traj.v - v)
                             <= 1e-12 * (np.abs(read) + np.abs(d1))))).size:
        j, a = off[0]
        raise ScenarioError(f"trajectory file {path} does not match its "
                            f"scenario: the delayed read v_{a + 1} at step {j} "
                            f"(t={traj.t[j]:.6g}) is {traj.v[j, a].item()} in "
                            f"the file, and u(t - D(t)) + d1(t) from its u_* "
                            f"columns under the scenario's delay and d1 is "
                            f"{v[j, a].item()}")
    K = np.atleast_2d(scen.certificate.K)
    phi = transition(traj.t[1:], scen.certificate.t0)[:, np.newaxis]
    Z, d2 = traj.Z[1:], np.asarray(scen.d2(traj.t[1:]))
    law = phi * (Z @ K.T + d2)
    scale = np.abs(traj.u[1:]) + phi * (np.abs(Z) @ np.abs(K).T + np.abs(d2))
    if (off := np.argwhere(~(np.abs(traj.u[1:] - law) <= 1e-9 * scale))).size:
        j, a = off[0]
        raise ScenarioError(f"trajectory file {path} does not match its "
                            f"scenario: the control law u = phi(t) (K Z + "
                            f"d2(t)) fails at step {j + 1} "
                            f"(t={traj.t[j + 1]:.6g}): u_{a + 1} is "
                            f"{traj.u[j + 1, a].item()} in the file, and the "
                            f"law from its Z_* columns under the scenario's "
                            f"d2 gives {law[j, a].item()}")


# ---------------------------------------------------------------------------
# Scenario config files

def scenario_to_dict(scen: Scenario) -> dict:
    def signal(sig):     # a tuple field as a list, as JSON reads it back
        return {key: list(v) if isinstance(v := getattr(sig, key), tuple)
                else v for key in _SIGNAL_KINDS[type(sig)]}

    return {
        "system": descriptor_to_dict(scen.descriptor),
        "certificate": None,   # stored separately, in the --certificate file
        "delay": signal(scen.delay),
        "disturbance_d1": signal(scen.d1),
        "disturbance_d2": signal(scen.d2),
        "initial": {"X0_coeffs": _array_to_list(scen.X0_coeffs)},
        "integration": {"dt": scen.dt, "T_final": scen.T_final,
                        "N_modes": scen.N_modes, "certified": scen.certified},
    }


def scenario_from_dict(d: dict, certificate: Certificate) -> Scenario:
    desc = descriptor_from_dict(d["system"])
    return Scenario(
        descriptor=desc,
        certificate=certificate,
        delay=make_delay(d["delay"]),
        d1=make_disturbance(d["disturbance_d1"], desc.num_inputs, "disturbance_d1"),
        d2=make_disturbance(d["disturbance_d2"], desc.num_inputs, "disturbance_d2"),
        **read_section(d["initial"], "initial", {"X0_coeffs": _array_from_list},
                       ScenarioError),
        **read_section(d["integration"], "integration", {
            "dt": float, "T_final": float, "N_modes": int, "certified": bool},
            ScenarioError),
    )


def save_scenario(scen: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scen), fh, indent=2)


def load_scenario(path, certificate: Certificate) -> Scenario:
    return load_json(path, "scenario",
                     lambda d: scenario_from_dict(d, certificate), ScenarioError)
