"""Empirical verification of the exponential ISS envelopes on trajectories.

The exactly-computable part of the certificate (rates, tail constants) comes
from ``synthesis``; the channel gains that the theory only proves to exist
are fitted here from simulation ensembles (max ratio per isolated channel,
inflated 10%) and every reported constant carries ``exact`` or ``fitted``
provenance.  An ensemble can falsify an envelope but never prove it; reports
state worst observed ratios, not theorems.

``ENVELOPES`` says once which envelope shape each constant scales.  The
check, the fit and the sweep rows all read it: the check sums every term of
every estimate, and the fit takes the ratio of each fitted term on its own
channel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SpecpredError
from .numerics import catmull_rom, cubic_stencil
from .sim_engine import Scenario, Trajectory
from .synthesis import Certificate, finalize_tail_constants, smallgain_lhs


class CertifierError(SpecpredError, ValueError):
    pass


# Each fitted channel gain is its worst observed ratio times this factor.
FIT_INFLATION = 1.1
# Envelope bounds at or below these are treated as zero: in the envelope
# checks, and in the ratios that the fits and lemma-2 reports take.
CHECK_BOUND_FLOOR = 1e-13
RATIO_BOUND_FLOOR = 1e-12
# State norms at or below this end the decay-rate fit window (log underflow).
DECAY_FIT_FLOOR = 1e-280


# ---------------------------------------------------------------------------
# Fading-memory suprema

def fading_memory_sup(norms, kappa: float, dt: float) -> np.ndarray:
    """O(1)-per-step recursion for s_j = max_{i<=j} e^{-kappa (t_j-t_i)} ||d_i||.

    Equals the brute-force grid maximum bit-exactly: the recursion
    s_j = max(e^{-kappa dt} s_{j-1}, ||d_j||) expands to exactly the same
    products of per-step decay factors.
    """
    norms = np.asarray(norms, dtype=float)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    decay = math.exp(-kappa * dt)
    out = np.empty_like(norms)
    s = norms[0]
    out[0] = s
    for j in range(1, len(norms)):
        s = max(decay * s, norms[j])
        out[j] = s
    return out


def causal_lag_steps(D0: float, delta: float, dt: float) -> int:
    """Grid lag of the d2 window [0, max(t-(D0-delta),0)]."""
    return int(math.ceil((D0 - delta) / dt - 1e-9))


def _causal_window(sup, kappa: float, dt: float, lag_steps: int) -> np.ndarray:
    """The causal-window sup from the fading-memory sup ``sup`` of the same
    rate: e^{-kappa lag dt} sup[j - lag] past the lag, and the initial
    sample decayed to t_j, e^{-kappa j dt} sup[0], before it."""
    j = np.arange(len(sup))
    lagged = math.exp(-kappa * dt * lag_steps) * sup[np.maximum(j - lag_steps, 0)]
    return np.where(j > lag_steps, lagged, np.exp(-kappa * dt * j) * sup[0])


def windowed_fading_sup(norms, kappa: float, dt: float, lag_steps: int) -> np.ndarray:
    """Fading-memory sup restricted to samples at least lag_steps behind.

    For t_j <= lag the window collapses to {0}, so only the initial sample
    contributes (decayed to t_j).
    """
    return _causal_window(fading_memory_sup(norms, kappa, dt), kappa, dt,
                          lag_steps)


# ---------------------------------------------------------------------------
# Envelope evaluation

@dataclass
class EstimateCheck:
    name: str
    passed: bool
    vacuous: bool
    worst_ratio: float
    worst_time: float
    constants: dict
    provenance: dict


@dataclass
class EnvelopeReport:
    checks: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_dict(self) -> dict:
        return {
            name: {
                "pass": c.passed,
                "vacuous": c.vacuous,
                "worst_ratio": c.worst_ratio,
                "worst_time": c.worst_time,
                "constants": c.constants,
                "provenance": c.provenance,
            }
            for name, c in self.checks.items()
        }


def _signal_norms(scen: Scenario, ts):
    d1 = np.asarray(scen.d1(ts))
    d2 = np.asarray(scen.d2(ts))
    return np.linalg.norm(d1, axis=-1), np.linalg.norm(d2, axis=-1)


def _ratio_check(name, observed, bound, ts, constants,
                 provenance) -> EstimateCheck:
    observed = np.asarray(observed, dtype=float)
    bound = np.asarray(bound, dtype=float)
    live = bound > CHECK_BOUND_FLOOR
    zero = observed <= CHECK_BOUND_FLOOR
    if not np.any(live) and np.all(zero):
        return EstimateCheck(name, True, True, 0.0, 0.0, constants, provenance)
    ratios = np.where(live, observed / np.where(live, bound, 1.0), np.inf)
    ratios = np.where(~live & zero, 0.0, ratios)
    worst = int(np.argmax(ratios))
    return EstimateCheck(
        name=name,
        passed=bool(ratios[worst] <= 1.0),
        vacuous=False,
        worst_ratio=float(ratios[worst]),
        worst_time=float(ts[worst]),
        constants=constants,
        provenance=provenance,
    )


# The four ISS estimates: the certificate bank of each and the (constant,
# shape) terms of its right-hand side.  Shapes X0 and Y0 are the decayed
# initial norms |X(0)| and |Y(0)|, d1 and d2 the fading-memory sups of |d1|
# and |d2|, and d2w the sup of |d2| over the causal window; the suffix _k
# decays at kappa and _s at sigma.  Terms 0, 1 and 2 are the x0, d1 and d2
# channels of the fit.
ENVELOPES = {
    "state": ("x_constants", (("Cbar1", "X0_k"), ("Cbar2", "d1_k"),
                              ("Cbar3", "d2w_k"))),
    "control": ("u_constants", (("Cbar4", "X0_k"), ("Cbar5", "d1_k"),
                                ("Cbar6", "d2_k"))),
    "head_state": ("y_constants", (("C1", "X0_s"), ("C2", "d1_s"),
                                   ("C3", "d2w_s"))),
    "transformed_state": ("z_constants", (("gamma3", "Y0_s"), ("gamma4", "d1_s"),
                                          ("gamma5", "d2_s"))),
}
CHANNELS = ("x0", "d1", "d2")


def _shapes(traj: Trajectory, cert: Certificate, names) -> dict:
    """The envelope shapes ``names`` (see ``ENVELOPES``) on the trajectory's
    grid; only the shapes asked for are built, and the fading-memory sup of
    each (signal, rate) pair at most once."""
    ts = traj.t
    dt = ts[1] - ts[0]
    rates = {"k": cert.kappa, "s": cert.sigma}
    lag = causal_lag_steps(cert.D0, cert.delta_max, dt)
    signals = {"X0": traj.norm_upper[0], "Y0": np.linalg.norm(traj.Y[0])}
    if any(name.startswith("d") for name in names):
        signals["d1"], signals["d2"] = _signal_norms(traj.scenario, ts)

    @functools.cache
    def sup(signal, rate):
        return fading_memory_sup(signals[signal], rate, dt)

    out = {}
    for name in names:
        signal, suffix = name.split("_")
        rate = rates[suffix]
        if signal in ("X0", "Y0"):
            out[name] = np.exp(-rate * ts) * signals[signal]
        elif signal == "d2w":
            out[name] = _causal_window(sup("d2", rate), rate, dt, lag)
        else:
            out[name] = sup(signal, rate)
    return out


def _observed(traj: Trajectory, estimate: str) -> np.ndarray:
    """The trajectory norm that the estimate bounds."""
    if estimate == "state":
        return traj.norm_upper
    series = {"control": traj.u, "head_state": traj.Y,
              "transformed_state": traj.Z}[estimate]
    return np.linalg.norm(series, axis=1)


def check_envelopes(trajectory: Trajectory, certificate: Certificate) -> EnvelopeReport:
    """Evaluate the X, u, Y and Z fading-memory envelopes on one trajectory."""
    cert = certificate
    if trajectory.scenario is None:
        raise CertifierError("trajectory must carry its scenario")
    if any(getattr(cert, bank) is None for bank, _ in ENVELOPES.values()):
        raise CertifierError("missing fitted constants; run fit_constants first")
    shapes = _shapes(trajectory, cert, {shape for _, terms in ENVELOPES.values()
                                        for _, shape in terms})
    report = EnvelopeReport()
    for name, (bank, terms) in ENVELOPES.items():
        constants = getattr(cert, bank)
        rhs = sum(constants[key] * shapes[shape] for key, shape in terms)
        # The state constants add the exact tail to their fitted part.
        provenance = {key: "fitted+exact-tail" for key, _ in terms} \
            if name == "state" else {"scale": "fitted"}
        report.checks[name] = _ratio_check(
            name, _observed(trajectory, name), rhs, trajectory.t, constants,
            provenance)
    return report


# ---------------------------------------------------------------------------
# Constant fitting

def _channel_of(scen: Scenario) -> str:
    has_x0 = np.linalg.norm(np.asarray(scen.X0_coeffs)) > 0
    has_d1 = scen.d1.kind != "zero" and np.linalg.norm(scen.d1._amp()) > 0
    has_d2 = scen.d2.kind != "zero" and np.linalg.norm(scen.d2._amp()) > 0
    flags = (has_x0, has_d1, has_d2)
    if sum(flags) != 1:
        return "mixed"
    return CHANNELS[flags.index(True)]


def _max_ratio(num, den):
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    ok = den > RATIO_BOUND_FLOOR
    if not np.any(ok):
        return 0.0
    return float(np.max(num[ok] / den[ok]))


# The estimates whose constants the ensemble fits; the state constants
# follow from them (``finalize_tail_constants``).
_FITTED = ("control", "head_state", "transformed_state")


def fit_constants(trajectories: Sequence[Trajectory],
                  certificate: Certificate) -> Certificate:
    """Fit the existential channel gains from an isolated-channel ensemble.

    The ensemble must contain disturbance-free (x0), d1-only and d2-only
    runs; by linearity each channel isolates its constants: term i of each
    fitted estimate in ``ENVELOPES`` on channel i.  Each constant is the
    worst observed ratio over its channel times ``FIT_INFLATION``.
    Fills the u/y/z constants on the certificate, then the tail constants
    and the assembled state bounds (``finalize_tail_constants``).
    """
    cert = certificate
    buckets = {ch: [] for ch in CHANNELS}
    for traj in trajectories:
        scen = traj.scenario
        if scen is None:
            raise CertifierError("ensemble trajectories must carry scenarios")
        ch = _channel_of(scen)
        if ch == "mixed":
            raise CertifierError("fit ensemble runs must isolate one channel")
        buckets[ch].append(traj)
    for ch, runs in buckets.items():
        if not runs:
            raise CertifierError(f"fit ensemble is missing the {ch} channel")

    fits = {}
    for i, ch in enumerate(CHANNELS):
        terms = [(name, ENVELOPES[name][1][i]) for name in _FITTED]
        for traj in buckets[ch]:
            shapes = _shapes(traj, cert, {shape for _, (_, shape) in terms})
            for name, (key, shape) in terms:
                fits[key] = max(fits.get(key, 0.0),
                                _max_ratio(_observed(traj, name), shapes[shape]))

    for name in _FITTED:
        bank, terms = ENVELOPES[name]
        setattr(cert, bank, {key: fits[key] * FIT_INFLATION for key, _ in terms})
    cert.fit_info = {
        "ensemble_size": len(trajectories),
        "channels": {ch: len(runs) for ch, runs in buckets.items()},
        "inflation": FIT_INFLATION,
    }
    finalize_tail_constants(cert)
    return cert


def fit_decay_rate(trajectory: Trajectory, certificate: Certificate):
    """Empirical decay rate of a disturbance-free run.

    Least-squares slope of log ||X||_upper over the post-transition window
    [t0 + D0 + delta, T]; returns (kappa_hat, truncated_flag).
    """
    cert = certificate
    scen = trajectory.scenario
    if scen is not None:
        n1, n2 = _signal_norms(scen, trajectory.t)
        if np.max(n1) > 0 or np.max(n2) > 0:
            raise CertifierError("fit_decay_rate needs a disturbance-free run")
    ts = trajectory.t
    t_start = cert.t0 + cert.D0 + cert.delta_max
    mask = ts >= t_start
    vals = trajectory.norm_upper[mask]
    truncated = False
    if np.any(vals <= DECAY_FIT_FLOOR):
        truncated = True
        last = int(np.argmax(vals <= DECAY_FIT_FLOOR))
        vals = vals[:last]
        mask_idx = np.nonzero(mask)[0][:last]
    else:
        mask_idx = np.nonzero(mask)[0]
    if len(vals) < 10:
        raise CertifierError("fit window too short (state hit numerical zero)")
    slope = np.polyfit(ts[mask_idx], np.log(vals), 1)[0]
    return -float(slope), truncated


# ---------------------------------------------------------------------------
# Delay-difference lemma validator

@dataclass
class Lemma2Problem:
    """Delay-difference comparison system used by the truncated-model analysis.

    x'(t) = A x(t) + q(t) C [x(t - r - eps d(t)) - x(t - r)] + p(t), with
    |d| <= 1, |q| <= 1, and a continuous history on [-r-eps, 0].
    """

    A: np.ndarray
    C: np.ndarray
    r: float
    eps: float
    d: callable
    q: callable
    p: callable
    x0: callable          # history on [-r-eps, 0]

    def smallgain_ok(self, M_lambda: float, lam: float) -> bool:
        return bool(smallgain_lhs(self.eps, float(np.linalg.norm(self.A, 2)),
                                  float(np.linalg.norm(self.C, 2)),
                                  M_lambda, lam) < lam)


# Catmull-Rom stencil: offsets of the four samples of a history read.
_STENCIL = np.arange(4)[:, np.newaxis, np.newaxis]


def _matvec(M, v):
    """Per-member product M[s] @ v[s] for M (S, n, n) and v (S, n)."""
    return np.matmul(M, v[..., np.newaxis])[..., 0]


def simulate_delay_difference(problem, dt: float, T: float,
                              with_forcing: bool = False):
    """RK4 integration of the delay-difference system with cubic history reads.

    ``problem`` is one ``Lemma2Problem`` or a sequence of them.  A sequence
    is stepped together in one pass: the state is shaped (S, n), the history
    (n_pre + J + 1, S, n), and every history read is one gather over the
    members, whose A, C, r and eps may differ; members of a lower state
    dimension are zero-padded to the largest n.  The delayed reads touch
    only final samples, so stages 2 and 3 share one read and the end of a
    step is the start of the next: each member's d, q and p are evaluated
    once per half-step.

    Returns (ts, xs) with xs shaped (J+1, n) for one problem and (J+1, S, n)
    for a sequence; ``with_forcing`` appends p sampled on ts, shaped as xs.
    """
    single = isinstance(problem, Lemma2Problem)
    members = [problem] if single else list(problem)
    S = len(members)
    dims = [np.asarray(pr.A).shape[0] for pr in members]
    n = max(dims)
    A = np.zeros((S, n, n))
    C = np.zeros((S, n, n))
    for i, (pr, k) in enumerate(zip(members, dims)):
        A[i, :k, :k] = pr.A
        C[i, :k, :k] = pr.C
    r = np.array([pr.r for pr in members], dtype=float)
    eps = np.array([pr.eps for pr in members], dtype=float)
    # Cubic reads touch samples up to index j+2; the delayed arguments stay at
    # least r - eps behind t, so dt must be well below that margin.
    if np.any(dt * 3 > r - eps):
        raise ValueError("dt too large for the delay margin")
    n_pre = max(int(math.ceil((pr.r + pr.eps) / dt)) for pr in members) + 2
    J = int(round(T / dt))
    xs = np.zeros((n_pre + J + 1, S, n))
    t_hist0 = -n_pre * dt
    for i, (pr, k) in enumerate(zip(members, dims)):
        for j in range(n_pre + 1):
            xs[j, i, :k] = pr.x0(max(t_hist0 + j * dt, -(pr.r + pr.eps)))
    ds = [pr.d for pr in members]
    qs = [pr.q for pr in members]
    p_rows = [(pr.p, k) for pr, k in zip(members, dims)]
    rows = np.arange(S)

    def forcing(t, p_out):
        """(q C [x(t - r - eps d) - x(t - r)], p) at time t for every member;
        p is written into ``p_out``."""
        d = np.fromiter((f(t) for f in ds), float, S)
        q = np.fromiter((f(t) for f in qs), float, S)
        x = (np.stack([t - r - eps * d, t - r]) - t_hist0) / dt
        start, w = cubic_stencil(x, n_pre + J)
        lag, nom = catmull_rom(xs[start + _STENCIL, rows], w[..., np.newaxis])
        for i, (f, k) in enumerate(p_rows):
            p_out[i, :k] = f(t)
        return q[:, np.newaxis] * _matvec(C, lag - nom), p_out

    def rhs(x, g):
        return _matvec(A, x) + g[0] + g[1]

    ts = dt * np.arange(J + 1)
    ps = np.zeros((J + 1, S, n))
    p_half = np.zeros((S, n))
    g0 = forcing(ts[0], ps[0])
    for j in range(J):
        t = ts[j]
        x = xs[n_pre + j]
        gh = forcing(t + dt / 2, p_half)
        g1 = forcing(ts[j + 1], ps[j + 1])
        k1 = rhs(x, g0)
        k2 = rhs(x + dt / 2 * k1, gh)
        k3 = rhs(x + dt / 2 * k2, gh)
        k4 = rhs(x + dt * k3, g1)
        xs[n_pre + j + 1] = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        g0 = g1
    xs = xs[n_pre:]
    if single:
        xs, ps = xs[:, 0], ps[:, 0]
    return (ts, xs, ps) if with_forcing else (ts, xs)


def lemma2_validate(problems: Sequence[Lemma2Problem], sigma: float,
                    M_lambda: float, lam: float, dt: float = 5e-3,
                    T: float = 12.0) -> dict:
    """Fit worst-case (M, N) for the claimed delay-difference decay estimate.

    Simulates every problem and extracts the smallest constants such that
    ||x(t)|| <= M e^{-sigma t} sup||x0|| + N sup_tau e^{-sigma(t-tau)}||p||
    holds on the grid.  Members with p = 0 pin down M; members with zero
    history pin down N.  All members are integrated together in one batched
    ``simulate_delay_difference`` call, whose forcing samples give the grid
    norms of p.  The report can only falsify the estimate (M or N unbounded
    / growing), never prove it.
    """
    if not all(prob.smallgain_ok(M_lambda, lam) for prob in problems):
        raise CertifierError("small-gain precondition violated for a member")
    ts, xs, ps = simulate_delay_difference(problems, dt, T, with_forcing=True)
    M_fit = 1.0
    N_fit = 0.0
    per_member = []
    for i, prob in enumerate(problems):
        xn = np.linalg.norm(xs[:, i], axis=1)
        hist_ts = np.linspace(-(prob.r + prob.eps), 0.0, 201)
        sup_x0 = max(np.linalg.norm(np.atleast_1d(prob.x0(t))) for t in hist_ts)
        p_norms = np.linalg.norm(ps[:, i], axis=1)
        has_p = np.max(p_norms) > 0
        if sup_x0 > 0 and not has_p:
            ratio = _max_ratio(xn, np.exp(-sigma * ts) * sup_x0)
            M_fit = max(M_fit, ratio)
            per_member.append({"channel": "x0", "ratio": ratio})
        elif has_p and sup_x0 == 0:
            fad = fading_memory_sup(p_norms, sigma, dt)
            ratio = _max_ratio(xn, fad)
            N_fit = max(N_fit, ratio)
            per_member.append({"channel": "p", "ratio": ratio})
        else:
            # Mixed members only sanity-check finiteness.
            per_member.append({"channel": "mixed",
                               "ratio": float(np.max(xn))})
    finite = all(np.isfinite(m["ratio"]) for m in per_member)
    return {
        "M": M_fit,
        "N": N_fit,
        "sigma": sigma,
        "finite": finite,
        "members": per_member,
        "note": "ensemble evidence only: can falsify the estimate, not prove it",
    }
