"""Empirical verification of the exponential ISS envelopes on trajectories.

The exactly-computable part of the certificate (rates, tail constants) comes
from ``synthesis``; the channel gains that the theory only proves to exist
are fitted here from simulation ensembles (max ratio per isolated channel,
inflated 10%) and every reported constant carries ``exact`` or ``fitted``
provenance.  An ensemble can falsify an envelope but never prove it; reports
state worst observed ratios, not theorems.

``synthesis.ENVELOPES`` says once which envelope shape each constant
scales, and ``_shapes`` is the one lookup of any of those shapes by name.
The check sums every term of every estimate; the fit takes the ratio of
each fitted term on its own channel; the sweep rows report the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import SpecpredError
from .numerics import affine_scan, cubic_reader, history_rows
from .sim_engine import (MAX_STEPS, DelaySignal, DisturbanceSignal, Scenario,
                         Trajectory, rk4_substep, state_norm)
from .synthesis import (ENVELOPES, Certificate, finalize_tail_constants,
                        smallgain_lhs)


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

def fading_memory_sup(norms, kappa, dt: float) -> np.ndarray:
    """s_j = max_{i<=j} e^{-kappa (t_j-t_i)} ||d_i|| for each row of ``norms``.

    ``norms`` is shaped (..., n), time last; ``kappa`` is one rate or one
    per row.  Each row equals bit for bit the recursion
    s_j = max(g(s_{j-1}), ||d_j||), g(x) = fl(e^{-kappa dt} x), on Python
    floats, and so the brute-force grid maximum; a NaN stays from its
    sample on.  g is monotone, so it commutes with the maximum: in a chunk
    of about sqrt(n) samples from c0, s_j = max(g^{j-c0+1}(s_{c0-1}), l_j)
    with l the chunk's own recursion.  The local recursions step every row
    and chunk at once; each carry s_{c0-1} is decayed through its chunk by
    one sequential product (``np.multiply.accumulate``).
    """
    norms = np.asarray(norms, dtype=float)
    *lead, n = norms.shape
    kappa = np.broadcast_to(np.asarray(kappa, dtype=float), lead)
    if np.any(kappa <= 0):
        raise ValueError("kappa must be positive")
    # One factor per row, from math.exp as the scalar recursion takes it.
    decay = np.array([math.exp(-k * dt) for k in kappa.ravel().tolist()])
    rows = decay.size
    B = max(1, math.isqrt(n))           # chunk length
    C = -(-n // B)                      # chunks, the last one zero-padded
    out = np.zeros((rows, C * B))
    out[:, :n] = norms.reshape(rows, n)
    chunks = out.reshape(rows, C, B)
    # The local recursions, one (row, chunk) slab per step.
    step = np.empty((rows, C))
    for k in range(1, B):
        np.multiply(chunks[..., k - 1], decay[:, np.newaxis], out=step)
        np.maximum(step, chunks[..., k], out=chunks[..., k])
    # carry[:, k] = g^k(carry[:, 0]) after the accumulate.
    factors = np.empty((rows, B + 1))
    factors[:, 1:] = decay[:, np.newaxis]
    carry = np.empty_like(factors)
    for c in range(1, C):
        factors[:, 0] = chunks[:, c - 1, -1]
        np.multiply.accumulate(factors, axis=1, out=carry)
        np.maximum(carry[:, 1:], chunks[:, c], out=chunks[:, c])
    return out[:, :n].reshape(norms.shape)


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

def _signal_norms(scen: Scenario, ts):
    d1 = np.asarray(scen.d1(ts))
    d2 = np.asarray(scen.d2(ts))
    return np.linalg.norm(d1, axis=-1), np.linalg.norm(d2, axis=-1)


def _ratio_check(observed, bound, ts, constants, provenance) -> dict:
    """One estimate's entry of the envelope report: whether ``observed``
    stays within ``bound`` on the grid ``ts``, and where the ratio peaks."""
    observed = np.asarray(observed, dtype=float)
    bound = np.asarray(bound, dtype=float)
    live = bound > CHECK_BOUND_FLOOR
    zero = observed <= CHECK_BOUND_FLOOR
    if not np.any(live) and np.all(zero):
        passed, vacuous, worst_ratio, worst_time = True, True, 0.0, 0.0
    else:
        ratios = np.where(live, observed / np.where(live, bound, 1.0), np.inf)
        ratios = np.where(~live & zero, 0.0, ratios)
        worst = int(np.argmax(ratios))
        passed, vacuous = bool(ratios[worst] <= 1.0), False
        worst_ratio, worst_time = float(ratios[worst]), float(ts[worst])
    return {"pass": passed, "vacuous": vacuous, "worst_ratio": worst_ratio,
            "worst_time": worst_time, "constants": constants,
            "provenance": provenance}


CHANNELS = ("x0", "d1", "d2")


def _shapes(runs, cert: Certificate):
    """The lookup ``shape(i, name)`` of envelope shape ``name`` (see
    ``ENVELOPES``) of run ``i`` of ``runs``, which share one grid.  The
    fading-memory sups of every live disturbance (kind not ``zero``; a zero
    signal's sups are 0.0) of every run at both rates are built up front in
    one ``fading_memory_sup`` call; the X0/Y0 decays and the d2 causal
    windows are made on lookup, from the two e^{-rate t} arrays.  The X0
    term is the upper norm of the scenario's ``initial_state``: the same
    reduction as a full run's first ``norm_upper``, so it holds for a run
    that stepped only the head modes."""
    ts = runs[0].t
    dt = ts[1] - ts[0]
    rates = {"k": cert.kappa, "s": cert.sigma}
    decays = {suffix: np.exp(-rate * ts) for suffix, rate in rates.items()}
    lag = causal_lag_steps(cert.D0, cert.delta_max, dt)
    x0_norms, rows = [], {}
    for i, traj in enumerate(runs):
        scen, desc = traj.scenario, traj.scenario.descriptor
        x0_norms.append(state_norm(scen.initial_state, desc.riesz_lower,
                                   desc.riesz_upper)[1])
        live = [signal for signal in ("d1", "d2")
                if getattr(scen, signal).kind != "zero"]
        if live:
            norms = dict(zip(("d1", "d2"), _signal_norms(scen, ts)))
            rows.update(((i, signal, suffix), norms[signal])
                        for signal in live for suffix in rates)
    sups = dict(zip(rows, fading_memory_sup(
        np.reshape(list(rows.values()), (len(rows), len(ts))),
        [rates[suffix] for _, _, suffix in rows], dt))) if rows else {}
    zeros = np.zeros(len(ts))

    def shape(i, name):
        signal, suffix = name.split("_")
        if signal == "X0":
            return decays[suffix] * x0_norms[i]
        if signal == "Y0":
            return decays[suffix] * np.linalg.norm(runs[i].Y[0])
        sup = sups.get((i, signal[:2], suffix), zeros)
        return _causal_window(sup, rates[suffix], dt, lag) \
            if signal == "d2w" else sup
    return shape


def _observed(trajs, estimate: str) -> np.ndarray:
    """The trajectory norms that the estimate bounds, one row per trajectory
    of ``trajs`` (which share one grid)."""
    if estimate == "state":
        return np.stack([traj.norm_upper for traj in trajs])
    series = {"control": "u", "head_state": "Y",
              "transformed_state": "Z"}[estimate]
    return np.linalg.norm(np.stack([getattr(traj, series) for traj in trajs]),
                          axis=-1)


def check_envelopes(trajectory: Trajectory) -> dict:
    """Evaluate the X, u, Y and Z fading-memory envelopes of the certificate
    the trajectory's scenario ran under.

    Returns ``{estimate: {"pass", "vacuous", "worst_ratio", "worst_time",
    "constants", "provenance"}}`` in ``ENVELOPES`` order, the mapping that
    ``specpred check`` prints under ``"checks"``.
    """
    if trajectory.scenario is None:
        raise CertifierError("trajectory must carry its scenario")
    cert = trajectory.scenario.certificate
    if not cert.has_fitted_constants:
        raise CertifierError("missing fitted constants; run fit_constants first")
    shape = _shapes([trajectory], cert)
    report = {}
    for name, (bank, terms) in ENVELOPES.items():
        constants = getattr(cert, bank)
        rhs = sum(constants[key] * shape(0, term) for key, term in terms)
        # The state constants add the exact tail to their fitted part.
        provenance = {key: "fitted+exact-tail" for key, _ in terms} \
            if name == "state" else {"scale": "fitted"}
        report[name] = _ratio_check(_observed([trajectory], name)[0], rhs,
                                    trajectory.t, constants, provenance)
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
    """The largest num/den over the samples where den > RATIO_BOUND_FLOOR,
    or 0.0 where there is none, along the last axis: one float, or a list
    of one per row."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    ok = den > RATIO_BOUND_FLOOR
    ratios = np.divide(num, den, out=np.full(ok.shape, -np.inf), where=ok)
    worst = np.max(ratios, axis=-1, initial=-np.inf)
    return np.where(ok.any(axis=-1), worst, 0.0).tolist()


# The estimates whose constants the ensemble fits; the state constants
# follow from them (``finalize_tail_constants``).
_FITTED = ("control", "head_state", "transformed_state")


def fit_constants(trajectories: Sequence[Trajectory],
                  certificate: Certificate) -> Certificate:
    """Fit the existential channel gains from an isolated-channel ensemble.

    The ensemble must contain disturbance-free (x0), d1-only and d2-only
    runs on one time grid; by linearity each channel isolates its constants:
    term i of each fitted estimate in ``ENVELOPES`` on channel i.  Each
    constant is the worst ratio of the estimate's norms (``_observed``) to
    the term's shape (``_shapes``) over its channel's runs, times
    ``FIT_INFLATION``.  Fills the u/y/z constants on the certificate, then
    the tail constants and the assembled state bounds
    (``finalize_tail_constants``).  The fit reads only u, Y and Z, and the
    X0 term is the initial-state norm of each run's scenario, so a run may
    step only the N0 head modes of its scenario, as ``certify``'s does.
    """
    cert = certificate
    channels = []
    for traj in trajectories:
        if traj.scenario is None:
            raise CertifierError("ensemble trajectories must carry scenarios")
        channels.append(_channel_of(traj.scenario))
        if channels[-1] == "mixed":
            raise CertifierError("fit ensemble runs must isolate one channel")
    rows = {ch: [i for i, c in enumerate(channels) if c == ch]
            for ch in CHANNELS}
    for ch, members in rows.items():
        if not members:
            raise CertifierError(f"fit ensemble is missing the {ch} channel")
    if len({(len(traj.t), traj.t[1] - traj.t[0])
            for traj in trajectories}) > 1:
        raise CertifierError("fit ensemble runs must share one time grid")

    shape = _shapes(trajectories, cert)
    for name in _FITTED:
        bank, terms = ENVELOPES[name]
        setattr(cert, bank, {key: max(0.0, *_max_ratio(
            _observed([trajectories[i] for i in rows[ch]], name),
            np.stack([shape(i, term) for i in rows[ch]]))) * FIT_INFLATION
            for ch, (key, term) in zip(CHANNELS, terms)})
    cert.fit_info = {
        "ensemble_size": len(trajectories),
        "channels": {ch: len(members) for ch, members in rows.items()},
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
    idx = np.nonzero(ts >= cert.t0 + cert.D0 + cert.delta_max)[0]
    # The window ends before the first norm at or below the floor.
    floor = trajectory.norm_upper[idx] <= DECAY_FIT_FLOOR
    truncated = bool(floor.any())
    if truncated:
        idx = idx[:np.argmax(floor)]
    if len(idx) < 10:
        raise CertifierError("fit window too short (state hit numerical zero)")
    slope = np.polyfit(ts[idx], np.log(trajectory.norm_upper[idx]), 1)[0]
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
    d: Callable
    q: Callable
    p: Callable
    x0: Callable          # history on [-r-eps, 0]

    def smallgain_ok(self, M_lambda: float, lam: float) -> bool:
        return bool(smallgain_lhs(self.eps, float(np.linalg.norm(self.A, 2)),
                                  float(np.linalg.norm(self.C, 2)),
                                  M_lambda, lam) < lam)


def _matvec(M, v):
    """Per-member product M[s] @ v[s] for M (S, n, n) and v (..., S, n)."""
    return np.einsum("sij,...sj->...si", M, v)


def _sample(f, ts):
    """Member function ``f`` on the times ``ts``, one row per time: one call
    for a signal object, one call per time for any other callable."""
    signal = isinstance(f, (DelaySignal, DisturbanceSignal))
    vals = f(ts) if signal else [f(t) for t in ts]
    return np.asarray(vals, dtype=float).reshape(len(ts), -1)


def _sampler(fs, width):
    """ts -> the member functions ``fs`` on ``ts``, (len(ts), len(fs), width)
    zero-padded.  The sinusoid signals of each class are stacked into one
    signal of that class whose parameters are rows, sampled by one call on a
    column of times; zero signals are skipped, as ``out`` starts at zero,
    and the other members go through ``_sample``."""
    rest = {i for i, f in enumerate(fs)
            if not (type(f) is DisturbanceSignal and f.kind == "zero")}
    stacks = []
    for cls in (DelaySignal, DisturbanceSignal):
        idx = [i for i, f in enumerate(fs)
               if type(f) is cls and f.kind == "sinusoid"]
        if not idx:
            continue
        group = [fs[i] for i in idx]
        names = ("omega", "phase") + (("D0", "amplitude")
                                      if cls is DelaySignal else ())
        rows = {k: np.array([getattr(f, k) for f in group]) for k in names}
        if cls is DisturbanceSignal:    # amplitude rows, padded to width
            rows.update(m=width, amplitude=np.array(
                [np.pad(f._amp(), (0, width - f.m)) for f in group]))
        stacks.append((idx, replace(group[0], **rows)))
        rest.difference_update(idx)

    def sample(ts):
        out = np.zeros((len(ts), len(fs), width))
        for idx, signal in stacks:
            v = signal(ts[:, np.newaxis]).reshape(len(ts), len(idx), -1)
            out[:, idx, :v.shape[2]] = v
        for i in sorted(rest):
            v = _sample(fs[i], ts)
            out[:, i, :v.shape[1]] = v
        return out
    return sample


def simulate_delay_difference(problem, dt: float, T: float,
                              with_forcing: bool = False):
    """RK4 integration of the delay-difference system with cubic history reads.

    ``problem`` is one ``Lemma2Problem`` or a sequence of them.  A sequence
    is stepped together in one pass: the state is shaped (S, n), the history
    (n_pre + J + 1, S, n), and every history read is one ``cubic_reader``
    read over the members, whose A, C, r and eps may differ; members of a
    lower state dimension are zero-padded to the largest n.  The delayed
    reads lag at least r - eps behind t, so a block of L steps reads only
    samples known when it starts: it samples d, q and p on its step and
    half-step times once (``_sampler``), its forcing is one read of both
    delayed arguments, and each of its RK4 steps is x_{j+1} = R x_j + b_j
    (R the RK4 polynomial of dt A, b_j the step from x = 0), advanced by one
    ``affine_scan``.  A history of more than ``MAX_STEPS`` rows is refused.

    Returns (ts, xs) with xs shaped (J+1, n) for one problem and (J+1, S, n)
    for a sequence; ``with_forcing`` appends p sampled on ts, shaped as xs.
    """
    single = isinstance(problem, Lemma2Problem)
    members = [problem] if single else list(problem)
    S = len(members)
    reach = max(pr.r + pr.eps for pr in members)
    n_pre = history_rows(reach, dt) + 1     # + the cubic stencil's back row
    J = int(round(T / dt))
    if (rows := n_pre + J + 1) > MAX_STEPS:
        raise CertifierError(f"lemma-2 history of {rows} rows exceeds "
                             f"MAX_STEPS = {MAX_STEPS}: r + eps = {reach:g} "
                             f"and T = {T:g} over dt = {dt:g}")
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
    xs = np.zeros((n_pre + J + 1, S, n))
    t_hist = -n_pre * dt + dt * np.arange(n_pre + 1)
    for i, (pr, k) in enumerate(zip(members, dims)):
        xs[:n_pre + 1, i, :k] = _sample(pr.x0, np.maximum(t_hist, -(pr.r + pr.eps)))
    read = cubic_reader(xs)
    # One sampler for d, q and p: d and q in one expression, p in another.
    sample = _sampler([pr.d for pr in members] + [pr.q for pr in members]
                      + [pr.p for pr in members], n)
    R = rk4_substep(lambda X: A @ X, dt, np.broadcast_to(np.eye(n), A.shape),
                    0.0, 0.0, 0.0)

    ts = dt * np.arange(J + 1)
    ps = np.zeros((J + 1, S, n))
    # A read at a block's last time lags r - eps and its stencil reaches 2
    # rows past it, so a block of L steps reads only rows known at its start.
    L = max(1, int(np.min(r - eps) / dt) - 3)
    for j0 in range(0, J, L):
        tb = ts[j0:j0 + L + 1]
        tf = np.empty(2 * len(tb) - 1)
        tf[0::2], tf[1::2] = tb, tb[:-1] + dt / 2
        dqp = sample(tf)
        d, q, pf = dqp[:, :S, 0], dqp[:, S:2 * S, 0], dqp[:, 2 * S:]
        tr = tf[:, np.newaxis] - r
        x = (np.stack([tr - eps * d, tr]) - t_hist[0]) / dt
        (lag, nom), _ = read(x, n_pre + J)
        f = q[..., np.newaxis] * _matvec(C, lag - nom) + pf
        ps[j0:j0 + len(tb)] = pf[0::2]
        b = rk4_substep(lambda v: _matvec(A, v), dt, np.zeros_like(f[1::2]),
                        f[0:-1:2], f[1::2], f[2::2])
        xs[n_pre + j0 + 1:n_pre + j0 + len(tb)] = affine_scan(
            R, b.swapaxes(0, 1), xs[n_pre + j0]).swapaxes(0, 1)
    xs = xs[n_pre:]
    if single:
        xs, ps = xs[:, 0], ps[:, 0]
    return (ts, xs, ps) if with_forcing else (ts, xs)


def _stacked(f, mats):
    """f of each matrix of ``mats``, one float each, from one call per shape."""
    out = np.empty(len(mats))
    for shape in {np.shape(M) for M in mats}:
        idx = [i for i, M in enumerate(mats) if np.shape(M) == shape]
        out[idx] = f(np.stack([mats[i] for i in idx]))
    return out.tolist()


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
    / growing), never prove it.  Steps are dt split into the fewest equal
    parts with h max|eig A| <= 2.5 (RK4 is stable to 2.78); more than 16 refuse.
    """
    norm_A, norm_C = (_stacked(lambda M: np.linalg.norm(M, 2, axis=(1, 2)),
                               [getattr(pr, k) for pr in problems]) for k in "AC")
    if not all(smallgain_lhs(pr.eps, a, c, M_lambda, lam) < lam
               for pr, a, c in zip(problems, norm_A, norm_C)):
        raise CertifierError("small-gain precondition violated for a member")
    eig = max(_stacked(lambda M: np.max(np.abs(np.linalg.eigvals(M)), axis=1),
                       [pr.A for pr in problems]))
    if (parts := max(1, math.ceil(dt * eig / 2.5))) > 16:
        raise CertifierError(f"stiff lemma-2 member: |a| = max|eig A| = "
                             f"{eig:.6g} needs an RK4 step below dt/16")
    h = dt / parts
    ts, xs, ps = simulate_delay_difference(problems, h, T, with_forcing=True)
    # Each member's np.linalg.norm(v[:, i], axis=1) as a row, from one reduction
    # squaring xs and ps in place; freed, they keep the report under the peak.
    x_norms, p_norms = [np.sqrt(s, out=s).T for s in (
        np.add.reduce(np.multiply(v, v, out=v), axis=2) for v in (xs, ps))]
    del xs, ps
    sup_x0 = np.array([np.max(np.linalg.norm(_sample(
        pr.x0, np.linspace(-(pr.r + pr.eps), 0.0, 201)), axis=1))
        for pr in problems])
    has_p = np.max(p_norms, axis=1) > 0
    channels = ["x0" if s > 0 and not p else "p" if p and s == 0 else "mixed"
                for s, p in zip(sup_x0.tolist(), has_p.tolist())]
    x0, forced = ([i for i, ch in enumerate(channels) if ch == c]
                  for c in ("x0", "p"))
    # Mixed members only sanity-check finiteness.
    ratio = np.max(x_norms, axis=1)
    ratio[x0] = _max_ratio(x_norms[x0], np.exp(-sigma * ts)
                           * sup_x0[x0, np.newaxis])
    ratio[forced] = _max_ratio(x_norms[forced], fading_memory_sup(
        p_norms[forced], sigma, h))
    ratio = ratio.tolist()
    return {
        "M": max([1.0] + [ratio[i] for i in x0]),
        "N": max([0.0] + [ratio[i] for i in forced]),
        "sigma": sigma,
        "finite": all(np.isfinite(ratio)),
        "members": [{"channel": ch, "ratio": r}
                    for ch, r in zip(channels, ratio)],
        "note": "ensemble evidence only: can falsify the estimate, not prove it",
    }
