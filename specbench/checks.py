"""Correctness checks of the specpred benchmark.

Every check is computed here, apart from the program, from the program's
written outputs (certificate JSON, trajectory CSV, check report, lemma-2
report) and the scenario inputs, or is a property the method must have for
every seed.  None compares against a stored copy of earlier output, and none
gates on the pass/fail of the fitted envelopes, which is evidence only.
Each ``*_failures`` function returns a list of failure messages; an empty
list is a pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm


def _array(v):
    """Certificate array field, real or {"real", "imag"}."""
    if isinstance(v, dict):
        return np.asarray(v["real"]) + 1j * np.asarray(v["imag"])
    return np.asarray(v, dtype=float)


def _rel(err, scale):
    return float(err) / max(float(scale), 1e-300)


# ---------------------------------------------------------------------------
# Certificate (ensemble workload)

def closed_loop(cert: dict):
    """diag(lambda) + e^{-D0 diag(lambda)} B K, built from the certificate."""
    lam = _array(cert["lambdas"])
    B = np.atleast_2d(_array(cert["B"]))
    K = np.atleast_2d(_array(cert["K"]))
    return np.diag(lam) + np.diag(np.exp(-cert["D0"] * lam)) @ B @ K, B @ K


def certify_exit_failures(cert: dict) -> list:
    """The condition on which ``specpred certify`` exits 0."""
    ok = (cert["delta_max"] > 0 and cert["sigma"] > 0
          and cert.get("u_constants") is not None
          and cert.get("x_constants") is not None)
    if not ok:
        return [f"certify would exit 1: delta_max={cert['delta_max']!r} "
                f"sigma={cert['sigma']!r} or the fitted constants are missing"]
    return []


def certificate_failures(cert: dict, target_poles, grid_T: float = 20.0,
                         n_grid: int = 4001) -> list:
    out = []
    A_cl, BK = closed_loop(cert)
    poles = np.sort_complex(np.linalg.eigvals(A_cl).astype(complex))
    target = np.sort_complex(np.asarray(target_poles, dtype=complex))
    pole_err = float(np.max(np.abs(poles - target) / np.maximum(1.0, np.abs(target))))
    if pole_err > 1e-8:
        out.append(f"closed-loop poles {poles} differ from the targets "
                   f"{target} by {pole_err:.3g} (> 1e-8)")
    M, lam = cert["M_lambda"], cert["lambda"]
    d_star, d_max = cert["delta_star"], cert["delta_max"]
    a_norm = float(np.linalg.norm(A_cl, 2))
    bk_norm = float(np.linalg.norm(BK, 2))
    lhs = M * bk_norm * (math.exp(a_norm * d_star) - math.exp(-lam * d_star))
    if abs(lhs - lam) > 1e-10 * lam:
        out.append(f"small-gain LHS at delta_star is {lhs!r}, not lambda = "
                   f"{lam!r} to 1e-10 relative")
    if not d_max <= d_star:
        out.append(f"delta_max {d_max!r} exceeds delta_star {d_star!r}")
    ts = np.linspace(0.0, grid_T, n_grid)
    norms = np.array([np.linalg.norm(expm(A_cl * t), 2) for t in ts])
    env = M * np.exp(-lam * ts)
    worst = int(np.argmax(norms / env))
    if norms[worst] > env[worst] * (1.0 + 1e-12):
        out.append(f"||e^(A_cl t)|| = {norms[worst]:.6g} exceeds "
                   f"M e^(-lambda t) = {env[worst]:.6g} at t = {ts[worst]:.4g}")
    return out


def kappa_failures(rows, kappa: float) -> list:
    """Completed certified sweep rows must decay at least at rate kappa."""
    return [f"sweep point {r['index']} (amplitude {r['value']:.4g}): "
            f"kappa_hat {r['kappa_hat']!r} < kappa {kappa!r}"
            for r in rows if r["certified"] and not r["kappa_hat"] >= kappa]


# ---------------------------------------------------------------------------
# Trajectory (long-horizon workload)

def read_csv(path) -> dict:
    """Trajectory CSV parsed by column name."""
    with open(path) as fh:
        header = [h.strip() for h in fh.readline().split(",")]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def cols(prefix):
        return data[:, [i for i, h in enumerate(header) if h.startswith(prefix)]]

    return {"t": data[:, header.index("t")], "coeffs": cols("c_"),
            "Y": cols("Y_"), "Z": cols("Z_"), "u": cols("u_"), "v": cols("v_"),
            "norm_lower": data[:, header.index("norm_lower")],
            "norm_upper": data[:, header.index("norm_upper")]}


TRAJECTORY_FIELDS = ("t", "coeffs", "Y", "Z", "u", "v", "norm_lower",
                     "norm_upper")


def roundtrip_failures(written: dict, read: dict, label: str) -> list:
    """Every field of ``read`` equals ``written`` bit for bit."""
    out = []
    for key in TRAJECTORY_FIELDS:
        a, b = np.asarray(written[key]), np.asarray(read[key])
        if a.shape != b.shape or not np.array_equal(a, b):
            out.append(f"{label}: field {key} does not round-trip bit-exactly")
    return out


def engine_gap(engine_coeffs, oracle_coeffs, norm_upper) -> float:
    """Sup relative gap between the engines' modal coefficients."""
    return _rel(np.max(np.abs(np.asarray(engine_coeffs) - oracle_coeffs)),
                np.max(norm_upper))


def signal(spec: dict, t, m: int = 1):
    """Scenario disturbance d(t), shape (len(t), m); zero and sinusoid kinds."""
    t = np.asarray(t, dtype=float)
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return np.zeros(t.shape + (m,))
    if kind != "sinusoid":
        raise ValueError(f"benchmark scenarios use zero/sinusoid, not {kind!r}")
    amp = np.atleast_1d(np.asarray(spec["amplitude"], dtype=float))
    return np.sin(spec["omega"] * t + spec["phase"])[:, np.newaxis] * amp


def transition(t, t0: float):
    s = np.clip(np.asarray(t, dtype=float) / t0, 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


def control_law_failures(traj: dict, cert: dict, scenario: dict,
                         tol: float = 1e-9) -> list:
    """u_j = phi(t_j) (K Z_j + d2_j) on the whole grid."""
    K = np.atleast_2d(_array(cert["K"]))
    m = K.shape[0]
    d2 = signal(scenario["disturbance_d2"], traj["t"], m)
    law = transition(traj["t"], cert["t0"])[:, np.newaxis] \
        * (traj["Z"] @ K.T + d2)
    err = _rel(np.max(np.abs(traj["u"] - law)), np.max(np.abs(traj["u"])))
    if not err <= tol:
        return [f"control law u = phi (K Z + d2) violated: sup relative "
                f"error {err:.3g} (> {tol:g})"]
    return []


_GL_X, _GL_W = np.polynomial.legendre.leggauss(3)


def transformed_state(traj: dict, cert: dict, j: int):
    """Z(t_j) = Y(t_j) + int_{t_j-D0}^{t_j} e^{(t_j-D0-s)A} B u(s) ds.

    u is the piecewise-linear interpolant of the sampled control, zero before
    t = 0; each grid segment of the window is integrated by 3-point
    Gauss-Legendre, accurate to rounding at these step sizes (the
    error is of order (lambda dt)^6).
    """
    lam = _array(cert["lambdas"])
    B = np.atleast_2d(_array(cert["B"]))
    D0 = cert["D0"]
    t, u = traj["t"], traj["u"]
    tj = t[j]
    lo = max(tj - D0, 0.0)
    inner = t[(t > lo) & (t < tj)]
    nodes = np.concatenate([[lo], inner, [tj]])
    a, b = nodes[:-1], nodes[1:]
    s = (a[:, np.newaxis] + b[:, np.newaxis]) / 2 \
        + (b - a)[:, np.newaxis] / 2 * _GL_X                 # (S, 3)
    w = (b - a)[:, np.newaxis] / 2 * _GL_W
    us = np.stack([np.interp(s, t, u[:, k]) for k in range(u.shape[1])], -1)
    f = us @ B.T                                              # (S, 3, N0)
    kern = np.exp(np.multiply.outer(tj - D0 - s, lam))       # (S, 3, N0)
    return traj["Y"][j] + np.einsum("sq,sqn->n", w, kern * f)


def transformed_state_failures(traj: dict, cert: dict, n_samples: int = 41,
                               tol: float = 1e-9) -> list:
    idx = np.unique(np.linspace(0, len(traj["t"]) - 1, n_samples).astype(int))
    ref = np.array([transformed_state(traj, cert, j) for j in idx])
    err = _rel(np.max(np.abs(traj["Z"][idx] - ref)), np.max(np.abs(ref)))
    if not err <= tol:
        return [f"transformed state Z differs from the recomputed Artstein "
                f"integral by {err:.3g} relative (> {tol:g})"]
    return []


def _fading_sup(norms, rate: float, t):
    """max_{i<=j} e^{-rate (t_j - t_i)} norms_i, as e^{-rate t_j} cummax."""
    return np.exp(-rate * t) * np.maximum.accumulate(np.exp(rate * t) * norms)


def _windowed_sup(norms, rate: float, t, lag: int):
    """Same supremum over samples at least ``lag`` steps back (sample 0
    alone while t_j is inside the lag)."""
    acc = np.maximum.accumulate(np.exp(rate * t) * norms)
    return np.exp(-rate * t) * acc[np.maximum(np.arange(len(t)) - lag, 0)]


def _worst_ratio(observed, bound, floor=1e-13) -> float:
    live = bound > floor
    ratios = np.where(live, observed / np.where(live, bound, 1.0),
                      np.where(observed <= floor, 0.0, np.inf))
    return float(np.max(ratios))


def envelope_ratios(traj: dict, cert: dict, scenario: dict) -> dict:
    """Worst observed/bound ratio of the four fading-memory ISS envelopes."""
    t = traj["t"]
    dt = t[1] - t[0]
    k, s = cert["kappa"], cert["sigma"]
    m = traj["u"].shape[1]
    n1 = np.linalg.norm(signal(scenario["disturbance_d1"], t, m), axis=1)
    n2 = np.linalg.norm(signal(scenario["disturbance_d2"], t, m), axis=1)
    lag = int(math.ceil((cert["D0"] - cert["delta_max"]) / dt - 1e-9))
    X0 = traj["norm_upper"][0]
    y0 = np.linalg.norm(traj["Y"][0])
    xb, ub = cert["x_constants"], cert["u_constants"]
    yb, zb = cert["y_constants"], cert["z_constants"]
    bounds = {
        "state": (traj["norm_upper"],
                  xb["Cbar1"] * np.exp(-k * t) * X0 + xb["Cbar2"] * _fading_sup(n1, k, t)
                  + xb["Cbar3"] * _windowed_sup(n2, k, t, lag)),
        "control": (np.linalg.norm(traj["u"], axis=1),
                    ub["Cbar4"] * np.exp(-k * t) * X0 + ub["Cbar5"] * _fading_sup(n1, k, t)
                    + ub["Cbar6"] * _fading_sup(n2, k, t)),
        "head_state": (np.linalg.norm(traj["Y"], axis=1),
                       yb["C1"] * np.exp(-s * t) * X0 + yb["C2"] * _fading_sup(n1, s, t)
                       + yb["C3"] * _windowed_sup(n2, s, t, lag)),
        "transformed_state": (np.linalg.norm(traj["Z"], axis=1),
                              zb["gamma3"] * np.exp(-s * t) * y0
                              + zb["gamma4"] * _fading_sup(n1, s, t)
                              + zb["gamma5"] * _fading_sup(n2, s, t)),
    }
    return {name: _worst_ratio(obs, bnd) for name, (obs, bnd) in bounds.items()}


def envelope_report_failures(reported: dict, traj: dict, cert: dict,
                             scenario: dict, tol: float = 1e-9) -> list:
    """The check report's worst ratios equal a recomputation from the CSV."""
    out = []
    for name, ref in envelope_ratios(traj, cert, scenario).items():
        got = reported[name]["worst_ratio"]
        if not abs(got - ref) <= tol * abs(ref):
            out.append(f"check {name}: reported worst ratio {got!r}, "
                       f"recomputed {ref!r}")
    return out


# ---------------------------------------------------------------------------
# Delay-difference validator (lemma2 workload)

def lemma2_report_failures(report: dict, n_members: int) -> list:
    out = []
    if len(report["members"]) != n_members:
        out.append(f"lemma2 report has {len(report['members'])} members, "
                   f"expected {n_members}")
    if not (report["finite"] and math.isfinite(report["M"])
            and math.isfinite(report["N"])):
        out.append(f"lemma2 constants not finite: M={report['M']!r} "
                   f"N={report['N']!r} finite={report['finite']!r}")
    return out


def forced_decay(t, a: float, x0: float, amp: float, w: float, ph: float):
    """Closed-form solution of x' = a x + amp sin(w t + ph), x(0) = x0."""
    def particular(t):
        return amp * (-a * np.sin(w * t + ph) - w * np.cos(w * t + ph)) \
            / (a * a + w * w)
    return particular(t) + np.exp(a * t) * (x0 - particular(0.0))


def closed_form_failures(xs, ref, tol: float = 1e-9) -> list:
    err = _rel(np.max(np.abs(np.ravel(xs) - ref)), np.max(np.abs(ref)))
    if not err <= tol:
        return [f"q = 0 member differs from the closed form by {err:.3g} "
                f"relative (> {tol:g})"]
    return []


def growth_failures(ts, xs, t_half: float, factor: float = 10.0) -> list:
    """Past the small-gain threshold the member outgrows a doubled horizon."""
    xn = np.abs(np.ravel(xs))
    growth = float(np.max(xn) / np.max(xn[ts <= t_half]))
    if not growth > factor:
        return [f"past-threshold member grew only x{growth:.3g} over the "
                f"doubled horizon (needs > {factor:g})"]
    return []
