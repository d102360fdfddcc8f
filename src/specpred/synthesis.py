"""Gain synthesis and certificate computation for the predictor feedback loop.

The certificate gathers everything the stability theory promises, made
numeric: the feedback gain K, the decay envelope (M_lambda, lambda) of the
delay-free closed-loop matrix, the admissible delay-uncertainty radius from
the small-gain inequality, the truncated-model decay rate sigma, and the
explicit tail constants.  Constants that the theory only proves to exist
(the u/Y/Z channel gains) are fitted from simulation ensembles by the
certifier and carry ``fitted`` provenance; everything else is ``exact``.
The caller gives the whole design (D0, t0 and either K or the target
poles); the default design lives in ``cli.DEFAULT_DESIGN``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .errors import SpecpredError
from .numerics import matrix_exp_norm
from .spectral_model import SystemDescriptor, TruncatedModel, lifting_norms


class SynthesisError(SpecpredError, ValueError):
    pass


LAMBDA_FRACTION = 0.95   # envelope rate lam / spectral abscissa of A_cl
ENVELOPE_GRID = 8192     # grid points of the envelope supremum
DELTA_SAFETY = 0.9       # delta_max / small-gain equality point
KAPPA_FRACTION = 0.5     # kappa / min(alpha, sigma)


@dataclass
class Certificate:
    """Numeric stability certificate for one (plant, gain, delay) design."""

    # Plant head and gain
    lambdas: np.ndarray          # diagonal of A_{N0}
    B: np.ndarray                # N0 x m modal input matrix
    K: np.ndarray                # m x N0 feedback gain
    N0: int
    D0: float                    # nominal delay
    t0: float                    # transition horizon
    # Tail data
    alpha: float
    xi: float
    m_R: float
    M_R: float
    # Envelope of A_cl
    A_cl: np.ndarray
    M_lambda: float
    lam: float
    # Margins and rates
    delta_star: float            # equality point of the small-gain inequality
    delta_max: float             # certified delay radius (with safety margin)
    sigma: float
    delta_tilde: float           # contraction value at sigma
    kappa: float
    epsilon: float               # kappa / alpha
    # Explicit tail constants C~0..C~3
    tail_constants: dict = field(default_factory=dict)
    # Fitted constants (None until the certifier fills them in)
    u_constants: Optional[dict] = None    # Cbar4, Cbar5, Cbar6 (rate kappa)
    y_constants: Optional[dict] = None    # C1, C2, C3 (rate sigma)
    z_constants: Optional[dict] = None    # gamma3, gamma4, gamma5 (rate sigma)
    x_constants: Optional[dict] = None    # Cbar1..3 = sqrt(M_R)(Ci + sqrt(C~i))
    provenance: dict = field(default_factory=dict)
    fit_info: Optional[dict] = None
    degenerate_delta: bool = False        # BK = 0: unconstrained by small gain

    @property
    def A(self) -> np.ndarray:
        return np.diag(self.lambdas)

    @property
    def BK_norm(self) -> float:
        return float(np.linalg.norm(self.B @ self.K, 2))

    @property
    def has_fitted_constants(self) -> bool:
        return self.u_constants is not None and self.x_constants is not None


def place_gain(model: TruncatedModel, D0: float, target_poles) -> np.ndarray:
    """Single-input pole placement for A_cl = A + e^{-D0 A} B K.

    Placement runs on the pair (A, e^{-D0 A} B) via Ackermann's formula, which
    handles the diagonal-with-distinct-eigenvalues structure directly.
    """
    A = model.A
    B = model.B
    n = model.N0
    if B.shape[1] != 1:
        raise SynthesisError(
            "pole placement is implemented for single-input models; "
            "provide K manually for m > 1"
        )
    target = np.atleast_1d(np.asarray(target_poles))
    if target.size != n:
        raise SynthesisError(f"need exactly N0={n} target poles")
    if np.any(target.real >= 0):
        raise SynthesisError("target poles must have negative real parts")
    is_real = not (np.iscomplexobj(A) or np.iscomplexobj(B))
    if is_real and not np.allclose(np.sort_complex(target),
                                   np.sort_complex(np.conj(target))):
        raise SynthesisError("target poles must be closed under conjugation "
                             "for a real-field model")
    Bt = expm(-D0 * A) @ B
    # Hautus test for the diagonal pair: every head mode needs b_{n,1} != 0.
    if np.any(np.abs(B[:, 0]) == 0.0):
        dead = int(np.nonzero(np.abs(B[:, 0]) == 0.0)[0][0]) + 1
        raise SynthesisError(f"uncontrollable: b_{{{dead},1}} = 0")
    # Controllability matrix of (A, Bt).
    ctrb = np.column_stack([np.linalg.matrix_power(A, i) @ Bt for i in range(n)])
    if np.linalg.cond(ctrb) > 1e14:
        raise SynthesisError("uncontrollable pair (A, e^{-D0 A} B)")
    # Desired characteristic polynomial evaluated at A.
    coeffs = np.poly(target)
    pA = np.zeros_like(A)
    for c in coeffs:
        pA = pA @ A + c * np.eye(n, dtype=A.dtype)
    en = np.zeros((1, n), dtype=A.dtype)
    en[0, -1] = 1.0
    # A_cl = A + Bt K with K = -e_n^T ctrb^{-1} p(A)
    K = -en @ np.linalg.solve(ctrb, pA)
    if is_real:
        K = K.real
    A_cl = A + Bt @ K
    placed = np.sort_complex(np.linalg.eigvals(A_cl))
    if not np.allclose(placed, np.sort_complex(target.astype(complex)), atol=1e-8):
        raise SynthesisError(
            f"pole placement failed: got {placed}, wanted {target}"
        )
    return K


def decay_envelope(A_cl):
    """Certified envelope ||e^{A_cl t}|| <= M_lambda e^{-lam t}.

    lam is a fraction of the spectral abscissa; M_lambda is the dense-grid
    supremum of ||e^{(A_cl + lam I) t}|| = ||e^{A_cl t}|| e^{lam t}, inflated
    by 5% and clamped >= 1.  The shifted form never multiplies an underflowed
    norm by an overflowed e^{lam t}, so a long grid (a defective or nearly
    defective A_cl) still gives a finite supremum.  The grid ends at
    T_check, the time beyond which the conditioning-based tail bound
    kappa(V) e^{abscissa t} e^{lam t} has dropped below 1, so the grid
    maximum has provably passed its peak.
    """
    A_cl = np.asarray(A_cl)
    mu, V = np.linalg.eig(A_cl)
    abscissa = float(mu.real.max())
    if abscissa >= 0.0:
        raise SynthesisError("decay_envelope requires a Hurwitz matrix")
    lam = LAMBDA_FRACTION * (-abscissa)
    condV = float(np.linalg.cond(V))
    if not np.isfinite(condV):
        condV = 1e16
    # kappa(V) e^{(abscissa + lam) t} <= 1  for t >= T_tail; M_lambda >= 1
    # always (t = 0), so the supremum is attained on [0, T_tail].
    gap = (1.0 - LAMBDA_FRACTION) * (-abscissa)
    T_check = max(1.0, np.log(max(condV, 1.0)) / gap * 1.1)
    ts = np.linspace(0.0, T_check, ENVELOPE_GRID)
    M = float(np.max(matrix_exp_norm(A_cl + lam * np.eye(len(A_cl)), ts)))
    if not np.isfinite(M):
        raise SynthesisError("decay envelope supremum is not finite")
    M_lambda = max(1.0, M) * 1.05
    return M_lambda, float(lam), float(T_check)


def _last_feasible(ok, lo: float, hi: float) -> float:
    """Last float in [lo, hi) at which the monotone predicate ``ok`` holds.

    Needs ok(lo) true and ok(hi) false.  Bisects until lo and hi are
    adjacent floats, so the result is on the feasible side.
    """
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def smallgain_lhs(delta, A_cl_norm: float, BK_norm: float, M_lambda: float, lam: float):
    """Left-hand side M ||BK|| (e^{||A_cl|| delta} - e^{-lam delta}) of the
    small-gain inequality, in expm1 form so that it neither cancels for
    tiny delta nor overflows near the root."""
    return M_lambda * BK_norm * (np.expm1(A_cl_norm * delta)
                                 - np.expm1(-lam * delta))


def delta_margin(A_cl, BK_norm: float, M_lambda: float, lam: float) -> float:
    """Equality point delta_star of the small-gain inequality (inf if BK = 0).

    delta_star is the last float with LHS(delta) <= lam.  The LHS is at least
    M ||BK|| expm1(||A_cl|| delta), so log1p(lam / (M ||BK||)) / ||A_cl||
    brackets the root from above in closed form.
    """
    if BK_norm < 0:
        raise ValueError("BK_norm must be nonnegative")
    if BK_norm == 0.0:
        return np.inf
    A_norm = float(np.linalg.norm(np.asarray(A_cl), 2))
    hi = math.log1p(lam / (M_lambda * BK_norm)) / A_norm
    return _last_feasible(
        lambda d: smallgain_lhs(d, A_norm, BK_norm, M_lambda, lam) <= lam,
        0.0, hi)


def delta_tilde(sigma, M_lambda: float, C_norm: float, A_norm: float,
                lam: float, r: float, eps: float):
    """Small-gain contraction value delta~ from the truncated-model analysis."""
    sigma = np.asarray(sigma, dtype=float)
    return (
        M_lambda * C_norm / (lam - sigma)
        * np.exp(sigma * r)
        * (np.exp(sigma * eps) * np.expm1(A_norm * eps)
           - np.expm1(-(lam - sigma) * eps))
    )


def sigma_rate(M_lambda: float, lam: float, A_norm: float, C_norm: float,
               r: float, eps: float):
    """Largest decay rate sigma in (0, lambda) with delta~(sigma) <= 1 - 1e-6.

    Returns (sigma, delta_tilde_at_sigma).  delta~ is continuous, increasing
    in sigma and blows up at sigma -> lambda, so the last feasible sigma
    below lam (1 - 1e-9) is found by bisection.  A 0.99 safety factor keeps
    the certified inequality strict.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")

    def dtil(s):
        return float(delta_tilde(s, M_lambda, C_norm, A_norm, lam, r, eps))

    threshold = 1.0 - 1e-6
    lo, hi = lam * 1e-12, lam * (1.0 - 1e-9)
    d0 = dtil(lo)
    if d0 >= threshold:
        raise SynthesisError(
            f"small-gain violated at sigma -> 0+: delta~ = {d0:.6g} >= {threshold}"
        )
    if dtil(hi) > threshold:
        hi = _last_feasible(lambda s: dtil(s) <= threshold, lo, hi)
    sigma = 0.99 * hi
    return sigma, dtil(sigma)


def iss_constants(descriptor: SystemDescriptor, model: TruncatedModel,
                  sigma: float):
    """Tail constant C~0 and the rates kappa, epsilon.

    C~1..C~3 also need the fitted u-channel constants; see
    ``finalize_tail_constants``.
    """
    alpha, xi = model.alpha, model.xi
    kappa = KAPPA_FRACTION * min(alpha, sigma)
    be2, abe2 = lifting_norms(descriptor)
    C0 = float(alpha**2 * xi**2 * np.sum(be2) + np.sum(abe2))
    return {"C0": C0, "kappa": kappa, "epsilon": kappa / alpha}


def synthesize_certificate(
    descriptor: SystemDescriptor,
    model: TruncatedModel,
    D0: float,
    t0: float,
    target_poles=None,
    K: Optional[np.ndarray] = None,
) -> Certificate:
    """Run the full synthesis pipeline up to the exactly-computable constants.

    DELTA_SAFETY shrinks the small-gain equality point before it is used as
    the certified delay radius; without it the contraction value at the
    radius is exactly 1 and no positive sigma exists.  The gain is ``K`` if
    given, else placed at ``target_poles``.
    """
    if K is None:
        if target_poles is None:
            raise SynthesisError("need a gain K or target poles")
        K = place_gain(model, D0, target_poles)
    K = np.atleast_2d(np.asarray(K))
    A = model.A
    B = model.B
    A_cl = A + expm(-D0 * A) @ B @ K
    if np.iscomplexobj(A_cl) and np.allclose(A_cl.imag, 0.0):
        A_cl = A_cl.real
    M_lambda, lam, _ = decay_envelope(A_cl)
    BK_norm = float(np.linalg.norm(B @ K, 2))
    delta_star = delta_margin(A_cl, BK_norm, M_lambda, lam)
    delta_max = min(delta_star * DELTA_SAFETY, D0 * (1.0 - 1e-6))
    A_cl_norm = float(np.linalg.norm(A_cl, 2))
    sigma, dtil = sigma_rate(M_lambda, lam, A_cl_norm, BK_norm, r=D0, eps=delta_max)
    tail = iss_constants(descriptor, model, sigma)
    cert = Certificate(
        lambdas=np.diag(A), B=B, K=K, N0=model.N0, D0=float(D0), t0=float(t0),
        alpha=model.alpha, xi=model.xi,
        m_R=descriptor.riesz_lower, M_R=descriptor.riesz_upper,
        A_cl=A_cl, M_lambda=M_lambda, lam=lam,
        delta_star=delta_star, delta_max=float(delta_max),
        sigma=float(sigma), delta_tilde=dtil,
        kappa=tail["kappa"], epsilon=tail["epsilon"],
        tail_constants={"C0": tail["C0"], "C1": None, "C2": None, "C3": None},
        degenerate_delta=BK_norm == 0.0,
        provenance={
            "K": "exact", "M_lambda": "exact", "lambda": "exact",
            "delta_max": "exact", "sigma": "exact", "kappa": "exact",
            "C~0": "exact", "C~1": "exact", "C~2": "exact", "C~3": "exact",
            "Cbar1": "fitted", "Cbar2": "fitted", "Cbar3": "fitted",
            "Cbar4": "fitted", "Cbar5": "fitted", "Cbar6": "fitted",
            "C1": "fitted", "C2": "fitted", "C3": "fitted",
            "gamma3": "fitted", "gamma4": "fitted", "gamma5": "fitted",
        },
    )
    return cert


def finalize_tail_constants(cert: Certificate) -> None:
    """Fill in C~1..C~3 from the certificate's exact data and fitted u-channel
    constants, then Cbar_i = sqrt(M_R) (C_i + sqrt(C~_i)) for i = 1..3."""
    if cert.u_constants is None or cert.y_constants is None:
        raise SynthesisError("fit the u/Y channel constants first")
    C0, kappa, m_R = cert.tail_constants["C0"], cert.kappa, cert.m_R
    m = cert.B.shape[1]
    C4, C5, C6 = (cert.u_constants[k] for k in ("Cbar4", "Cbar5", "Cbar6"))
    ek = np.exp(kappa * (cert.D0 + cert.delta_max))
    denom = (cert.alpha - kappa) ** 2
    cert.tail_constants = {
        "C0": C0,
        "C1": (4.0 / m_R) * (1.0 + 2.0 * m * C4**2 * ek**2 * C0 / denom),
        "C2": 8.0 * m * (1.0 + C5 * ek) ** 2 * C0 / (m_R * denom),
        "C3": 8.0 * m * C6**2 * ek**2 * C0 / (m_R * denom),
    }
    tail, y = cert.tail_constants, cert.y_constants
    cert.x_constants = {
        f"Cbar{i}": float(np.sqrt(cert.M_R) * (y[f"C{i}"] + np.sqrt(tail[f"C{i}"])))
        for i in (1, 2, 3)}


# ---------------------------------------------------------------------------
# Serialization

def _array_to_list(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return {"real": a.real.tolist(), "imag": a.imag.tolist()}
    return a.tolist()


def _array_from_list(v):
    if isinstance(v, dict):
        return np.asarray(v["real"]) + 1j * np.asarray(v["imag"])
    return np.asarray(v, dtype=float)


def certificate_to_dict(cert: Certificate) -> dict:
    d = {
        "lambdas": _array_to_list(cert.lambdas),
        "B": _array_to_list(cert.B),
        "K": _array_to_list(cert.K),
        "A_cl": _array_to_list(cert.A_cl),
        "N0": cert.N0, "D0": cert.D0, "t0": cert.t0,
        "alpha": cert.alpha, "xi": cert.xi,
        "m_R": cert.m_R, "M_R": cert.M_R,
        "M_lambda": cert.M_lambda, "lambda": cert.lam,
        "delta_star": cert.delta_star, "delta_max": cert.delta_max,
        "sigma": cert.sigma, "delta_tilde": cert.delta_tilde,
        "kappa": cert.kappa, "epsilon": cert.epsilon,
        "tail_constants": cert.tail_constants,
        "u_constants": cert.u_constants,
        "y_constants": cert.y_constants,
        "z_constants": cert.z_constants,
        "x_constants": cert.x_constants,
        "provenance": cert.provenance,
        "fit_info": cert.fit_info,
        "degenerate_delta": cert.degenerate_delta,
    }
    return d


def certificate_from_dict(d: dict) -> Certificate:
    return Certificate(
        lambdas=_array_from_list(d["lambdas"]),
        B=_array_from_list(d["B"]),
        K=_array_from_list(d["K"]),
        A_cl=_array_from_list(d["A_cl"]),
        N0=int(d["N0"]), D0=float(d["D0"]), t0=float(d["t0"]),
        alpha=float(d["alpha"]), xi=float(d["xi"]),
        m_R=float(d["m_R"]), M_R=float(d["M_R"]),
        M_lambda=float(d["M_lambda"]), lam=float(d["lambda"]),
        delta_star=float(d["delta_star"]), delta_max=float(d["delta_max"]),
        sigma=float(d["sigma"]), delta_tilde=float(d["delta_tilde"]),
        kappa=float(d["kappa"]), epsilon=float(d["epsilon"]),
        tail_constants=d["tail_constants"],
        u_constants=d.get("u_constants"),
        y_constants=d.get("y_constants"),
        z_constants=d.get("z_constants"),
        x_constants=d.get("x_constants"),
        provenance=d.get("provenance", {}),
        fit_info=d.get("fit_info"),
        degenerate_delta=bool(d.get("degenerate_delta", False)),
    )


def save_certificate(cert: Certificate, path) -> None:
    with open(path, "w") as fh:
        json.dump(certificate_to_dict(cert), fh, indent=2)


def load_certificate(path) -> Certificate:
    with open(path) as fh:
        d = json.load(fh)
    try:
        return certificate_from_dict(d)
    except (TypeError, AttributeError) as exc:
        raise SynthesisError(f"malformed certificate file {path}: {exc}") from exc
