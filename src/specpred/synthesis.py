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

The ``Certificate`` fields are the certificate file's schema, checked
whenever a certificate is built; ``ENVELOPES`` is the one table of the
fitted constants, their banks and the envelope shape each scales.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import KINDS, SpecpredError, is_number, load_json, read_section
from .numerics import matrix_exps, max_spectral_norm
from .spectral_model import SystemDescriptor, TruncatedModel, lifting_norms


class SynthesisError(SpecpredError, ValueError):
    pass


LAMBDA_FRACTION = 0.95   # envelope rate lam / spectral abscissa of A_cl
ENVELOPE_GRID = 8192     # grid points of the envelope supremum
DELTA_SAFETY = 0.9       # delta_max / small-gain equality point
KAPPA_FRACTION = 0.5     # kappa / min(alpha, sigma)

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
FITTED_BANKS = tuple(bank for bank, _ in ENVELOPES.values())
EXACT = ("K", "M_lambda", "lambda", "delta_max", "sigma", "kappa",
         "C~0", "C~1", "C~2", "C~3")


@dataclass
class Certificate:
    """Numeric stability certificate for one (plant, gain, delay) design."""

    # Plant head and gain
    lambdas: np.ndarray          # diagonal of A_{N0}
    B: np.ndarray                # N0 x m modal input matrix
    K: np.ndarray                # m x N0 feedback gain
    A_cl: np.ndarray             # closed-loop matrix of the envelope
    N0: int
    D0: float                    # nominal delay
    t0: float                    # transition horizon
    # Tail data
    alpha: float
    xi: float
    m_R: float
    M_R: float
    # Envelope of A_cl
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
    tail_constants: dict
    # The banks of ENVELOPES (None until the certifier fills them in)
    u_constants: Optional[dict] = None
    y_constants: Optional[dict] = None
    z_constants: Optional[dict] = None
    x_constants: Optional[dict] = None
    provenance: dict = field(default_factory=dict)
    fit_info: Optional[dict] = None
    degenerate_delta: bool = False        # BK = 0: unconstrained by small gain

    def __post_init__(self):
        """Refuse a field that disagrees with the others, naming it."""
        N0, m = self.N0, (np.shape(self.B) or (0,))[-1]
        for name, want in (("lambdas", (N0,)), ("B", (N0, m)),
                           ("K", (m, N0)), ("A_cl", (N0, N0))):
            if (shape := np.shape(a := getattr(self, name))) != want:
                raise SynthesisError(f"certificate {name} has shape {shape}, "
                                     f"not {want} for N0 = {N0} and m = {m}")
            if not np.isfinite(a).all():
                raise SynthesisError(f"certificate {name} has a non-finite "
                                     "entry")
        for name in ("N0", "D0", "t0", "lam", "sigma", "kappa"):
            if not 0 < (v := getattr(self, name)) < math.inf:
                raise SynthesisError(f"certificate {_key(name)} must be "
                                     f"positive and finite, got {v}")
        if not 0 <= self.delta_max < self.D0:
            raise SynthesisError(f"certificate delta_max must lie in [0, D0) "
                                 f"= [0, {self.D0}), got {self.delta_max}")
        for bank in FITTED_BANKS:
            if (v := getattr(self, bank)) is not None and not (
                    isinstance(v, dict) and all(map(is_number, v.values()))):
                raise SynthesisError(f"{bank} must be null or a mapping from "
                                     f"names to numbers, got {v!r}")

    @property
    def BK_norm(self) -> float:
        return float(np.linalg.norm(self.B @ self.K, 2))

    @property
    def has_fitted_constants(self) -> bool:
        return all(getattr(self, bank) is not None for bank in FITTED_BANKS)

    def admits(self, amplitude: float) -> bool:
        """True when a delay amplitude, of either sign, lies in the certified
        band (up to rounding)."""
        return abs(amplitude) <= self.delta_max * (1 + 1e-12)


def closed_loop(lambdas, B, K, D0: float) -> np.ndarray:
    """A_cl = diag(lambda) + (e^{-D0 lambda} o B) K, real when its imaginary
    part vanishes."""
    A_cl = np.diag(lambdas) + (np.exp(-D0 * lambdas)[:, np.newaxis] * B) @ K
    if np.iscomplexobj(A_cl) and np.allclose(A_cl.imag, 0.0):
        A_cl = A_cl.real
    return A_cl


def place_gain(model: TruncatedModel, D0: float, target_poles) -> np.ndarray:
    """Single-input pole placement for A_cl = A + e^{-D0 A} B K, in closed form.

    With bt = e^{-D0 lambda} b, det(sI - A_cl) = prod_i (s - lambda_i)
    (1 - sum_i K_i bt_i / (s - lambda_i)), so at s = lambda_n
    K_n = -prod_k (lambda_n - p_k) / (bt_n prod_{i != n} (lambda_n - lambda_i)).
    """
    lam = model.lambdas
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
    is_real = not (np.iscomplexobj(lam) or np.iscomplexobj(B))
    if is_real and not np.allclose(np.sort_complex(target),
                                   np.sort_complex(np.conj(target))):
        raise SynthesisError("target poles must be closed under conjugation "
                             "for a real-field model")
    # Hautus test for the diagonal pair: every head mode needs b_{n,1} != 0
    # and an eigenvalue of its own.
    if np.any(np.abs(B[:, 0]) == 0.0):
        dead = int(np.nonzero(np.abs(B[:, 0]) == 0.0)[0][0]) + 1
        raise SynthesisError(f"uncontrollable: b_{{{dead},1}} = 0")
    gaps = lam[:, np.newaxis] - lam
    np.fill_diagonal(gaps, 1.0)
    if np.any(gaps == 0.0):
        raise SynthesisError(f"uncontrollable: repeated head eigenvalue in {lam}")
    bt = np.exp(-D0 * lam) * B[:, 0]
    with np.errstate(all="ignore"):     # a gain past the float range: below
        K = -np.prod(lam[:, np.newaxis] - target, axis=1) / (bt * np.prod(gaps, axis=1))
    if not np.all(np.isfinite(K)):
        raise SynthesisError(f"placing gain overflows: min |e^(-D0 lambda_n) b_n| "
                             f"= {np.abs(bt).min():.3g}")
    K = (K.real if is_real else K)[np.newaxis, :]
    # Polynomials, not roots: the roots of a repeated pole move by eps^(1/N0).
    coeffs = np.poly(target)
    error = np.abs(np.poly(closed_loop(lam, B, K, D0)) - coeffs).max()
    if not error <= 1e-9 * np.abs(coeffs).max():
        raise SynthesisError(f"pole placement failed: characteristic polynomial "
                             f"off by {error:.3g} for target poles {target}")
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
    maximum has provably passed its peak.  The supremum takes an SVD only
    at grid points whose Frobenius norm reaches the running best
    (``numerics.max_spectral_norm``): the same float as the full-grid
    maximum, from one SVD (t = 0) when N0 = 1.
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
    M = max_spectral_norm(matrix_exps(A_cl + lam * np.eye(len(A_cl)), ts))
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
    tiny delta nor overflows near the root; 0 if ||BK|| or a scalar delta is 0."""
    if BK_norm == 0 or np.isscalar(delta) and delta == 0:
        return np.zeros_like(delta, dtype=float)
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
    """Small-gain contraction value delta~ from the truncated-model analysis
    (0 if C or eps is 0); inf, a failed test, where a factor leaves float range."""
    sigma = np.asarray(sigma, dtype=float)
    if C_norm == 0 or eps == 0:
        return np.zeros_like(sigma)
    with np.errstate(over="ignore"):
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
    B = model.B
    A_cl = closed_loop(model.lambdas, B, K, D0)
    M_lambda, lam, _ = decay_envelope(A_cl)
    BK_norm = float(np.linalg.norm(B @ K, 2))
    delta_star = delta_margin(A_cl, BK_norm, M_lambda, lam)
    delta_max = min(delta_star * DELTA_SAFETY, D0 * (1.0 - 1e-6))
    A_cl_norm = float(np.linalg.norm(A_cl, 2))
    sigma, dtil = sigma_rate(M_lambda, lam, A_cl_norm, BK_norm, r=D0, eps=delta_max)
    tail = iss_constants(descriptor, model, sigma)
    cert = Certificate(
        lambdas=model.lambdas, B=B, K=K, A_cl=A_cl, N0=model.N0,
        D0=float(D0), t0=float(t0), alpha=model.alpha, xi=model.xi,
        m_R=descriptor.riesz_lower, M_R=descriptor.riesz_upper,
        M_lambda=M_lambda, lam=lam,
        delta_star=delta_star, delta_max=float(delta_max),
        sigma=float(sigma), delta_tilde=dtil,
        kappa=tail["kappa"], epsilon=tail["epsilon"],
        tail_constants={"C0": tail["C0"], "C1": None, "C2": None, "C3": None},
        degenerate_delta=BK_norm == 0.0,
        provenance={**dict.fromkeys(EXACT, "exact"),
                    **{key: "fitted" for _, terms in ENVELOPES.values()
                       for key, _ in terms}},
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
    """The array of a file's nested list, or of its {"real", "imag"} pair of
    nested lists.  A leaf must be a number by the float rule of
    ``errors.read_as`` (so not a bool or a string), or null, which reads as
    NaN for the finiteness checks to name; another raises TypeError."""
    if isinstance(v, dict):
        return _array_from_list(v["real"]) + 1j * _array_from_list(v["imag"])

    def numbers(x):
        if isinstance(x, list):
            return [numbers(y) for y in x]
        if not (x is None or is_number(x)):
            raise TypeError(f"{x!r} is not a number")
        return x
    return np.asarray(numbers(v), dtype=float)


def _key(name: str) -> str:
    """The certificate file's key of a field."""
    return "lambda" if name == "lam" else name


def certificate_to_dict(cert: Certificate) -> dict:
    return {_key(f.name): _array_to_list(getattr(cert, f.name))
            if f.type == "np.ndarray" else getattr(cert, f.name)
            for f in fields(Certificate)}


# The file key of each field -> its reader, by the field's type (else as is).
_CERTIFICATE_KINDS = {
    _key(f.name): {**KINDS, "np.ndarray": _array_from_list}.get(
        f.type, lambda v: v) for f in fields(Certificate)}


def certificate_from_dict(d: dict) -> Certificate:
    """The certificate of a file's dict, read by ``errors.read_section``; an
    absent key takes its field's default, and one without a default raises
    TypeError naming the file's key."""
    values = read_section(d, "certificate", _CERTIFICATE_KINDS, SynthesisError)
    for f in fields(Certificate):
        if (_key(f.name) not in values and f.default is MISSING
                and f.default_factory is MISSING):
            raise TypeError(f"missing certificate key {_key(f.name)!r}")
    return Certificate(**{f.name: values[_key(f.name)] for f in fields(Certificate)
                          if _key(f.name) in values})


def save_certificate(cert: Certificate, path) -> None:
    with open(path, "w") as fh:
        json.dump(certificate_to_dict(cert), fh, indent=2)


def load_certificate(path) -> Certificate:
    return load_json(path, "certificate", certificate_from_dict, SynthesisError)
