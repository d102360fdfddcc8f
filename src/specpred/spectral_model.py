"""Diagonal (Riesz-spectral) plant descriptions in modal coordinates.

A plant enters through its eigen-data: an eigenvalue law ``n -> lambda_n`` and
a modal input-coefficient law ``(n, k) -> b_{n,k}``, together with the Riesz
constants of the eigenvector basis.  The module splits the spectrum into a
finite unstable/slow head (the truncated model actually used for control
design) and a tail sector characterised by a decay rate ``alpha`` and the
sector constant ``xi``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from .errors import SpecpredError
from .numerics import simpson_integrate

class SpectrumError(SpecpredError, ValueError):
    """Raised when a scan cannot produce an admissible mode split."""


@dataclass(frozen=True)
class SystemDescriptor:
    """A diagonal boundary control system given by eigen-data.

    ``eigenvalue_law(n)`` and ``input_coeff_law(n, k)`` use 1-based indices.
    ``monotone_dominated`` declares that Re(lambda_n) -> -inf along the scan,
    which classify_modes relies on to trust a finite scan.
    ``real_spectrum`` marks plants whose tail eigenvalues are real, for which
    the sector constant xi equals 1 exactly.
    """

    eigenvalue_law: Callable[[int], complex]
    input_coeff_law: Callable[[int, int], complex]
    num_inputs: int
    riesz_lower: float
    riesz_upper: float
    field: str = "real"
    monotone_dominated: bool = True
    real_spectrum: bool = False
    kind: str = "custom"
    params: dict = dataclass_field(default_factory=dict)
    # Sampler returning (x_grid, Be, ABe, psi) for quadrature of lifting norms
    # and modal coefficients; Be/ABe have shape (m, nx), psi (n_modes, nx).
    lifting_sampler: Optional[Callable[[int, int], tuple]] = None

    def __post_init__(self):
        if self.num_inputs < 1:
            raise ValueError("num_inputs must be >= 1")
        if not (0.0 < self.riesz_lower <= self.riesz_upper):
            raise ValueError("need 0 < riesz_lower <= riesz_upper")
        if self.field not in ("real", "complex"):
            raise ValueError("field must be 'real' or 'complex'")

    def eigenvalues(self, n_max: int) -> np.ndarray:
        lam = np.array([self.eigenvalue_law(n) for n in range(1, n_max + 1)])
        if self.field == "real":
            if np.any(np.abs(lam.imag) > 0):
                raise ValueError("real-field descriptor with complex eigenvalues")
            lam = lam.real.astype(float)
        if len(np.unique(lam)) != len(lam):
            raise ValueError("eigenvalues must be simple over the requested range")
        return lam

    def input_matrix(self, n_max: int) -> np.ndarray:
        B = np.array(
            [
                [self.input_coeff_law(n, k) for k in range(1, self.num_inputs + 1)]
                for n in range(1, n_max + 1)
            ]
        )
        if self.field == "real":
            if np.any(np.abs(B.imag) > 0):
                raise ValueError("real-field descriptor with complex input coefficients")
            B = B.real.astype(float)
        return B


@dataclass(frozen=True)
class TruncatedModel:
    """Finite head of the modal system: diag(lambda_1..lambda_N0) and B."""

    A: np.ndarray
    B: np.ndarray
    N0: int
    alpha: float
    xi: float

    @property
    def lambdas(self) -> np.ndarray:
        return np.diag(self.A)


@dataclass(frozen=True)
class ModeSplit:
    N0: int
    alpha: float
    xi: float


def build_reaction_diffusion(c: float, m: int = 1) -> SystemDescriptor:
    """Reaction-diffusion plant u_t = u_xx + c u on (0,1), Dirichlet ends.

    Actuation is applied at x = 1 through the lifting (Bw)(x) = x w.  The
    eigenfunctions sqrt(2) sin(n pi x) are orthonormal, so the Riesz sandwich
    is tight with m_R = M_R = 1.  The analytic modal input coefficients
    b_n = sqrt(2) (-1)^(n+1) n pi follow from integrating x against the basis
    (validated against the Simpson quadrature oracle in the test suite).
    """
    if m != 1:
        raise ValueError("the reaction-diffusion built-in is single-input")
    c = float(c)

    def lam(n: int) -> float:
        return c - (n * math.pi) ** 2

    def b(n: int, k: int) -> float:
        return math.sqrt(2.0) * (-1.0) ** (n + 1) * n * math.pi

    def sampler(n_modes: int, panels: int):
        x = np.linspace(0.0, 1.0, 2 * panels + 1)
        Be = x[np.newaxis, :].copy()          # (B e_1)(x) = x
        ABe = c * x[np.newaxis, :]            # (d^2/dx^2 + c) x = c x
        ns = np.arange(1, n_modes + 1)
        psi = math.sqrt(2.0) * np.sin(np.pi * np.outer(ns, x))
        return x, Be, ABe, psi

    return SystemDescriptor(
        eigenvalue_law=lam,
        input_coeff_law=b,
        num_inputs=1,
        riesz_lower=1.0,
        riesz_upper=1.0,
        field="real",
        monotone_dominated=True,
        real_spectrum=True,
        kind="reaction_diffusion",
        params={"c": c},
        lifting_sampler=sampler,
    )


def modal_input_coeffs(Be, ABe, psi, lambdas, x_grid):
    """Modal input coefficients by quadrature of the two inner products.

    b_{n,k} = -lambda_n <B e_k, psi_n> + <A B e_k, psi_n>, each inner product
    evaluated by composite Simpson on the shared uniform spatial grid.
    Returns ``(b, meta)`` with b of shape (n_modes, m) and quadrature metadata.
    """
    Be = np.atleast_2d(np.asarray(Be))
    ABe = np.atleast_2d(np.asarray(ABe))
    psi = np.atleast_2d(np.asarray(psi))
    x_grid = np.asarray(x_grid, dtype=float)
    lambdas = np.asarray(lambdas)
    nx = x_grid.size
    if Be.shape[1] != nx or ABe.shape[1] != nx or psi.shape[1] != nx:
        raise ValueError("spatial grids of lifting samples and eigenvectors disagree")
    if Be.shape != ABe.shape:
        raise ValueError("Be and ABe sample shapes disagree")
    for arr in (Be, ABe, psi):
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite samples in quadrature input")
    h = x_grid[1] - x_grid[0]
    if not np.allclose(np.diff(x_grid), h):
        raise ValueError("quadrature grid must be uniform")
    # <f, psi_n> = int f conj(psi_n); (n_modes, m) after broadcasting.
    inner_B = simpson_integrate(Be[np.newaxis, :, :] * np.conj(psi)[:, np.newaxis, :], h)
    inner_AB = simpson_integrate(ABe[np.newaxis, :, :] * np.conj(psi)[:, np.newaxis, :], h)
    b = -lambdas[:, np.newaxis] * inner_B + inner_AB
    meta = {"rule": "simpson", "panels": (nx - 1) // 2, "points": nx}
    return b, meta


def lifting_norms(descriptor: SystemDescriptor, panels: int = 4096):
    """Squared H-norms (||B e_k||^2, ||A B e_k||^2) by Simpson quadrature."""
    if descriptor.lifting_sampler is None:
        be2 = descriptor.params.get("norm_Be_sq")
        abe2 = descriptor.params.get("norm_ABe_sq")
        if be2 is None or abe2 is None:
            raise ValueError("descriptor has no lifting sampler and no declared norms")
        return np.atleast_1d(np.asarray(be2, float)), np.atleast_1d(np.asarray(abe2, float))
    x, Be, ABe, _ = descriptor.lifting_sampler(1, panels)
    h = x[1] - x[0]
    return (
        simpson_integrate(np.abs(Be) ** 2, h),
        simpson_integrate(np.abs(ABe) ** 2, h),
    )


def classify_modes(descriptor: SystemDescriptor, scan_depth: int) -> ModeSplit:
    """Split the scanned spectrum into head (N0 modes) and decaying tail.

    Returns the smallest N0 >= 1 such that Re(lambda_n) < 0 for every scanned
    n > N0, with alpha the spectral gap of the scan.  xi is the scan maximum
    of |lambda_n / Re lambda_n| over the tail (exactly 1 for declared
    real-spectrum plants).
    """
    if scan_depth < 2:
        raise ValueError("scan_depth must be >= 2")
    if not descriptor.monotone_dominated:
        raise SpectrumError(
            "classify_modes needs a monotone-dominated eigenvalue law; "
            "declare it on the descriptor or supply N0/alpha/xi directly"
        )
    lam = descriptor.eigenvalues(scan_depth)
    re = lam.real if np.iscomplexobj(lam) else lam
    bad = np.nonzero(re >= 0.0)[0]
    n0 = int(bad[-1]) + 1 if bad.size else 1
    if n0 >= scan_depth:
        raise SpectrumError(f"no admissible N0 within scan_depth={scan_depth}")
    tail = lam[n0:]
    tail_re = re[n0:]
    alpha = float(-tail_re.max())
    if descriptor.real_spectrum:
        xi = 1.0
    else:
        xi = float(np.max(np.abs(tail) / np.abs(tail_re)))
    return ModeSplit(N0=n0, alpha=alpha, xi=xi)


def truncated_model(
    descriptor: SystemDescriptor, N0: int, alpha: float, xi: float
) -> TruncatedModel:
    """Assemble (A_{N0}, B_{N0}) for a mode split accepted by classify_modes."""
    lam = descriptor.eigenvalues(N0)
    A = np.diag(lam)
    B = descriptor.input_matrix(N0)
    return TruncatedModel(A=A, B=B, N0=N0, alpha=float(alpha), xi=float(xi))


def descriptor_to_dict(descriptor: SystemDescriptor) -> dict:
    d = {
        "kind": descriptor.kind,
        "c": descriptor.params.get("c"),
        "m": descriptor.num_inputs,
        "riesz_lower": descriptor.riesz_lower,
        "riesz_upper": descriptor.riesz_upper,
        "explicit_eigenvalues": descriptor.params.get("explicit_eigenvalues"),
        "explicit_b": descriptor.params.get("explicit_b"),
    }
    return d


def descriptor_from_dict(d: dict) -> SystemDescriptor:
    kind = d.get("kind")
    if kind == "reaction_diffusion":
        return build_reaction_diffusion(float(d["c"]), int(d.get("m", 1)))
    if kind == "explicit":
        eigs = [complex(v) if isinstance(v, str) else float(v)
                for v in d["explicit_eigenvalues"]]
        b_rows = [
            [complex(v) if isinstance(v, str) else float(v) for v in row]
            for row in d["explicit_b"]
        ]
        m = int(d.get("m", len(b_rows[0])))
        is_real = all(isinstance(v, float) for v in eigs) and all(
            isinstance(v, float) for row in b_rows for v in row
        )

        def lam(n, _eigs=eigs):
            if n > len(_eigs):
                raise IndexError(f"explicit spectrum has only {len(_eigs)} modes")
            return _eigs[n - 1]

        def b(n, k, _b=b_rows):
            return _b[n - 1][k - 1]

        return SystemDescriptor(
            eigenvalue_law=lam,
            input_coeff_law=b,
            num_inputs=m,
            riesz_lower=float(d["riesz_lower"]),
            riesz_upper=float(d["riesz_upper"]),
            field="real" if is_real else "complex",
            monotone_dominated=False,
            kind="explicit",
            params={"explicit_eigenvalues": d["explicit_eigenvalues"],
                    "explicit_b": d["explicit_b"]},
        )
    raise ValueError(f"unknown descriptor kind: {kind!r}")


def save_descriptor(descriptor: SystemDescriptor, path) -> None:
    with open(path, "w") as fh:
        json.dump(descriptor_to_dict(descriptor), fh, indent=2)


def load_descriptor(path) -> SystemDescriptor:
    with open(path) as fh:
        d = json.load(fh)
    try:
        return descriptor_from_dict(d)
    except (TypeError, AttributeError) as exc:
        raise SpectrumError(f"malformed descriptor file {path}: {exc}") from exc
