import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from reference import reference_matrix_exp_norm
from specpred import cli
from specpred.spectral_model import SystemDescriptor, TruncatedModel
from specpred.synthesis import (
    ENVELOPE_GRID,
    SynthesisError,
    _last_feasible,
    certificate_from_dict,
    certificate_to_dict,
    decay_envelope,
    delta_margin,
    delta_tilde,
    finalize_tail_constants,
    iss_constants,
    load_certificate,
    place_gain,
    save_certificate,
    sigma_rate,
    smallgain_lhs,
    synthesize_certificate,
)


def scalar_gain(a: float, b: float, D0: float, pole: float) -> float:
    """Closed-form single-mode gain: A_cl = a + e^{-D0 a} b K = pole."""
    return (pole - a) * np.exp(D0 * a) / b


def two_mode_model():
    A = np.diag([2.0, -1.0])
    B = np.array([[1.0], [0.5]])
    return TruncatedModel(A=A, B=B, N0=2, alpha=30.0, xi=1.0)


def test_place_gain_single_mode_matches_closed_form(model):
    K = place_gain(model, 0.5, [-2.0])
    a = model.A[0, 0]
    b = model.B[0, 0]
    assert K[0, 0] == pytest.approx(scalar_gain(a, b, 0.5, -2.0), rel=1e-12)
    # Frozen hand value: (pole - a) e^{D0 a} / b for a = 15 - pi^2.
    assert K[0, 0] == pytest.approx(-20.868921435916097, rel=1e-9)


def test_place_gain_two_modes():
    m = two_mode_model()
    D0 = 0.3
    K = place_gain(m, D0, [-2.0, -3.0])
    A_cl = m.A + expm(-D0 * m.A) @ m.B @ K
    assert np.sort(np.linalg.eigvals(A_cl).real) == pytest.approx([-3.0, -2.0],
                                                                  abs=1e-8)


def test_place_gain_rejections():
    m = two_mode_model()
    with pytest.raises(SynthesisError):
        place_gain(m, 0.3, [-2.0])              # wrong pole count
    with pytest.raises(SynthesisError):
        place_gain(m, 0.3, [1.0, -2.0])         # unstable target
    with pytest.raises(SynthesisError):
        place_gain(m, 0.3, [-2 + 1j, -3.0])     # not conjugate-closed
    dead = TruncatedModel(A=np.diag([2.0, -1.0]),
                          B=np.array([[1.0], [0.0]]), N0=2, alpha=30.0, xi=1.0)
    with pytest.raises(SynthesisError):
        place_gain(dead, 0.3, [-2.0, -3.0])


def test_decay_envelope_properties(rng):
    A = np.array([[-1.0, 3.0], [0.0, -2.0]])
    M, lam, T = decay_envelope(A)
    assert M >= 1.0
    assert lam == pytest.approx(0.95 * 1.0)
    ts = rng.uniform(0, 3 * T, size=500)
    from specpred.numerics import matrix_exp_norm

    assert np.all(matrix_exp_norm(A, ts) <= M * np.exp(-lam * ts) + 1e-12)


def test_decay_envelope_sound_on_jordan_block():
    # A defective A_cl: ||e^{At}|| = e^{-t} (5t + sqrt(25 t^2 + 4)) / 2
    # peaks near t = 19.8, long after t = 0.
    A = np.array([[-1.0, 5.0], [0.0, -1.0]])
    M, lam, T = decay_envelope(A)
    ts = np.linspace(0.0, T, 100_003)
    jordan = (5 * ts + np.sqrt(25 * ts**2 + 4)) / 2
    assert np.all(np.exp(-ts) * jordan <= M * np.exp(-lam * ts))
    assert M == pytest.approx(1.05 * np.max(np.exp((lam - 1) * ts) * jordan),
                              rel=1e-6)


def test_decay_envelope_sound_on_near_defective_design():
    # c = 50 has two unstable head modes; the default poles [-2, -2] give
    # A_cl a double eigenvalue with cond(V) ~ 1e15.
    _, cert = cli.design_pipeline(cli.default_descriptor(50.0))
    M, lam, T = decay_envelope(cert.A_cl)
    assert cert.M_lambda == M
    ts = np.linspace(0.0, T, 10_007)
    norms = np.array([np.linalg.norm(expm(cert.A_cl * t), 2) for t in ts])
    assert np.all(norms <= M * np.exp(-lam * ts))
    assert M > 1e9


def test_decay_envelope_matches_the_unshifted_supremum(rng):
    # M_lambda from ||e^{(A + lam I) t}|| against the former
    # max(||e^{At}|| e^{lam t}), on random Hurwitz matrices, real and complex.
    for i in range(12):
        n = 1 + i // 2
        G = rng.normal(size=(n, n))
        if i % 2:
            G = G + 1j * rng.normal(size=(n, n))
        A = G - (np.max(np.linalg.eigvals(G).real)
                 + rng.uniform(0.1, 2.0)) * np.eye(n)
        M, lam, T = decay_envelope(A)
        ts = np.linspace(0.0, T, ENVELOPE_GRID)
        want = max(1.0, np.max(reference_matrix_exp_norm(A, ts)
                               * np.exp(lam * ts))) * 1.05
        assert abs(M - want) <= 1e-12 * want


def test_decay_envelope_rejects_non_hurwitz():
    with pytest.raises(SynthesisError):
        decay_envelope(np.diag([0.5, -1.0]))


def test_delta_margin_equality_and_cap(descriptor, model):
    M, lam, BK, D0 = 1.2, 1.5, 40.0, 0.5
    A_cl = np.diag([-2.0, -3.0])
    A_norm = 3.0
    dstar = delta_margin(A_cl, BK, M, lam)
    lhs = smallgain_lhs(dstar, A_norm, BK, M, lam)
    assert abs(lhs - lam) / lam <= 1e-10
    cert = synthesize_certificate(descriptor, model, D0=D0, t0=1.0,
                                  target_poles=[-2.0])
    assert not cert.degenerate_delta
    assert cert.delta_max <= D0
    # Degenerate BK = 0: only the delay cap binds.
    assert np.isinf(delta_margin(A_cl, 0.0, M, lam))
    stable = TruncatedModel(A=np.diag([-1.0]), B=np.array([[1.0]]), N0=1,
                            alpha=30.0, xi=1.0)
    cert0 = synthesize_certificate(descriptor, stable, D0=D0, t0=1.0,
                                   K=np.zeros((1, 1)))
    assert cert0.degenerate_delta and np.isinf(cert0.delta_star)
    assert cert0.delta_max == pytest.approx(D0, rel=1e-5)


@pytest.mark.parametrize("c", [15.0, 30.0, 50.0, 80.0])
def test_delta_star_is_the_last_float_inside_the_small_gain_inequality(c):
    # c = 50 and 80 give delta_star ~ 1e-28 and 1e-36, where e^x - e^y
    # forms cancel: delta_star must still be the last feasible float.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, cert = cli.design_pipeline(cli.default_descriptor(c))
        A_norm = float(np.linalg.norm(cert.A_cl, 2))

        def lhs(d):
            return smallgain_lhs(d, A_norm, cert.BK_norm, cert.M_lambda,
                                 cert.lam)

        dstar = cert.delta_star
        assert lhs(dstar) <= cert.lam < lhs(np.nextafter(dstar, np.inf))
        assert abs(lhs(dstar) / cert.lam - 1.0) <= 1e-12


def test_last_feasible_returns_the_adjacent_float_edge():
    edge = 0.1
    for lo, hi in ((0.0, 1.0), (0.0, 0.2), (0.05, 1e3)):
        got = _last_feasible(lambda x: x <= edge, lo, hi)
        assert got == edge
    # Strict predicate: the edge itself is infeasible, so the float below.
    got = _last_feasible(lambda x: x < edge, 0.0, 1.0)
    assert got == np.nextafter(edge, 0.0)
    # Tiny roots resolve to the float, not to an absolute tolerance.
    got = _last_feasible(lambda x: x <= 3e-300, 0.0, 1.0)
    assert got == 3e-300


def test_smallgain_lhs_monotone():
    ds = np.linspace(0.0, 0.2, 100)
    vals = smallgain_lhs(ds, 5.0, 40.0, 1.2, 1.5)
    assert np.all(np.diff(vals) > 0)


def test_sigma_rate_threshold_and_safety():
    M, lam, A_norm, C_norm, r, eps = 1.05, 1.9, 2.0, 92.0, 0.5, 0.004
    sigma, dtil = sigma_rate(M, lam, A_norm, C_norm, r, eps)
    assert 0 < sigma < lam
    assert dtil <= 1.0 - 1e-6
    # Contraction value increases with sigma, so the found rate is near-maximal.
    assert delta_tilde(sigma / 0.99 * 1.02, M, C_norm, A_norm, lam, r, eps) \
        > dtil


def test_sigma_rate_degenerate_channels():
    sigma, dtil = sigma_rate(1.0, 2.0, 1.0, 0.0, 0.5, 0.1)
    assert sigma == pytest.approx(0.99 * 2.0, rel=1e-6)
    assert dtil == 0.0


def test_iss_constants_flagship_c0(descriptor, model):
    out = iss_constants(descriptor, model, sigma=0.13)
    # C0 = alpha^2 xi^2 ||Be||^2 + ||ABe||^2 = alpha^2 / 3 + 225 / 3.
    want = model.alpha**2 / 3.0 + 75.0
    assert out["C0"] == pytest.approx(want, rel=1e-9)
    assert out["kappa"] == pytest.approx(0.5 * min(model.alpha, 0.13))
    assert out["epsilon"] == pytest.approx(out["kappa"] / model.alpha)
    assert set(out) == {"C0", "kappa", "epsilon"}


def test_finalize_tail_constants_from_u_channel(exact_cert):
    u = {"Cbar4": 10.0, "Cbar5": 5.0, "Cbar6": 2.0}
    y = {"C1": 1.0, "C2": 2.0, "C3": 3.0}
    cert = replace(exact_cert, u_constants=u, y_constants=y)
    finalize_tail_constants(cert)
    out = cert.tail_constants
    C0, k = out["C0"], cert.kappa
    assert C0 == exact_cert.tail_constants["C0"]
    assert cert.m_R == 1.0 and cert.B.shape[1] == 1
    ek = math.exp(k * (cert.D0 + cert.delta_max))
    denom = (cert.alpha - k) ** 2
    assert out["C1"] == pytest.approx(4.0 * (1 + 2 * 100.0 * ek**2 * C0 / denom))
    assert out["C2"] == pytest.approx(8.0 * (1 + 5.0 * ek) ** 2 * C0 / denom)
    assert out["C3"] == pytest.approx(8.0 * 4.0 * ek**2 * C0 / denom)
    for i in (1, 2, 3):
        assert cert.x_constants[f"Cbar{i}"] == pytest.approx(
            math.sqrt(cert.M_R) * (y[f"C{i}"] + math.sqrt(out[f"C{i}"])))
    # The exact certificate it was copied from keeps its open entries.
    assert exact_cert.tail_constants["C1"] is None


def test_finalize_tail_constants_needs_fitted_channels(exact_cert):
    with pytest.raises(SynthesisError):
        finalize_tail_constants(replace(exact_cert))


def test_synthesize_certificate_flagship(descriptor, model, exact_cert):
    cert = exact_cert
    assert cert.N0 == 1
    assert cert.delta_max > 0
    assert cert.sigma > 0
    assert cert.kappa == pytest.approx(0.5 * cert.sigma)  # sigma < alpha here
    assert cert.delta_max < cert.delta_star
    # A_cl eigenvalue at the placed pole.
    assert np.linalg.eigvals(cert.A_cl)[0].real == pytest.approx(-2.0, abs=1e-9)
    assert cert.lam == pytest.approx(0.95 * 2.0)
    assert not cert.has_fitted_constants


def test_synthesize_certificate_needs_a_gain_or_poles(descriptor, model):
    with pytest.raises(SynthesisError, match="gain K or target poles"):
        synthesize_certificate(descriptor, model, D0=0.5, t0=1.0)


def test_certificate_roundtrip(tmp_path, fitted_cert):
    path = tmp_path / "cert.json"
    save_certificate(fitted_cert, path)
    back = load_certificate(path)
    assert np.allclose(back.K, fitted_cert.K)
    assert np.allclose(back.A_cl, fitted_cert.A_cl)
    assert back.delta_max == fitted_cert.delta_max
    assert back.sigma == fitted_cert.sigma
    assert back.u_constants == fitted_cert.u_constants
    assert back.x_constants == fitted_cert.x_constants
    assert back.provenance["K"] == "exact"
    assert back.provenance["Cbar4"] == "fitted"


def test_certificate_roundtrip_complex_arrays():
    from specpred.synthesis import _array_from_list, _array_to_list

    a = np.array([1 + 2j, -3.0 + 0.5j])
    assert np.allclose(_array_from_list(_array_to_list(a)), a)
