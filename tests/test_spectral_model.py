import json
import math

import numpy as np
import pytest

from specpred.spectral_model import (
    SpectrumError,
    SystemDescriptor,
    build_reaction_diffusion,
    classify_modes,
    descriptor_from_dict,
    descriptor_to_dict,
    lifting_norms,
    load_descriptor,
    modal_input_coeffs,
    save_descriptor,
    truncated_model,
)

PI2 = math.pi**2


def test_reaction_diffusion_eigenvalues():
    d = build_reaction_diffusion(15.0)
    lam = d.eigenvalues(3)
    assert lam == pytest.approx([15.0 - PI2, 15.0 - 4 * PI2, 15.0 - 9 * PI2])


def test_reaction_diffusion_input_law_hand_values():
    # b_n = -lam_n <x, psi_n> + <c x, psi_n> with <x, psi_n> integrated by
    # parts: int_0^1 x sqrt(2) sin(n pi x) dx = sqrt(2) (-1)^(n+1) / (n pi).
    d = build_reaction_diffusion(15.0)
    B = d.input_matrix(2)
    assert B[0, 0] == pytest.approx(math.sqrt(2.0) * math.pi)
    assert B[1, 0] == pytest.approx(-2.0 * math.sqrt(2.0) * math.pi)


def test_modal_coeffs_quadrature_matches_analytic():
    d = build_reaction_diffusion(15.0)
    n_modes, panels = 20, 2048
    x, Be, ABe, psi = d.lifting_sampler(n_modes, panels)
    lam = d.eigenvalues(n_modes)
    b, meta = modal_input_coeffs(Be, ABe, psi, lam, x)
    analytic = d.input_matrix(n_modes)
    assert np.max(np.abs(b - analytic)) < 1e-6
    assert meta["rule"] == "simpson"


def test_modal_coeffs_grid_validation():
    d = build_reaction_diffusion(1.0)
    x, Be, ABe, psi = d.lifting_sampler(3, 64)
    with pytest.raises(ValueError):
        modal_input_coeffs(Be, ABe, psi, d.eigenvalues(3), x[:-1])
    bad = np.geomspace(1e-3, 1.0, x.size)
    with pytest.raises(ValueError):
        modal_input_coeffs(Be, ABe, psi, d.eigenvalues(3), bad)


def test_lifting_norms_hand_values():
    # ||x||^2 = 1/3 on (0,1); ||c x||^2 = c^2/3.
    d = build_reaction_diffusion(15.0)
    be2, abe2 = lifting_norms(d)
    assert be2[0] == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert abe2[0] == pytest.approx(225.0 / 3.0, rel=1e-10)


def test_classify_modes_flagship_split():
    d = build_reaction_diffusion(15.0)
    split = classify_modes(d, 200)
    assert split.N0 == 1
    # alpha = -lambda_2 = 4 pi^2 - 15
    assert split.alpha == pytest.approx(4 * PI2 - 15.0)
    assert split.xi == 1.0


def test_classify_modes_errors():
    d = build_reaction_diffusion(1e6)
    with pytest.raises(SpectrumError):
        classify_modes(d, 5)


def test_truncated_model_shapes():
    d = build_reaction_diffusion(15.0)
    m = truncated_model(d, 2, 10.0, 1.0)
    assert m.A.shape == (2, 2)
    assert np.allclose(np.diag(m.lambdas), m.A)
    assert m.B.shape == (2, 1)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SystemDescriptor(lambda n: -n, lambda n, k: 1.0, num_inputs=0,
                         riesz_lower=1.0, riesz_upper=1.0)
    with pytest.raises(ValueError):
        SystemDescriptor(lambda n: -n, lambda n, k: 1.0, num_inputs=1,
                         riesz_lower=2.0, riesz_upper=1.0)
    repeated = SystemDescriptor(lambda n: -1.0, lambda n, k: 1.0, num_inputs=1,
                                riesz_lower=1.0, riesz_upper=1.0)
    with pytest.raises(ValueError):
        repeated.eigenvalues(2)


def test_descriptor_roundtrip_reaction_diffusion(tmp_path):
    d = build_reaction_diffusion(7.5)
    path = tmp_path / "desc.json"
    save_descriptor(d, path)
    d2 = load_descriptor(path)
    assert d2.kind == "reaction_diffusion"
    assert np.allclose(d2.eigenvalues(5), d.eigenvalues(5))
    assert np.allclose(d2.input_matrix(5), d.input_matrix(5))


def test_descriptor_roundtrip_explicit():
    src = {
        "kind": "explicit",
        "m": 1,
        "riesz_lower": 0.8,
        "riesz_upper": 1.2,
        "explicit_eigenvalues": [2.0, -1.0, -30.0],
        "explicit_b": [[1.0], [0.5], [0.25]],
    }
    d = descriptor_from_dict(src)
    assert d.field == "real"
    assert np.allclose(d.eigenvalues(3), [2.0, -1.0, -30.0])
    back = descriptor_to_dict(d)
    d2 = descriptor_from_dict(json.loads(json.dumps(back)))
    assert np.allclose(d2.input_matrix(3), d.input_matrix(3))
