import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from reference import reference_matrix_exp_norm, segment_exp_integral
from specpred.numerics import (
    affine_scan,
    catmull_rom,
    cubic_reader,
    cubic_stencil,
    exp_moments,
    matrix_exp_norm,
    simpson_integrate,
    simpson_weights,
)


def quad_moment(lam, h, power):
    re = quad(lambda t: (t**power * np.exp(-lam * t)).real, 0, h, limit=200)[0]
    im = quad(lambda t: (t**power * np.exp(-lam * t)).imag, 0, h, limit=200)[0]
    return re + 1j * im


@pytest.mark.parametrize("lam", [2.5, -7.0, 0.3, 1e-12, -1e-10, 3 + 4j, -5 - 2j])
@pytest.mark.parametrize("h", [0.01, 0.5, 2.0])
def test_exp_moments_against_quadrature(lam, h):
    m0, m1 = exp_moments(lam, h)
    assert m0 == pytest.approx(quad_moment(lam, h, 0), rel=1e-11, abs=1e-14)
    assert m1 == pytest.approx(quad_moment(lam, h, 1), rel=1e-11, abs=1e-14)


def test_exp_moments_series_branch_continuity():
    # The closed form and the Taylor branch must agree around the threshold,
    # for complex rates too (expm1 in place of 1 - e^{-x}).
    h = 1.0
    for lam in (2e-3, 5e-4, -2e-3, -5e-4, 1.5e-3 + 1e-3j, -1e-3 + 5e-4j):
        m0, m1 = exp_moments(lam, h)
        assert m0 == pytest.approx(quad_moment(lam, h, 0), rel=1e-11)
        assert m1 == pytest.approx(quad_moment(lam, h, 1), rel=1e-11)


def test_exp_moments_broadcasting():
    lam = np.array([1.0, -2.0, 0.0])
    m0, m1 = exp_moments(lam, 0.5)
    assert m0.shape == (3,)
    assert m0[2] == pytest.approx(0.5)
    assert m1[2] == pytest.approx(0.125)
    # Array h against a lam column.
    m0g, _ = exp_moments(lam[np.newaxis, :], np.array([[0.5], [1.0]]))
    assert m0g.shape == (2, 3)
    assert m0g[0, 0] == pytest.approx(m0[0])


def test_segment_exp_integral_linear_u():
    lam, t_ref, s0, s1 = -3.0, 1.0, 0.2, 0.7
    u0, u1 = 0.4, -1.1

    def u(s):
        return u0 + (u1 - u0) * (s - s0) / (s1 - s0)

    expected = quad(lambda s: np.exp(lam * (t_ref - s)) * u(s), s0, s1)[0]
    got = segment_exp_integral(lam, t_ref, s0, s1, u0, u1)
    assert got == pytest.approx(expected, rel=1e-12)


def test_segment_exp_integral_zero_width():
    assert segment_exp_integral(2.0, 0.0, 0.5, 0.5, 1.0, 2.0) == 0.0


def test_simpson_weights_sum_and_parity():
    w = simpson_weights(5, 0.25)
    assert np.sum(w) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        simpson_weights(4, 0.1)


def test_simpson_exact_on_cubics():
    x = np.linspace(0, 2, 9)
    vals = 3 * x**3 - x**2 + 5
    exact = 3 * 2**4 / 4 - 2**3 / 3 + 5 * 2
    assert simpson_integrate(vals, x[1] - x[0]) == pytest.approx(exact, rel=1e-14)


def test_simpson_fourth_order_convergence():
    def err(n):
        x = np.linspace(0, np.pi, n)
        return abs(simpson_integrate(np.sin(x), x[1] - x[0]) - 2.0)

    assert err(41) / err(81) > 12.0  # ~16 for fourth order


def test_matrix_exp_norm_matches_expm(rng):
    for _ in range(5):
        A = rng.normal(size=(4, 4))
        ts = rng.uniform(0, 2, size=6)
        got = matrix_exp_norm(A, ts)
        want = [np.linalg.norm(expm(A * t), 2) for t in ts]
        assert got == pytest.approx(want, rel=1e-9)


def test_matrix_exp_norm_defective_fallback():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])  # Jordan block, defective
    got = matrix_exp_norm(A, [1.0])
    want = np.linalg.norm(expm(A), 2)
    assert got[0] == pytest.approx(want, rel=1e-9)


def test_matrix_exp_norm_matches_the_eigendecomposition_reference(rng):
    # Random Hurwitz matrices, real and complex, n = 1..6, and a Jordan
    # block (the reference's expm fallback); held to 1e-12 of the peak.
    cases = []
    for n in range(1, 7):
        for field in (float, complex):
            G = rng.normal(size=(n, n)).astype(field)
            if field is complex:
                G += 1j * rng.normal(size=(n, n))
            shift = np.max(np.linalg.eigvals(G).real) + rng.uniform(0.1, 2.0)
            cases.append(G - shift * np.eye(n))
    cases.append(np.array([[-1.0, 5.0, 0.0], [0.0, -1.0, 5.0],
                           [0.0, 0.0, -1.0]]))
    ts = np.linspace(0.0, 20.0, 2001)
    for A in cases:
        got = matrix_exp_norm(A, ts)
        want = reference_matrix_exp_norm(A, ts)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def test_catmull_rom_interpolates_the_inner_samples():
    p = np.array([[3.0, -1.0], [0.5, 2.0], [-4.0, 7.0], [1.0, 0.25]])
    assert np.array_equal(catmull_rom(p, 0.0), p[1])
    assert np.array_equal(catmull_rom(p, 1.0), p[2])


def test_catmull_rom_reproduces_quadratics():
    def f(x):
        return 2.0 - 3.0 * x + 0.75 * x * x

    x1 = 1.3
    p = f(x1 + np.arange(-1.0, 3.0))
    w = np.linspace(0.0, 1.0, 11)
    assert np.allclose(catmull_rom(p, w), f(x1 + w), rtol=0, atol=1e-13)


def test_cubic_stencil_clamps_at_both_ends():
    hi = 9
    x = np.array([-3.0, 0.0, 5.25, hi, hi + 4.0])
    start, w = cubic_stencil(x, hi)
    assert list(start) == [0, 0, 4, hi - 3, hi - 3]
    assert list(w) == [-1.0, -1.0, 0.25, 2.0, 2.0]
    # Catmull-Rom is exact for quadratics, so a read past an end returns
    # the end sample.
    f = 1.0 + 0.5 * np.arange(hi + 1.0) ** 2
    vals = catmull_rom(f[start + np.arange(4)[:, np.newaxis]], w)
    assert np.allclose(vals, 1.0 + 0.5 * np.clip(x, 0, hi) ** 2, rtol=0,
                       atol=1e-12)


def _textbook_catmull_rom(p, w):
    p0, p1, p2, p3 = p
    return (p1 + 0.5 * w * (p2 - p0)
            + w * w * (p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3)
            + w * w * w * (1.5 * (p1 - p2) + 0.5 * (p3 - p0)))


@pytest.mark.parametrize("form", ["scalars", "scalar-w", "rows", "weights"])
def test_catmull_rom_keeps_the_textbook_expressions_bits(form):
    # Numpy-scalar stencils, a stencil of arrays, and the weight form
    # catmull_rom(np.eye(4), w) of the oracle's taps.
    rng = np.random.default_rng(11)
    w = 0.3 if form == "scalar-w" else rng.uniform(-1.0, 2.0, size=(5, 3, 1))
    p = {"scalars": rng.normal(size=4), "scalar-w": rng.normal(size=4),
         "rows": rng.normal(size=(4, 5, 3, 2)), "weights": np.eye(4)}[form]
    got = np.asarray(catmull_rom(p, w))
    want = np.asarray(_textbook_catmull_rom(p, w))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("members, width", [((), 1), ((), 3), ((4,), 1),
                                            ((4,), 2), ((2, 3), 2)])
def test_cubic_reader_is_the_gathered_catmull_rom_bit_for_bit(members, width):
    """Each read equals catmull_rom of the clamped stencil's gathered rows,
    member i reading its own column, at both clamped ends; a write to the
    history between reads is read, and a smaller read reuses the workspace."""
    rng = np.random.default_rng(len(members) * 10 + width)
    rows = 40
    samples = rng.normal(size=(rows,) + members + (width,))
    member = tuple(np.indices(members))
    read = cubic_reader(samples)
    for lead, hi in (((7, 5), rows - 1), ((3,), 25)):
        x = rng.uniform(-4.0, hi + 4.0, size=lead + members)
        x[0], x[1] = -2.5, hi + 1.5             # clamped at both ends
        got, top = read(x, hi)
        start, w = cubic_stencil(x, hi)
        offsets = np.arange(4).reshape((4,) + (1,) * x.ndim)
        want = catmull_rom(samples[(start + offsets,) + member],
                           w[..., np.newaxis])
        assert got.shape == want.shape == x.shape + (width,)
        assert got.tobytes() == want.tobytes()
        assert top == start.max() + 3 and 0 in start and hi - 3 in start
        samples[: hi + 1] += rng.normal(size=samples[: hi + 1].shape)


# Rates of x' = lam x at dt = 1e-3: the default plant's unstable head mode
# 15 - pi^2 (about 5.13), a slow mode, and stiff tail modes whose factor
# exp(lam dt) is e^-10 and underflows to 0.
SCAN_DT = 1e-3
SCAN_RATES = np.array([15.0 - np.pi ** 2, -1.0, -1e4, -1e6])


def scan_case(kind, S, n, seed=0):
    """(E, g, x0) of ``affine_scan`` for S members and n rows: E diagonal
    real or complex, or one matrix per member with the rates as eigenvalues
    in a random orthonormal basis."""
    rng = np.random.default_rng(seed)
    if kind == "lemma2":     # validate-lemma2's blocks: a 1x1 matrix each
        E = np.exp(-rng.uniform(0.0, 5.0, (S, 1, 1)) * SCAN_DT)
        return E, rng.standard_normal((S, n, 1)), rng.standard_normal((S, 1))
    dim = len(SCAN_RATES)
    if kind == "matrix":
        Q = np.linalg.qr(rng.standard_normal((S, dim, dim)))[0]
        E = Q @ (np.exp(SCAN_RATES * SCAN_DT)[:, np.newaxis]
                 * Q.swapaxes(1, 2))
    else:
        E = np.exp(SCAN_RATES * SCAN_DT)
    g = rng.standard_normal((S, n, dim))
    x0 = rng.standard_normal((S, dim))
    if kind == "complex":
        E = E * np.exp(1j * SCAN_DT * np.array([3.0, 40.0, 100.0, 0.0]))
        g = g + 1j * rng.standard_normal((S, n, dim))
        x0 = x0 + 1j * rng.standard_normal((S, dim))
    return E, g, x0


def sequential_scan(E, g, x0):
    x, out = x0, np.empty_like(g)
    for j in range(g.shape[1]):
        x = (np.einsum("sij,sj->si", E, x) if E.ndim == 3 else E * x) \
            + g[:, j]
        out[:, j] = x
    return out


@pytest.mark.parametrize("kind, S, n", [
    (kind, S, n) for kind in ("real", "complex", "matrix") for S in (1, 20)
    for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 57, 127, 128, 129, 240, 241, 256)
] + [("lemma2", 50, 87)])
def test_affine_scan_matches_the_sequential_recurrence(kind, S, n):
    # Blocks on, below and above each power of two, where the up-sweep
    # gains or loses a level, the engines' 240-row blocks and lemma 2's.
    E, g, x0 = scan_case(kind, S, n)
    want = sequential_scan(E, g, x0)
    got = affine_scan(E, g.copy(), x0)
    assert got.dtype == want.dtype
    # Each member's components on their own, so a stiff one is not hidden
    # behind the growing head.
    scale = np.max(np.abs(want), axis=1)
    assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * scale)
    if S > 1:
        for s in range(S):
            alone = affine_scan(E[s:s + 1] if E.ndim == 3 else E,
                                g[s:s + 1].copy(), x0[s:s + 1])
            assert np.array_equal(got[s], alone[0]), s
