"""Shared low-level numerics: exponential quadrature moments, Simpson rule,
the Catmull-Rom cubic, its clamped stencil and the history reader on both,
the work-efficient scan of an affine recurrence, the smoothstep polynomial,
the matrix exponential over a time grid and the largest 2-norm of a stack.

The exponential moments are the workhorse of both the predictor integral and
the per-mode exponential integrator: every integral of the form

    int_0^h exp(-lam * tau) * (a + b * tau) dtau

is expressed through m0(lam, h) and m1(lam, h).  A truncated Taylor series is
used when |lam * h| is tiny to avoid catastrophic cancellation in the
(1 - exp(-x)) / x type expressions.
"""

from __future__ import annotations

import numpy as np

# Below this threshold on |lam*h| the closed forms lose digits to cancellation
# (relative error ~eps/|lam h|) while the truncated Taylor series is accurate
# to ~|lam h|^5 / 720; 1e-3 balances the two at ~1e-12 relative error.
MOMENT_SERIES_THRESHOLD = 1e-3
# Row offsets of the four samples of a Catmull-Rom stencil.
_STENCIL = np.arange(4)


def exp_moments(lam, h):
    """Return (m0, m1) with m0 = int_0^h e^{-lam t} dt, m1 = int_0^h t e^{-lam t} dt.

    ``lam`` may be a scalar or array (real or complex); ``h`` a scalar or an
    array broadcastable against ``lam``.  The closed form takes 1 - e^{-x} as
    -expm1(-x), free of cancellation for real and complex x alike.
    """
    lam = np.asarray(lam)
    h = np.asarray(h)
    x = lam * h
    small = np.abs(x) < MOMENT_SERIES_THRESHOLD
    # Guard the divisions; the masked entries are overwritten below.
    lam_safe = np.where(small, 1.0, lam)
    em = np.exp(-lam_safe * h)
    m0 = -np.expm1(-lam_safe * h) / lam_safe
    # Integration by parts: m1 = (m0 - h e^{-lam h}) / lam.
    m1 = (m0 - h * em) / lam_safe
    # Taylor in x = lam*h around 0, terms through x^4.
    h2 = h * h
    x2 = x * x
    m0_s = h * (1.0 - x / 2.0 + x2 / 6.0 - x2 * x / 24.0 + x2 * x2 / 120.0)
    m1_s = h2 * (0.5 - x / 3.0 + x2 / 8.0 - x2 * x / 30.0 + x2 * x2 / 144.0)
    m0 = np.where(small, m0_s, m0)
    m1 = np.where(small, m1_s, m1)
    if m0.ndim == 0:
        return m0[()], m1[()]
    return m0, m1


def simpson_weights(n_points, h):
    """Composite Simpson weights on a uniform grid with ``n_points`` samples.

    ``n_points`` must be odd (even panel count).
    """
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of points >= 3")
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def simpson_integrate(values, h, axis=-1):
    """Composite Simpson integral of uniformly sampled values (odd count)."""
    values = np.asarray(values)
    n = values.shape[axis]
    w = simpson_weights(n, h)
    shape = [1] * values.ndim
    shape[axis] = n
    return np.sum(values * w.reshape(shape), axis=axis)


def catmull_rom(p, w, work=None):
    """Catmull-Rom cubic on the uniform stencil p = (p0, p1, p2, p3) at
    w in grid units past p1: p1 at w = 0, p2 at w = 1, exact for quadratics.
    It runs in ``work`` (six rows of the result's shape whose first four are
    p; new rows if not given), with the operations, and so the bits, of
    p1 + 0.5 w (p2 - p0) + w^2 (p0 - 2.5 p1 + 2 p2 - 0.5 p3)
    + w^3 (1.5 (p1 - p2) + 0.5 (p3 - p0)); the result is a row of ``work``."""
    if work is None:
        shape = np.broadcast_shapes(*map(np.shape, p), np.shape(w))
        work = np.empty((6,) + shape, np.result_type(*p, w))
        work[:4] = [np.broadcast_to(pk, shape) for pk in p]
    p0, p1, p2, p3, a, b = (work[k:k + 1] for k in range(6))
    np.multiply(np.subtract(p1, p2, out=a), 1.5, out=a)
    a += np.multiply(np.subtract(p3, p0, out=b), 0.5, out=b)
    a *= w * w * w
    np.subtract(p0, np.multiply(p1, 2.5, out=b), out=b)
    np.multiply(np.subtract(p2, p0, out=p0), 0.5 * w, out=p0)
    p1 += p0
    b += np.multiply(p2, 2.0, out=p0)
    b -= np.multiply(p3, 0.5, out=p0)
    b *= w * w
    p1 += b
    p1 += a
    return p1[0]


def cubic_stencil(x, hi):
    """Clamped Catmull-Rom stencil of the reads at grid positions ``x`` from
    samples 0..hi: returns (start, w), the stencil rows start..start+3 and w
    past row start+1.  Reads outside [0, hi] are clamped to its ends."""
    x = np.clip(x, 0.0, hi)
    j = np.clip(x.astype(int), 1, hi - 2)
    return j - 1, x - j


def cubic_reader(samples):
    """Clamped Catmull-Rom reads of a history ``samples`` (rows, *members,
    width) that may be written between reads: ``read(x, hi)`` reads member
    i at the grid positions x[..., i] from rows 0..hi by one ``np.take`` of
    the stencils, into a workspace that the next read reuses.  It returns
    the values, x.shape + (width,), and the last row read."""
    flat = samples.reshape(-1, samples.shape[-1], copy=False)
    stride = flat.shape[0] // len(samples)       # members per history row
    offset = np.arange(stride).reshape(samples.shape[1:-1])
    work = np.empty(0, samples.dtype)

    def read(x, hi):
        nonlocal work
        start, w = cubic_stencil(x, hi)
        if work.size < (size := 6 * x.size * flat.shape[1]):
            work = np.empty(size, samples.dtype)
        buf = work[:size].reshape((6,) + x.shape + flat.shape[1:])
        top = int(start.max()) + 3
        start *= stride
        start += offset
        # The clamped stencil is in range: "clip" takes into buf unbuffered.
        np.take(flat, np.add.outer(stride * _STENCIL, start), axis=0,
                out=buf[:4], mode="clip")
        return catmull_rom(buf[:4], w[..., np.newaxis], buf), top
    return read


def affine_scan(E, g, x0):
    """x_{j+1} = E x_j + g_j from x_0 = ``x0`` (batch, dim), in place in the
    block ``g`` (batch, n, dim), which it returns; ``E`` is a diagonal (dim,)
    or one matrix per member (batch, dim, dim).

    A work-efficient scan.  The up-sweep adds E^d times row d-1+2dk to row
    2d-1+2dk for d = 1, 2, 4, ... while 2d <= n; the down-sweep then adds
    E^d times row 2d-1+2dk to row 3d-1+2dk over the same d in reverse.  Each
    level touches half the rows of the one below, so the block is passed
    over about twice at any n.  Products stay per member, so a member of a
    batch gets the same bits as its single run.
    """
    mat = E.ndim == 3
    mul = (lambda M, v: np.einsum("sij,s...j->s...i", M, v)) if mat \
        else np.multiply
    g[:, 0] += mul(E, x0)
    n, levels, Ed, d = g.shape[1], [], E, 1
    while 2 * d <= n:         # row 2d-1+2dk now sums its last 2d terms
        g[:, 2 * d - 1::2 * d] += mul(Ed, g[:, d - 1:n - d:2 * d])
        levels.append((d, Ed))
        Ed, d = (Ed @ Ed if mat else Ed * Ed), 2 * d
    for d, Ed in reversed(levels):   # row 3d-1+2dk now sums from row 0
        g[:, 3 * d - 1::2 * d] += mul(Ed, g[:, 2 * d - 1:n - d:2 * d])
    return g


def smoothstep(s):
    """C^1 cubic ramp s^2 (3 - 2 s) for an ``s`` already clipped to [0, 1]."""
    return s * s * (3.0 - 2.0 * s)


def matrix_exps(A, ts):
    """exp(A t) for each t in ``ts``, stacked, from one batched ``expm``.

    scipy.linalg is imported here, not with the module: it costs more than
    the work of the subcommands that never call it."""
    from scipy.linalg import expm
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    return expm(np.multiply.outer(ts, np.asarray(A)))


def matrix_exp_norm(A, ts):
    """2-norm of exp(A t) for each t in ``ts``."""
    return np.linalg.norm(matrix_exps(A, ts), 2, axis=(1, 2))


def max_spectral_norm(P):
    """max_k ||P[k]||_2 of a stack of matrices, the same float as
    np.max(np.linalg.norm(P, 2, axis=(1, 2))), from few SVDs.

    The Frobenius norm bounds the 2-norm from above, and with a 1e-12
    relative margin it still does after rounding.  Starting from the exact
    norm of P[0], the matrices are visited by falling bound, and an SVD is
    taken only while the bound reaches the best norm so far.  A non-finite
    entry gives a non-finite result, as the full maximum would.
    """
    bound = np.linalg.norm(P, axis=(1, 2)) * (1.0 + 1e-12)
    if not np.isfinite(bound).all():
        return float(np.max(bound))
    best = np.linalg.svd(P[0], compute_uv=False)[0]
    candidates = np.flatnonzero(bound >= best)
    for k in candidates[np.argsort(-bound[candidates], kind="stable")]:
        if bound[k] < best:
            break
        if k:
            best = max(best, np.linalg.svd(P[k], compute_uv=False)[0])
    return float(best)
