"""The implicit predictor feedback law and its block solve.

The control value at time t solves

    u(t) = phi(t) * { K Y(t) + d2(t) + K * I[u](t) },
    I[u](t) = int_{max(t-D0,0)}^t exp((t-s-D0) A) B u(s) ds,

where the integral is taken over the piecewise-linear interpolant of the
sampled control history, so the final segment depends on u(t) itself.

On a uniform grid t_j = j dt the integral is a fixed-tap convolution of the
samples, I(t_j) = sum_{k=0..L} G_k u_{j-k} with L = ceil(D0/dt); the taps are
exact exponential moments, built once per run (``predictor_taps``).  The
convolution is evaluated in full at every step: the recursive sliding-window
update of the same integral amplifies rounding like exp(lambda_1 t) on the
unstable head modes.  The law is linear in u_j, so it is solved directly.

This module owns the law and the control record; ``sim_engine`` owns the
plant, the block schedule and the fault report.  ``PredictorController``
is the only solve of the law: ``simulate`` builds it from these taps and
the RK4 oracle from its own Simpson taps.  ``ControlHistory`` holds the
samples of every member of a batched run and the delayed reads
u(t_j - D(t_j)), fixed up front because D(t) is exogenous; ``interp``
returns one block's reads.  ``PredictorController.step`` solves the laws of
B consecutive steps as one lower block-triangular system on a plain sample
array: diagonal blocks I - phi_j K G_0, checked against
``SOLVE_CONDITIONING_FLOOR``, the block at lag k below the diagonal
-phi_j K G_k, and the taps on samples before the block in the right-hand
side; the engine holds each row's componentwise backward error to
``SOLVE_RESIDUAL_TOL``.  The system depends on the block only through its
length and its steps' phis, so ``PredictorController.block_law`` builds it
once per such phi pattern: once t >= t0 every full block shares one.  A law
whose steps share one phi is block-Toeplitz, and so is its inverse, built
once from its first block column and applied to all members as one stacked
product (``apply_inverse``); the transition blocks, whose laws are each used
once, solve by forward substitution per member.  Every linear history read
(the delayed reads and the Artstein residual's reads of Z) goes through
``linear_stencil``, which owns the covered-span check.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import SpecpredError
from .numerics import exp_moments, smoothstep


class ControllerError(SpecpredError, RuntimeError):
    pass


def solve_triangular(*args, **kwargs):
    """``scipy.linalg.solve_triangular``, with scipy.linalg imported on the
    first call (see ``numerics.matrix_exps``)."""
    from scipy.linalg import solve_triangular as solve
    return solve(*args, **kwargs)


def apply_inverse(inverse, scaled):
    """The controls (S, n m) of a steady block from the transposed inverse
    of its unit matrix and its scaled right-hand sides (S, n m): one stacked
    product that runs per member, so a member's bits do not depend on S."""
    return (scaled[:, np.newaxis] @ inverse)[:, 0]


def _substitute(unit, scaled):
    """The controls (S, n m) of a transition block: one forward substitution
    per member, which keeps its rounding independent of S."""
    return np.stack([solve_triangular(unit, r, lower=True, unit_diagonal=True,
                                      check_finite=False) for r in scaled])


def _toeplitz_inverse(unit, n: int, m: int):
    """Transposed inverse of a unit lower-triangular block-Toeplitz matrix
    of n blocks of m x m.  The inverse is block-Toeplitz too: its first
    block column X_0..X_{n-1} is one m-column solve, and block (i, k) is
    X_{i-k}, filled as a strided view like ``PredictorController.T``."""
    X = np.zeros((2 * n - 1, m, m), dtype=unit.dtype)
    X[n - 1:] = solve_triangular(unit, np.eye(n * m, m), lower=True,
                                 unit_diagonal=True,
                                 check_finite=False).reshape(n, m, m)
    # inverse[i, a, k, b] = X[n-1 + i-k][a, b], so its transpose [k, b, i, a]
    # is one window per k of the rows n-1-k..2n-2-k; copied, so that the
    # product runs in BLAS.
    return np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(
        X, n, axis=0)[::-1].transpose(0, 2, 3, 1).reshape(n * m, n * m))


def transition(t, t0: float):
    """phi(t), the C^1 smoothstep ramp: 0 on (-inf, 0], 1 on [t0, inf)."""
    return smoothstep(np.clip(np.asarray(t, dtype=float) / t0, 0.0, 1.0))


class ControlHistory:
    """Control samples of S members and the table of their delayed reads.

    Sample i holds u((i - n_pre) dt): the pre-buffer [-(D0 + delta) - dt, 0]
    holds the zero initial control and u_j is ``samples[:, n_pre + j]``.
    ``read_times`` (S, J+1) are the times t_j - D(t_j) of the delayed reads.
    The read of step j may use u_0..u_{j-1} (u_0 alone at j = 0), and a read
    outside that span raises ControllerError here, before the first step.
    """

    def __init__(self, read_times, dt: float, D0: float, delta: float,
                 m: int, dtype=float):
        S, n = read_times.shape
        self.n_pre = int(np.ceil((D0 + delta) / dt - 1e-12)) + 1
        self.samples = np.zeros((S, self.n_pre + n, m), dtype=dtype)
        self._flat = self.samples.reshape(-1, m)
        x = (read_times + self.n_pre * dt) / dt               # grid indices
        i0, _, w1 = linear_stencil(
            x, self.n_pre + np.maximum(np.arange(n) - 1, 0))
        self.margin = np.min(x, axis=1)    # steps from the oldest sample
        # Fewest steps from a read's step (j >= 1) back to the newest sample
        # it uses.
        self.min_lag = np.min((np.arange(n) + self.n_pre - 1 - i0)[:, 1:],
                              initial=np.iinfo(int).max)
        self._rows = i0 + (self.n_pre + n) * np.arange(S)[:, np.newaxis]
        self._w1 = w1[..., np.newaxis]      # the read's w0 is 1 - w1

    def interp(self, steps):
        """The delayed reads of ``steps`` (an index or a slice), every member."""
        rows, w1 = self._rows[:, steps], self._w1[:, steps]
        return (1.0 - w1) * self._flat[rows] + w1 * self._flat[rows + 1]


def linear_stencil(x, hi):
    """Row j0 and weights (w0, w1) of the linear reads at grid positions
    ``x`` from samples 0..hi: the read is w0 s[j0] + w1 s[j0 + 1].  A read
    more than 1e-9 steps outside [0, hi] raises ControllerError, which names
    the first such position."""
    x = np.asarray(x, dtype=float)
    bad = (x < -1e-9) | (x > hi + 1e-9)
    if bad.any():
        i = tuple(np.argwhere(bad)[0])
        top = np.broadcast_to(hi, x.shape)[i]
        raise ControllerError(
            f"history read outside covered span: grid position {x[i]:.6g} "
            f"lies {max(-x[i], x[i] - top):.3g} steps outside [0, {top:g}]")
    x = np.clip(x, 0.0, hi)
    j0 = np.minimum(x.astype(int), hi - 1)
    w = x - j0
    return j0, 1.0 - w, w


def predictor_taps(lambdas, B, D0: float, dt: float):
    """Taps G_k, shape (L+1, N0, m), with I(t_j) = sum_k G_k u_{j-k} exactly.

    The window [t_j - D0, t_j] splits into L-1 full grid segments and one
    oldest segment of length r = D0 - (L-1) dt, whose lower end interpolates
    between u_{j-L} and u_{j-L+1}; a non-integer D0/dt only moves weight
    between the last two taps.  Samples before t = 0 are zero and u(0) = 0,
    so for t_j < D0 the same taps give the window clipped at zero.
    """
    lambdas = np.asarray(lambdas)
    B = np.atleast_2d(np.asarray(B))
    L = int(np.ceil(D0 / dt - 1e-9))
    r = D0 - (L - 1) * dt
    # Full segment [t_j-(k+1)dt, t_j-k dt], k = 0..L-2: kernel prefactor at
    # its lower end times the linear-interpolation moments.
    m0, m1 = exp_moments(lambdas, dt)
    pre = np.exp(lambdas * (dt * np.arange(1, L)[:, np.newaxis] - D0))
    g = np.zeros((L + 1, len(lambdas)), dtype=pre.dtype)
    g[: L - 1] += pre * (m1 / dt)
    g[1:L] += pre * (m0 - m1 / dt)
    # Oldest segment [t_j-D0, t_j-(L-1)dt]: prefactor exp(0) = 1.
    m0r, m1r = exp_moments(lambdas, r)
    w = (L * dt - D0) / dt   # weight of u_{j-L+1} in u(t_j - D0)
    g[L - 1] += (m0r - m1r / r) * w + m1r / r
    g[L] += (m0r - m1r / r) * (1.0 - w)
    return g[:, :, np.newaxis] * B[np.newaxis, :, :]


# Smallest admissible sigma_min(I - phi K G_0); below it the direct solve
# would amplify rounding by more than ~1e6.
SOLVE_CONDITIONING_FLOOR = 1e-6
# Bound on the componentwise backward error max |A u - rhs| / (|A||u| + |rhs|)
# of each row of the block system after the direct solve.
SOLVE_RESIDUAL_TOL = 1e-12


class PredictorController:
    """The implicit law of a run on the grid ``ts``, ``block`` steps at a time.

    Built once per run from the predictor taps G_k (G_0 weighs the newest
    sample, the candidate u_j): the pre-block product H, the in-block
    Toeplitz T (a view of the taps with K folded in) and, for every distinct
    phi of the run, I - phi K G_0 and its inverse, checked against the
    conditioning floor.  A block's system is built from these by
    ``block_law``, once per phi pattern.
    """

    def __init__(self, cert, taps, ts, block: int):
        self.K = K = np.atleast_2d(np.asarray(cert.K))
        m, N0 = K.shape
        # For the block of steps j0+1..j0+block, taps on samples up to u_{j0}
        # form the pre-block product H over the last L samples
        # u_{j0-L+1}..u_{j0}; taps on the block's own samples form the
        # strictly lower block-Toeplitz T, with K folded in.
        self.L = L = len(taps) - 1
        # Block step i reads sample l of the window at lag i + L - l, so
        # H[i, l] = P[i + L - l] for the taps P zero-padded past L: row
        # block-1-i of the windows of P reversed.
        P = np.zeros((L + block, N0, m), dtype=taps.dtype)
        P[:L + 1] = taps
        H = np.lib.stride_tricks.sliding_window_view(
            P[::-1], L, axis=0)[block - 1::-1]               # (block, N0, m, L)
        self.H = np.ascontiguousarray(H.transpose(0, 1, 3, 2)).reshape(
            block * N0, L * m)
        # T[i, :, k, :] = K G_{i-k} for 0 < i - k <= L, a strided view of
        # the taps at lags -(block - 1)..block - 1, zero at lags <= 0 and
        # past L (a block may outrun the taps: the oracle's, under a delay
        # past D0).
        lags = min(block - 1, L)
        KG = np.zeros((2 * block - 1, m, m), dtype=np.result_type(K, taps))
        KG[block: block + lags] = (K @ taps)[1: lags + 1]
        self.T = np.lib.stride_tricks.sliding_window_view(
            KG, block, axis=0)[:, :, :, ::-1].transpose(0, 1, 3, 2)
        phi_all = transition(ts, cert.t0)
        self.phis, self.which = np.unique(phi_all, return_inverse=True)
        self.systems = np.eye(m) - self.phis[:, np.newaxis, np.newaxis] * (K @ taps[0])
        sigma = np.linalg.svd(self.systems, compute_uv=False)[:, -1]
        used = self.phis != 0.0
        for phi, smin in zip(self.phis[used], sigma[used]):
            if smin < SOLVE_CONDITIONING_FLOOR:
                raise ControllerError(
                    f"implicit control solve ill-conditioned: "
                    f"sigma_min(I - phi K G_0) = {smin:.3g} at phi={phi:.6g}")
        self.inverses = np.linalg.inv(self.systems)
        self.min_sigma = float(np.min(sigma[used], initial=np.inf))
        self._law = (None, None)

    def block_law(self, w):
        """The operators of a block whose steps have the phis ``phis[w]``:
        the phis, the inverses that scale its rows, the solve of its unit
        lower-triangular scaled matrix, the unscaled matrix A and |A|.

        A block whose steps share one phi (every full block after t0, and
        the short final one) solves by the explicit inverse of its
        block-Toeplitz scaled matrix, built from that matrix alone; a
        transition block, whose law is used once, by forward substitution.
        phi is monotone in t, so the blocks of one pattern are consecutive
        and one kept law builds each pattern once.  The law it replaces is
        released before the new one is built.
        """
        if self._law[0] != (key := w.tobytes()):
            self._law = (None, None)
            n, m = len(w), len(self.K)
            phis = self.phis[w]
            A = -phis[:, np.newaxis, np.newaxis, np.newaxis] * self.T[:n, :, :n]
            A[np.arange(n), :, np.arange(n)] = self.systems[w]
            inverses = self.inverses[w]
            unit = np.einsum("iab,ibkc->iakc", inverses, A).reshape(n * m, -1)
            if (w == w[0]).all():
                solve = partial(apply_inverse, _toeplitz_inverse(unit, n, m))
            else:
                solve = partial(_substitute, unit)
            A = A.reshape(n * m, -1)
            self._law = key, (phis, inverses, solve, A, np.abs(A))
        return self._law[1]

    def step(self, samples, top: int, j0: int, Y, d2):
        """Solve and return the controls (S, n, m) of steps j0+1..j0+n, given
        their head states ``Y`` (S, n, N0) and matched disturbances ``d2``
        (S, n, m), with each row's componentwise backward error (S, n).  The
        controls are recorded in rows top..top+n-1 of the sample array
        ``samples`` (S, rows, m), whose L rows before ``top`` hold the
        samples up to u_{j0}.  Row i of the block system is M_i u_i - phi_i
        sum_{i'<i} T[i, i'] u_i' = phi_i (K Y_i + d2_i + K H-product_i), with
        M_i = I - phi_i K G_0; scaling row i by M_i^{-1} leaves a unit
        lower-triangular matrix, one for all members.
        """
        S, n, N0 = Y.shape
        phis, inverses, solve, A, abs_A = self.block_law(
            self.which[j0 + 1: j0 + n + 1])
        window = samples[:, top - self.L: top].reshape(S, -1)
        # One product per member: the same BLAS call as its run alone.
        Q = Y + (window[:, np.newaxis] @ self.H[: n * N0].T)[:, 0].reshape(S, n, N0)
        rhs = phis[:, np.newaxis] * (np.einsum("sin,an->sia", Q, self.K) + d2)
        scaled = np.einsum("iab,sib->sia", inverses, rhs).reshape(S, -1)
        # Per member, by product or substitution: the rounding of a member
        # does not depend on S.
        u = solve(scaled)                                       # (S, n m)
        rhs = rhs.reshape(S, -1)
        scale = np.abs(u) @ abs_A.T + np.abs(rhs)
        residual = np.abs(u @ A.T - rhs) / np.maximum(scale, np.finfo(float).tiny)
        u = u.reshape(S, n, -1)
        samples[:, top: top + n] = u
        return u, residual.reshape(S, n, -1).max(axis=2)
