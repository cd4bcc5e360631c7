"""Signs of the incentive deltas, read from their polynomial numerators.

Region searches (incentives) only ever ask for the sign of a pair's
delta_jk(b) + tol, and most of those signs are fixed by algebra.  m1 and
m2 are linear in b, so (delta_jk(b) + tol) * prod_{ell=1..n} (1 -
rho_ell(b)) is a polynomial of degree at most n + 1, and the product is
positive on [0, 1].  One cube at n + 2 Chebyshev nodes (b = 0 and b = 1
among them) interpolates it for every pair of a family.  A sign is read
from the interpolant only where its value clears a margin of about 10^6
rounding errors of the response times it is a difference of; there the
delta the search would compute cannot have the other sign, so no verdict
changes.  Inside the margin the caller computes the sign as before.

The same holds for the honest-equilibrium mean response: E[T](b) *
prod_{ell=1..n} (1 - rho_ell(b)) is a polynomial P of degree at most
n + 1, so E[T] = P / Q is stationary only at the real roots of D = P' Q -
P Q', of degree at most 2 n.  stationary_points finds them from the
Chebyshev coefficients of D, by the eigenvalues of colleague matrices.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.chebyshev import chebder

from .soap import CubeFamily

_KAPPA = 1e-9           # a numerator's sign counts beyond this share of its terms' size
_SCAN_BLOCK = 1 << 16   # pair x grid-point values per scan product, 512 kB
_TRIM = 1e-13           # a leading coefficient below this share of a row's largest is dropped
_REAL = 1e-7            # an eigenvalue counts as a real root below this imaginary part


def pair_deltas(family: CubeFamily, owner: np.ndarray, js: np.ndarray, ks: np.ndarray):
    """(f, cols) for the pairs (j, k) = (js[r], ks[r]) of configs owner[r].

    f(bs, r) gives delta[j][k] of the pairs r, each at its own b; cols[r]
    holds pair r's weights over true sizes.
    """
    R = np.array([config.matrix.estimate_marginal for config in family.configs])
    cols = family.entries[owner, :, js] / R[owner, js, None]    # pair weights over true sizes

    def f(bs, r):
        U = family.cube(owner[r], bs[:, None])
        t = np.arange(len(r))
        return np.vecdot(cols[r], U[t, :, ks[r], 0] - U[t, :, js[r], 0])

    return f, cols


class Numerators:
    """Chebyshev interpolants of every pair's numerator, for every config of a family.

    Each interpolant is stored divided by its threshold: _KAPPA times the
    largest value, on the nodes, of (T_jk + T_jj + tol) times the product.
    A sign counts where that quotient q lies outside [-1, 1].  The margin
    scales with the response times, not with delta, because delta can be a
    small difference of large times and its rounding is theirs.
    """

    def __init__(self, family: CubeFamily, tol: float):
        n = family.sizes.shape[1]
        defined = family.entries.sum(axis=1) > 0      # estimate classes with probability
        self.owner, self.js, self.ks = np.nonzero(defined[:, :, None] & ~np.eye(n, dtype=bool))
        self.delta, cols = pair_deltas(family, self.owner, self.js, self.ks)
        # each config's pairs, padded to one width by repeating its first pair
        count = np.bincount(self.owner, minlength=len(family))
        slots = np.arange(count.max(initial=0))
        self.rows = (np.cumsum(count) - count)[:, None] + np.minimum(slots, count[:, None] - 1)
        self.degree = n + 1
        nodes = _lobatto(n + 2)
        U = family.cube(np.arange(len(family)), np.broadcast_to(nodes, (len(family), n + 2)))
        Uk = U[self.owner, :, self.ks].transpose(0, 2, 1).copy()     # (pair, node, i)
        Uj = U[self.owner, :, self.js].transpose(0, 2, 1).copy()
        # f's own vecdot over the same contiguous rows, so f(0) and f(1) keep their bits
        f = np.vecdot(cols[:, None], Uk - Uj) + tol
        size = np.vecdot(cols[:, None], Uk + Uj)     # T_jk + T_jj
        product = _denominator(family, nodes)[self.owner]
        self.f0, self.f1 = f[:, 0], f[:, -1]
        threshold = _KAPPA * np.max((size + tol) * product, axis=1)
        self.coef = _interpolate(f * product) / threshold[:, None]

    def sign(self, bs, r) -> np.ndarray:
        """+1 or -1, the sign of pair r's f at bs[r] where certain, else 0."""
        return _certain(np.vecdot(self.coef[r], _chebyshev(bs, self.degree)))

    def boundary_sign(self, bs, members) -> np.ndarray:
        """+1 or -1, the sign of config members[r]'s worst pair at bs[r] where certain, else 0.

        A config is certainly infeasible where any pair is certainly
        negative and certainly feasible where every pair is certainly
        positive, so its smallest quotient decides.
        """
        q = np.vecdot(self.coef[self.rows[members]], _chebyshev(bs, self.degree)[:, None, :])
        return _certain(q.min(axis=1, initial=np.inf))

    def scan(self, bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ok, unsure): each config's feasibility on the grid bs, and the configs it leaves open.

        ok[c] is exact where unsure[c] is False; a config is left open
        where the smallest quotient of some grid point lies in [-1, 1].
        """
        configs, width = self.rows.shape
        ok = np.empty((configs, len(bs)), dtype=bool)
        unsure = np.empty(configs, dtype=bool)
        chebyshev = np.ascontiguousarray(_chebyshev(bs, self.degree).T)
        step = max(1, _SCAN_BLOCK // max(1, width * len(bs)))
        for c in range(0, configs, step):
            rows = self.rows[c:c + step]
            # einsum, not @: a level-3 BLAS product makes OpenBLAS map its
            # buffers and threads, about 1 MB of resident memory per process
            q = np.einsum("rk,kg->rg", self.coef[rows.ravel()], chebyshev)
            q = q.reshape(rows.shape + (len(bs),)).min(axis=1, initial=np.inf)
            ok[c:c + step] = q > 1.0
            unsure[c:c + step] = ~(ok[c:c + step] | (q < -1.0)).all(axis=1)
        return ok, unsure


def stationary_points(family: CubeFamily, rows: np.ndarray) -> np.ndarray:
    """The real roots in [0, 1] of D = P' Q - P Q' of configs rows: shape (R, 2 n), NaN-padded.

    P = E[T] Q is interpolated from one cube at n + 2 nodes, and D, of
    degree at most 2 n, from the values of P, Q and their derivatives at
    2 n + 1 nodes.  Every stationary point of E[T] in [0, 1] is among the
    roots; where E[T] does not depend on b, D is rounding noise and its
    roots are arbitrary points of [0, 1].
    """
    n = family.sizes.shape[1]
    nodes = _lobatto(n + 2)
    Q = _denominator(family, nodes)[rows]
    p = _interpolate(family.overall(rows, np.broadcast_to(nodes, Q.shape)) * Q)
    q = _interpolate(Q)
    T = _chebyshev(_lobatto(2 * n + 1), n + 1)

    def at(coef):
        return np.einsum("rk,mk->rm", coef, T[:, :coef.shape[1]])

    dp, dq = chebder(p, axis=1), chebder(q, axis=1)
    return _real_roots(_interpolate(at(dp) * at(q) - at(p) * at(dq)))


def _real_roots(coef: np.ndarray) -> np.ndarray:
    """Each row's real roots in [0, 1] of its Chebyshev series in 2 b - 1, NaN-padded.

    A row's degree is that of its last coefficient above _TRIM times its
    largest, so no colleague matrix divides by zero.  The rows of one
    degree share one stack of colleague matrices and one eigvals call.
    """
    size = np.abs(coef)
    big = size > _TRIM * size.max(axis=1, keepdims=True, initial=0.0)
    degree = np.where(big.any(axis=1), coef.shape[1] - 1 - np.argmax(big[:, ::-1], axis=1), 0)
    roots = np.full((len(coef), coef.shape[1] - 1), np.nan)
    for d in np.unique(degree[degree > 0]):
        rows = np.flatnonzero(degree == d)
        c = coef[rows, :d + 1]
        # x T_0 = T_1 and x T_k = (T_{k-1} + T_{k+1}) / 2; at a root, T_d is
        # the combination of lower terms that makes the series vanish
        A = np.zeros((len(rows), d, d))
        A[:, np.arange(1, d), np.arange(d - 1)] = 0.5
        A[:, np.arange(d - 1), np.arange(1, d)] = 0.5
        if d > 1:
            A[:, 0, 1] = 1.0
        A[:, -1] -= c[:, :-1] / ((2.0 if d > 1 else 1.0) * c[:, -1:])
        x = np.linalg.eigvals(A)
        real = (np.abs(x.imag) <= _REAL) & (np.abs(x.real) <= 1.0)
        roots[rows, :d] = np.where(real, 0.5 * (x.real + 1.0), np.nan)
    return roots


def _lobatto(count: int) -> np.ndarray:
    """count Chebyshev-Lobatto nodes on [0, 1], from b = 0 to b = 1."""
    return 0.5 - 0.5 * np.cos(np.pi * np.arange(count) / (count - 1))


def _chebyshev(bs, degree: int) -> np.ndarray:
    """T_0 .. T_degree at 2 bs - 1, on a new last axis."""
    x = 2.0 * np.asarray(bs) - 1.0
    T = np.empty(x.shape + (degree + 1,))
    T[..., 0] = 1.0
    T[..., 1] = x
    for m in range(2, degree + 1):
        T[..., m] = 2.0 * x * T[..., m - 1] - T[..., m - 2]
    return T


def _interpolate(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of each row's polynomial through values at _lobatto nodes."""
    count = values.shape[1]
    # discrete orthogonality at Chebyshev-Lobatto points gives
    # c_k = 2/(count-1) sum_m w_m w_k T_k(x_m) p(x_m), w = 1/2 at the ends
    w = np.ones(count)
    w[[0, -1]] = 0.5
    to_coef = _chebyshev(_lobatto(count), count - 1) * np.outer(w, w) * (2.0 / (count - 1))
    return np.einsum("rm,mk->rk", values, to_coef)     # no BLAS


def _denominator(family: CubeFamily, bs: np.ndarray) -> np.ndarray:
    """prod_{ell=1..n} (1 - rho_ell(b)) of every config at bs, shape (C, len(bs)); positive on [0, 1]."""
    n = family.sizes.shape[1]
    a1, d1 = family.coeffs[0][:, 1:n + 1], family.coeffs[1][:, 1:n + 1]
    rho = family.lam[:, None, None] * (a1[:, :, None] + d1[:, :, None] * bs)
    return np.prod(1.0 - rho, axis=1)


def _certain(q: np.ndarray) -> np.ndarray:
    """+1 where q > 1, -1 where q < -1, 0 elsewhere (and where q is NaN)."""
    return np.where(q > 1.0, 1.0, np.where(q < -1.0, -1.0, 0.0))


def guided(sign, f):
    """f(bs, r) for _bisect's sign tests: the signs sign(bs, r) gives, f itself where it gives 0."""
    def g(bs, r):
        out = sign(bs, r)
        unsure = np.flatnonzero(out == 0.0)
        if unsure.size:
            out[unsure] = f(bs[unsure], r[unsure])
        return out

    return g
