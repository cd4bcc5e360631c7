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
"""

from __future__ import annotations

import numpy as np

from .soap import CubeFamily

_KAPPA = 1e-9           # a numerator's sign counts beyond this share of its terms' size
_SCAN_BLOCK = 1 << 16   # pair x grid-point values per scan product, 512 kB


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
        nodes = 0.5 - 0.5 * np.cos(np.pi * np.arange(n + 2) / (n + 1))
        U = family.cube(np.arange(len(family)), np.broadcast_to(nodes, (len(family), n + 2)))
        Uk = U[self.owner, :, self.ks].transpose(0, 2, 1).copy()     # (pair, node, i)
        Uj = U[self.owner, :, self.js].transpose(0, 2, 1).copy()
        # f's own vecdot over the same contiguous rows, so f(0) and f(1) keep their bits
        f = np.vecdot(cols[:, None], Uk - Uj) + tol
        size = np.vecdot(cols[:, None], Uk + Uj)     # T_jk + T_jj
        a1, d1 = family.coeffs[0][:, 1:n + 1], family.coeffs[1][:, 1:n + 1]
        rho = family.lam[:, None, None] * (a1[:, :, None] + d1[:, :, None] * nodes)
        product = np.prod(1.0 - rho, axis=1)[self.owner]
        self.f0, self.f1 = f[:, 0], f[:, -1]
        threshold = _KAPPA * np.max((size + tol) * product, axis=1)
        # interpolation at Chebyshev-Lobatto points: discrete orthogonality
        # gives c_k = 2/(n+1) sum_m w_m w_k T_k(x_m) p(x_m), w = 1/2 at the ends
        w = np.ones(n + 2)
        w[[0, -1]] = 0.5
        to_coef = self._chebyshev(nodes) * np.outer(w, w) * (2.0 / (n + 1))
        self.coef = np.einsum("rm,mk->rk", f * product, to_coef) / threshold[:, None]   # no BLAS

    def _chebyshev(self, bs) -> np.ndarray:
        """T_0 .. T_degree at 2 bs - 1, on a new last axis."""
        x = 2.0 * np.asarray(bs) - 1.0
        T = np.empty(x.shape + (self.degree + 1,))
        T[..., 0] = 1.0
        T[..., 1] = x
        for m in range(2, self.degree + 1):
            T[..., m] = 2.0 * x * T[..., m - 1] - T[..., m - 2]
        return T

    def sign(self, bs, r) -> np.ndarray:
        """+1 or -1, the sign of pair r's f at bs[r] where certain, else 0."""
        return _certain(np.vecdot(self.coef[r], self._chebyshev(bs)))

    def boundary_sign(self, bs, members) -> np.ndarray:
        """+1 or -1, the sign of config members[r]'s worst pair at bs[r] where certain, else 0.

        A config is certainly infeasible where any pair is certainly
        negative and certainly feasible where every pair is certainly
        positive, so its smallest quotient decides.
        """
        q = np.vecdot(self.coef[self.rows[members]], self._chebyshev(bs)[:, None, :])
        return _certain(q.min(axis=1, initial=np.inf))

    def scan(self, bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ok, unsure): each config's feasibility on the grid bs, and the configs it leaves open.

        ok[c] is exact where unsure[c] is False; a config is left open
        where the smallest quotient of some grid point lies in [-1, 1].
        """
        configs, width = self.rows.shape
        ok = np.empty((configs, len(bs)), dtype=bool)
        unsure = np.empty(configs, dtype=bool)
        chebyshev = np.ascontiguousarray(self._chebyshev(bs).T)
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
