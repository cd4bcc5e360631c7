"""Real roots of the polynomial numerators of every b-search.

m1 and m2 are linear in b, so with the positive product prod_{ell=1..n}
(1 - rho_ell(b)), each pair's (delta_jk(b) + tol) * prod and E[T] * prod = P
are polynomials of degree n + 1.  Their real roots are the IC regions' and
the pair thresholds' endpoints; (target - E[T]) * prod, whose roots end the
social-benefit regions, is one too; and E[T] = P / Q is stationary only at
roots of D = P' Q - P Q', of degree 2 n.  One cube at Chebyshev nodes
interpolates them.

roots maps Chebyshev coefficients to Bernstein coefficients on [0, 1] with
one fixed matrix.  By Descartes' rule a row with no sign variation has no
root in (0, 1) and a row with one has exactly one, which Newton's method,
kept inside its bracket, refines to full double precision; a row with more
is split in halves by de Casteljau's algorithm.  A sign counts only beyond
a margin of about 10^6 rounding errors of the terms it is a difference of:
a coefficient inside it counts as a variation on both of its sides, and a
piece whose coefficients all lie inside it is rounding noise and yields no
root.  Every step is elementwise or a sum in a fixed order, so each row's
roots have the bits they have in a family of one config.

Regions first drop the configs certified_empty marks: on each of the 8
pieces [m/8, (m+1)/8] one of their series has every Bernstein coefficient
below -2, so no cell can pass and their series need no roots.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

import numpy as np
from numpy.polynomial.chebyshev import chebder

from .soap import CubeFamily, estimate_means

_KAPPA = 1e-9           # a sign counts beyond this share of the size of the terms
_PIECES = 8             # certified_empty bounds each series on [m/8, (m+1)/8]


class Numerators:
    """Chebyshev interpolants of every pair's numerator, for every config of a family.

    Each interpolant is stored divided by its threshold: _KAPPA times the
    largest value, on the nodes, of (T_jk + T_jj + tol) times the product.
    A sign counts where that quotient lies outside [-1, 1]: the margin scales
    with the times, as delta's rounding does.  Pairs are ordered by config.
    """

    def __init__(self, family: CubeFamily, tol: float):
        n = family.sizes.shape[1]
        defined = family.entries.sum(axis=1) > 0      # estimate classes with probability
        self.owner, self.js, self.ks = np.nonzero(defined[:, :, None] & ~np.eye(n, dtype=bool))
        rows = np.arange(len(family))
        nodes = np.broadcast_to(_lobatto(n + 2), (len(family), n + 2))
        T = estimate_means(family.entries, family.cube(rows, nodes))
        Tk, Tj = T[self.owner, self.js, self.ks], T[self.owner, self.js, self.js]
        product = _denominator(family, rows, nodes)[self.owner]
        threshold = _KAPPA * np.max((Tk + Tj + tol) * product, axis=1)
        # delta + tol as ic_check's rule computes it, at each node
        self.coef = _interpolate((Tk - Tj + tol) * product) / threshold[:, None]


def sign(coef: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """+1 or -1, the sign of series coef[r] at each bs[r, ...] where certain, else 0."""
    return _certain(_value(np.expand_dims(coef.T, tuple(range(2, bs.ndim + 1))), bs))


def benefit(family: CubeFamily, target: float) -> np.ndarray:
    """Chebyshev interpolants of every config's (target - E[T]) * prod, scaled to the margin.

    The margin is _KAPPA times the largest (target + E[T]) * prod on the nodes.
    """
    mean, product = _mean_at_nodes(family, np.arange(len(family)))
    threshold = _KAPPA * np.max((target + mean) * product, axis=1)
    return _interpolate((target - mean) * product) / threshold[:, None]


def stationary_points(family: CubeFamily, rows: np.ndarray) -> np.ndarray:
    """The real roots in (0, 1) of D = P' Q - P Q' of configs rows: shape (R, m), NaN-padded.

    P = E[T] Q is interpolated from one cube at n + 2 nodes, and D from the
    values of P, Q and their derivatives at 2 n + 1 nodes.
    """
    n = family.sizes.shape[1]
    mean, Q = _mean_at_nodes(family, rows)
    p = _interpolate(mean * Q)
    q = _interpolate(Q)
    p, dp, q, dq = (_value(c.T[:, :, None], _lobatto(2 * n + 1))
                    for c in (p, chebder(p, axis=1), q, chebder(q, axis=1)))
    scale = _KAPPA * np.max(np.abs(dp * q) + np.abs(p * dq), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):    # where E[T] is flat, D is 0 / 0
        return roots(_interpolate(dp * q - p * dq) / scale[:, None], np.arange(len(Q)), len(Q))


def certified_empty(coef: np.ndarray, owner: np.ndarray, count: int) -> np.ndarray:
    """(count,) bool: True where each piece has a series coef[r] of config owner[r] below -2.

    Bernstein coefficients bound a series on their piece, so sign calls it -1
    there.  They reach about 1e9 and a BLAS product rounds them by under
    1e-6, which the unit of slack absorbs; a flip would only cost time.
    """
    d = coef.shape[1] - 1
    bern = (_to_pieces(d).T @ coef.T).reshape(_PIECES, d + 1, len(coef))
    piece, r = np.nonzero(bern.max(axis=1) < -2.0)      # a short last axis reduces slowly
    below = np.zeros((count, _PIECES), dtype=bool)
    below[owner[r], piece] = True
    return below.all(axis=1)


def roots(coef: np.ndarray, group: np.ndarray, count: int) -> np.ndarray:
    """The sign changes in (0, 1) of Chebyshev series coef[r] in 2 b - 1, scaled to the margin.

    Returns each of count groups' roots, of its rows group[r]: (count, m), sorted, NaN-padded.
    """
    row, lo, hi = np.arange(len(coef)), np.zeros(len(coef)), np.ones(len(coef))
    bern = _dot(coef[:, None], _to_bernstein(coef.shape[1] - 1))
    brackets = []
    while not brackets or row.size:
        s = _certain(bern)
        variations = ((s[:, :-1] != s[:, 1:]) | (s[:, :-1] == 0)).sum(axis=1)
        one = variations == 1
        brackets.append((row[one], lo[one], hi[one]))
        mid = 0.5 * (lo + hi)
        split = (variations > 1) & (s != 0).any(axis=1) & (lo < mid) & (mid < hi)
        left, right = _halves(bern[split])
        row, bern = np.tile(row[split], 2), np.concatenate((left, right))
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
    row, lo, hi = (np.concatenate(a) for a in zip(*brackets))
    root = _refine(coef[row], lo, hi)
    found = ~np.isnan(root)
    order = np.lexsort((root[found], group[row[found]]))
    g, root = group[row[found]][order], root[found][order]
    slot = np.arange(len(g)) - np.searchsorted(g, g)     # rank within its group
    out = np.full((count, slot.max(initial=-1) + 1), np.nan)
    out[g, slot] = root
    return out


def _refine(coef: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The sign change of series coef[r] in [lo[r], hi[r]], NaN where there is none.

    Newton's method on all brackets together, a step that leaves its shrinking
    bracket replaced by the midpoint.  A root is done when its step stands
    still, when no double lies inside its bracket, or when its value lies
    inside the margin and equals the last one: the series is flat to rounding.
    """
    coef = np.ascontiguousarray(coef.T)
    slope = 2.0 * chebder(coef)         # d/db of a series in 2 b - 1
    f_lo, f_hi = _value(coef, lo), _value(coef, hi)
    neg = f_lo < 0
    change = neg != (f_hi < 0)
    with np.errstate(divide="ignore", invalid="ignore"):   # start at the chord's root
        x = np.clip(lo - f_lo * (hi - lo) / (f_hi - f_lo), lo, hi)
    last = np.full(len(lo), np.nan)
    todo = np.flatnonzero(change)
    while todo.size:
        at = x[todo]
        f = _value(coef[:, todo], at)
        right = (f < 0) == neg[todo]        # the root lies right of x
        lo[todo[right]] = at[right]
        hi[todo[~right]] = at[~right]
        a, b = lo[todo], hi[todo]
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = at - f / _value(slope[:, todo], at)
        step = np.where((a < newton) & (newton < b), newton, 0.5 * (a + b))
        go = (newton != at) & ((f != last[todo]) | (np.abs(f) > 1.0)) & (a < step) & (step < b)
        last[todo] = f
        todo = todo[go]
        x[todo] = step[go]
    return np.where(change, x, np.nan)


def _mean_at_nodes(family: CubeFamily, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[T] and prod (1 - rho) of configs rows at the n + 2 nodes: two (R, n + 2) arrays."""
    n = family.sizes.shape[1]
    nodes = np.broadcast_to(_lobatto(n + 2), (len(rows), n + 2))
    return family.overall(rows, nodes), _denominator(family, rows, nodes)


def _value(coef: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Chebyshev series in 2 b - 1 at bs, coefficient k in coef[k], by Clenshaw's recurrence."""
    y = 4.0 * bs - 2.0
    b1 = b2 = 0.0
    for c in coef[:0:-1]:
        b1, b2 = c + y * b1 - b2, b1
    return coef[0] + 0.5 * y * b1 - b2


def _lobatto(count: int) -> np.ndarray:
    """count Chebyshev-Lobatto nodes on [0, 1], from b = 0 to b = 1."""
    return 0.5 - 0.5 * np.cos(np.pi * np.arange(count) / (count - 1))


def _interpolate(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of each row's polynomial through values at _lobatto nodes."""
    N = values.shape[1] - 1
    # discrete orthogonality at Chebyshev-Lobatto points, where T_k(2 b_m - 1) =
    # (-1)^k cos(pi k m / N): c_k = 2/N sum_m w_m w_k T_k p(b_m), w = 1/2 at the ends
    k = np.arange(N + 1)
    w = np.where((k == 0) | (k == N), 0.5, 1.0)
    to_coef = (-1.0) ** k[:, None] * np.cos(np.pi * np.outer(k, k) / N) * np.outer(w, w) * (2.0 / N)
    return _dot(values[:, None], to_coef)


def _denominator(family: CubeFamily, rows, bs: np.ndarray) -> np.ndarray:
    """prod_{ell=1..n} (1 - rho_ell(b)) of configs rows at bs[r]: (R, B), positive on [0, 1]."""
    _, _, rho = family.moments(rows, bs)
    return np.prod(1.0 - rho[1:-1], axis=0)


def _certain(q: np.ndarray) -> np.ndarray:
    """+1 where q > 1, -1 where q < -1, 0 elsewhere (and where q is NaN)."""
    return np.where(q > 1.0, 1.0, np.where(q < -1.0, -1.0, 0.0))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the last axis of a * b in a fixed order, so no row's bits depend on another's."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, max(a.shape[-1], b.shape[-1])):
        out = out + a[..., k] * b[..., k]
    return out


@lru_cache(maxsize=16)
def _to_bernstein(d: int) -> np.ndarray:
    """K, exact then rounded: _dot(c, K) are the Bernstein coefficients of series c on [0, 1]."""
    f = factorial
    # T_k(2 b - 1) = sum_i power[k][i] b^i, and b^i = sum_{j >= i} C(j, i) / C(d, i) B_{j,d}(b)
    power = [[1]] + [[(-1) ** (k - i) * k * f(k + i - 1) * 4**i // (f(k - i) * f(2 * i))
                      for i in range(k + 1)] for k in range(1, d + 1)]
    K = np.array([[sum(comb(j, i) * a[i] * f(i) * f(d - i) for i in range(min(j, k) + 1)) / f(d)
                   for k, a in enumerate(power)] for j in range(d + 1)])
    K.flags.writeable = False       # shared by every caller through the cache
    return K


@lru_cache(maxsize=16)
def _to_pieces(d: int) -> np.ndarray:
    """c @ it: series c's Bernstein coefficients on each piece in turn, (d + 1) x 8 (d + 1)."""
    pieces = [_to_bernstein(d).T]       # row k: T_k's coefficients on [0, 1]
    while len(pieces) < _PIECES:
        pieces = [half for p in pieces for half in _halves(p)]
    P = np.concatenate(pieces, axis=1)
    P.flags.writeable = False
    return P


def _halves(bern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """de Casteljau: each row's Bernstein coefficients on the two halves of its interval."""
    left, right = [bern[:, 0]], [bern[:, -1]]
    while bern.shape[1] > 1:
        bern = 0.5 * (bern[:, :-1] + bern[:, 1:])
        left.append(bern[:, 0])
        right.append(bern[:, -1])
    return np.column_stack(left), np.column_stack(right[::-1])
