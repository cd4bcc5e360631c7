"""Exact incentive verdicts in rational arithmetic, an oracle for the float engine.

Every input is a double, and every double is a Fraction exactly: the sizes
through reference.case_value's service values, lambda, the joint matrix
and b.  The moments, the responses U and the deltas follow the formulas of
reference.moments and reference.u_value with no rounding at all, so a
verdict here is the model's own for those inputs.  It reads none of the
code it checks (soap, ranks, incentives, numerators, experiments).
"""

from fractions import Fraction

from reference import case_value
from trustqueue.model import Policy


def _inputs(config):
    """lambda, sizes and joint matrix M[i][j] of config, as Fractions."""
    return (Fraction(float(config.lam)), [Fraction(float(z)) for z in config.sizes],
            [[Fraction(float(v)) for v in row] for row in config.matrix.entries])


def moments(config, kind: Policy, b):
    """(m1, m2, rho), indexed 0..n+1, of reference.moments at b, exact."""
    n = config.n
    lam, z, M = _inputs(config)
    b = Fraction(b)
    m1 = [Fraction(0)] * (n + 2)
    m2 = [Fraction(0)] * (n + 2)
    for ell in range(1, n + 1):
        for i in range(n):
            for j in range(n):
                v1 = Fraction(case_value(config.sizes, kind, i, j, ell, True))
                v0 = Fraction(case_value(config.sizes, kind, i, j, ell, False))
                m1[ell] += M[i][j] * (b * v1 + (1 - b) * v0)
                m2[ell] += M[i][j] * (b * v1 * v1 + (1 - b) * v0 * v0)
    for i in range(n):
        for j in range(n):
            m1[n + 1] += M[i][j] * z[i]
            m2[n + 1] += M[i][j] * z[i] * z[i]
    return m1, m2, [lam * v for v in m1]


def responses(config, kind: Policy, b):
    """U[i][k], the mean response of a size-i job declaring k at b: reference.u_value, exact."""
    n = config.n
    lam, z, _ = _inputs(config)
    b = Fraction(b)
    m1, m2, rho = moments(config, kind, b)

    def final_rank_response(size, w):
        return (lam * m2[w] / (2 * (1 - rho[w - 1]) * (1 - rho[w]))
                + size / (1 - rho[w - 1]))

    def u(i, k):
        if i <= k:
            return final_rank_response(z[i], k + 1)
        punished = (lam * m2[n + 1] / (2 * (1 - rho[n]) * (1 - rho[n + 1]))
                    + z[i] / (1 - rho[n]))
        spared = final_rank_response(z[i], (i if kind == Policy.MEASURED_TRUST else k) + 1)
        return b * punished + (1 - b) * spared

    return [[u(i, k) for k in range(n)] for i in range(n)]


def deltas(config, kind: Policy, b):
    """delta[j][k] = E[T_jk] - E[T_jj] at b, exact; None in rows of zero-probability estimates."""
    n = config.n
    _, _, M = _inputs(config)
    U = responses(config, kind, b)
    out = [[None] * n for _ in range(n)]
    for j in range(n):
        mass = sum(M[i][j] for i in range(n))
        if mass:
            for k in range(n):
                out[j][k] = sum(M[i][j] * (U[i][k] - U[i][j]) for i in range(n)) / mass
    return out


def verdict(config, kind: Policy, b) -> bool:
    """True where no estimate class gains by any declaration: every defined delta >= 0."""
    return all(d >= 0 for row in deltas(config, kind, b) for d in row if d is not None)
