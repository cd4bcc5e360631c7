"""Slow, loop-by-loop reference formulas used to cross-check the engine.

Same mathematics as trustqueue.soap but written with explicit scalar loops
and no vectorization, so the two code paths fail independently.
"""

import numpy as np

from trustqueue.model import Policy


def case_value(z, kind: Policy, i: int, j: int, ell: int, punished: bool) -> float:
    """Service at ranks <= ell (1-based) for an honest job of cell (i, j)."""
    if j + 1 > ell:
        return 0.0
    if i <= j:
        return float(z[i])
    if punished:
        return float(z[j])
    if kind == Policy.BLIND_TRUST:
        return float(z[i])
    return float(z[i]) if i + 1 <= ell else float(z[ell - 1])


def moments(config, kind: Policy, b: float):
    n = config.n
    z = config.sizes
    M = config.matrix.entries
    m1 = [0.0] * (n + 2)
    m2 = [0.0] * (n + 2)
    for ell in range(1, n + 1):
        for i in range(n):
            for j in range(n):
                v1 = case_value(z, kind, i, j, ell, True)
                v0 = case_value(z, kind, i, j, ell, False)
                m1[ell] += M[i, j] * (b * v1 + (1 - b) * v0)
                m2[ell] += M[i, j] * (b * v1 * v1 + (1 - b) * v0 * v0)
    for i in range(n):
        for j in range(n):
            m1[n + 1] += M[i, j] * z[i]
            m2[n + 1] += M[i, j] * z[i] * z[i]
    rho = [config.lam * v for v in m1]
    return m1, m2, rho


def u_value(config, kind: Policy, b: float, i: int, k: int, table=None):
    """(unconditional, punished, spared) for cell (i, k); Nones when i <= k.

    table is moments(config, kind, b), computed here when not given.
    """
    n = config.n
    z = config.sizes
    lam = config.lam
    m1, m2, rho = table or moments(config, kind, b)

    def final_rank_response(size, w):
        return (lam * m2[w] / (2.0 * (1.0 - rho[w - 1]) * (1.0 - rho[w]))
                + size / (1.0 - rho[w - 1]))

    if i <= k:
        return final_rank_response(z[i], k + 1), None, None
    punished = (lam * m2[n + 1] / (2.0 * (1.0 - rho[n]) * (1.0 - rho[n + 1]))
                + z[i] / (1.0 - rho[n]))
    if kind == Policy.MEASURED_TRUST:
        spared = final_rank_response(z[i], i + 1)
    else:
        spared = final_rank_response(z[i], k + 1)
    return b * punished + (1 - b) * spared, punished, spared


def overall(config, kind: Policy, b):
    """Honest-equilibrium mean response: a float, or an array for an array of b.

    Every loop is scalar; an array b only runs each of them over many b at once.
    """
    M = config.matrix.entries
    n = config.n
    table = moments(config, kind, b)
    total = sum(M[i, j] * u_value(config, kind, b, i, j, table)[0]
                for i in range(n) for j in range(n))
    return total if isinstance(b, np.ndarray) else float(total)


def scf(config):
    """Smallest Class First: (overall, per-size) mean responses.

    A size-z_i job has final rank i + 1, and the service a job of size S
    receives at ranks <= ell is the capped size min(S, z_ell).
    """
    n = config.n
    z = config.sizes
    S = config.matrix.size_marginal
    lam = config.lam
    m1 = [0.0] * (n + 1)
    m2 = [0.0] * (n + 1)
    for ell in range(1, n + 1):
        for i in range(n):
            capped = min(z[i], z[ell - 1])
            m1[ell] += S[i] * capped
            m2[ell] += S[i] * capped * capped
    rho = [lam * v for v in m1]
    per_size = [lam * m2[i + 1] / (2.0 * (1.0 - rho[i]) * (1.0 - rho[i + 1]))
                + z[i] / (1.0 - rho[i]) for i in range(n)]
    return sum(S[i] * per_size[i] for i in range(n)), per_size
