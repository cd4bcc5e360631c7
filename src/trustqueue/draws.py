"""One simulated replication's random draws, bit for bit as numpy's samplers make them.

A replication seeds its generator with mix64 of its seed and draws, in
this order: the interarrival times (rng.exponential), each job's flat
(size, estimate) cell c = i * n + j (rng.choice over the joint matrix),
its punishment coin and its probe flag (rng.random each), and a class for
every job (rng.integers), which only the probes read: a probe declares
it, an honest job its estimate j.  So an honest job's row of the flattened
rank-path table is 2c + coin, and only the probes' rows are patched
(0.5% of the jobs at the default probe rate).  tests/event_sim.py draws
the same numbers through those samplers.

rng.choice's cell is the count of cdf values <= a uniform u, which is
cdf.searchsorted(u, side="right").  A guide table (Chen & Asau 1974;
Devroye, Non-Uniform Random Variate Generation, 1986, III.2) gives the
same count at a fixed cost per job.  BUCKETS equal-width buckets cut
[0, 1); a power of 2 makes floor(u * BUCKETS) exact.  A bucket's starting
count is the count at its lower edge.  Each pass of c += (u >= cdf[c])
steps past at most one more cdf value, one strictly inside the bucket, so
as many passes as the most such values in any one bucket finish every
job.  No pass steps past the last cell, whose cdf value is exactly 1 > u.
"""

from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1
BUCKETS = 4096


def mix64(x: int) -> int:
    """splitmix64 finalizer; derives independent per-replication seeds."""
    x &= _M64
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return (x ^ (x >> 31)) & _M64


def cell_table(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(cdf, start, passes) of the joint matrix M, for lookup.

    cdf is the cumulative probability of the flattened cells, scaled to end
    at exactly 1 as rng.choice scales it; start[b] counts the cdf values
    <= b / BUCKETS; passes is the most cdf values strictly inside one bucket.
    """
    cdf = (M / M.sum()).ravel().cumsum()
    cdf /= cdf[-1]
    edges = np.arange(BUCKETS + 1) / BUCKETS
    start = cdf.searchsorted(edges[:-1], side="right")
    inside = cdf.searchsorted(edges[1:], side="left") - start
    return cdf, start, int(inside.max())


def lookup(table, u: np.ndarray, out: np.ndarray, bucket: np.ndarray,
           value: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """out = cdf.searchsorted(u, side="right") for u in [0, 1), bit for bit.

    bucket (intp), value (float) and hit (bool) are scratch buffers of u's
    length.  Indices are in range, so take runs in "clip" mode, which writes
    straight into its output; every pass is an ndarray method or a ufunc.
    """
    cdf, start, passes = table
    np.multiply(u, BUCKETS, out=value)
    np.copyto(bucket, value, casting="unsafe")     # truncation is floor: u >= 0
    start.take(bucket, out=out, mode="clip")
    for _ in range(passes):
        cdf.take(out, out=value, mode="clip")
        out += np.greater_equal(u, value, out=hit)
    return out


def draw_jobs(rng, n: int, lam: float, b: float, probe_p: float, table,
              a, cell, path, coin, u, value, hit) -> tuple[np.ndarray, np.ndarray]:
    """Draw a replication's jobs into the given buffers of the job count's length.

    Fills a with arrival times, cell with i * n + j, coin with punishment
    coins and path with each job's row 2 * (i * n + k) + coin of the
    flattened rank-path table; u, value and hit are scratch.  Returns the
    probes' job indices and their declared cells i * n + k.
    """
    rng.standard_exponential(out=a)
    a *= 1.0 / lam
    a.cumsum(out=a)
    rng.random(out=u)
    lookup(table, u, cell, path, value, hit)
    rng.random(out=u)
    np.less(u, b, out=coin)
    rng.random(out=u)
    probes = np.less(u, probe_p, out=hit).nonzero()[0]
    declared = cell[probes]
    declared -= declared % n
    declared += rng.integers(0, n, len(u))[probes]
    np.multiply(cell, 2, out=path)
    path += coin
    path[probes] = 2 * declared + coin[probes]
    return probes, declared
