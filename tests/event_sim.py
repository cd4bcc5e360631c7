"""Discrete-event M/G/1 oracle, the per-job reference for ``trustqueue.sim``.

A single server preemptively runs the lowest-rank job, breaking ties by
arrival time.  Only the in-service job accrues age, so rank changes can
only happen to it; waiting jobs keep a frozen rank inside one heap keyed by
(rank, arrival time).  Event order at identical timestamps: completions,
then arrivals, then rank crossings.

It takes the same random draws as ``trustqueue.sim._run_replication``, so
the two can be compared job by job.  It runs about 270k jobs/s on one
core: keep it to small job counts.
"""

from heapq import heappop, heappush

import numpy as np

from trustqueue.model import Policy
from trustqueue.ranks import initial_rank, rank_boundaries
from trustqueue.sim import mix64


def run_replication(args):
    """One replication by discrete-event simulation, on the same draws as
    ``trustqueue.sim._run_replication``; tests/test_sim.py reads its result
    dict as that function's bin totals."""
    (z, M, lam, kind_value, b, job_count, warm_frac, probe_p, seed, capture) = args
    kind = Policy(kind_value)
    n = len(z)
    rng = np.random.default_rng(mix64(seed))

    arrivals_np = np.cumsum(rng.exponential(1.0 / lam, job_count))
    flat = (M / M.sum()).ravel()
    cells = rng.choice(n * n, size=job_count, p=flat)
    i_np = cells // n
    j_np = cells % n
    coin_np = rng.random(job_count) < b
    probe_np = rng.random(job_count) < probe_p
    k_np = np.where(probe_np, rng.integers(0, n, job_count), j_np)

    arrivals = arrivals_np.tolist()
    sizes = z[i_np].tolist()
    i_list = i_np.tolist()
    j_list = j_np.tolist()
    k_list = k_np.tolist()
    coin_list = coin_np.tolist()
    probe_list = probe_np.tolist()

    bounds = {
        (kk, pun): tuple(zip(*bl)) if (bl := rank_boundaries(kind, z, kk, pun)) else ((), ())
        for kk in range(n) for pun in (False, True)
    }
    init_ranks = [initial_rank(kind, kk) for kk in range(n)]

    warm_n = int(job_count * warm_frac)
    age = [0.0] * job_count     # frozen state while waiting
    bpos = [0] * job_count

    heap = []
    t = 0.0
    next_id = 0
    done = 0
    sid = -1                    # serving job id, -1 if idle
    s_rank = 0
    s_arr = s_age = s_size = 0.0
    s_bages: tuple = ()
    s_branks: tuple = ()
    s_bpos = 0

    in_system = 0
    area = 0.0
    t_start = None              # recording window opens at arrival of job warm_n
    sum_resp = 0.0
    n_resp = 0
    class_sum = [0.0] * n
    class_cnt = [0] * n
    cell_sum = [[0.0] * n for _ in range(n)]
    cell_cnt = [[0] * n for _ in range(n)]
    trace = [] if capture else None

    INF = float("inf")
    while done < job_count:
        t_arr = arrivals[next_id] if next_id < job_count else INF
        if sid >= 0:
            t_done = t + (s_size - s_age)
            t_cross = t + (s_bages[s_bpos] - s_age) if s_bpos < len(s_bages) else INF
        else:
            t_done = t_cross = INF

        if t_done <= t_arr and t_done <= t_cross:
            new_t = t_done
            event = 0
        elif t_arr <= t_cross:
            new_t = t_arr
            event = 1
        else:
            new_t = t_cross
            event = 2
        dt = new_t - t
        if t_start is not None:
            area += in_system * dt
        if sid >= 0:
            s_age += dt
        t = new_t

        if event == 0:
            jid = sid
            in_system -= 1
            done += 1
            if jid >= warm_n:
                resp = t - arrivals[jid]
                if probe_list[jid]:
                    cell_sum[i_list[jid]][k_list[jid]] += resp
                    cell_cnt[i_list[jid]][k_list[jid]] += 1
                else:
                    sum_resp += resp
                    n_resp += 1
                    class_sum[j_list[jid]] += resp
                    class_cnt[j_list[jid]] += 1
                if trace is not None:
                    trace.append((arrivals[jid], i_list[jid], j_list[jid], k_list[jid],
                                  coin_list[jid], probe_list[jid], resp))
            if heap:
                s_rank, s_arr, sid = heappop(heap)
                s_age = age[sid]
                s_size = sizes[sid]
                s_bpos = bpos[sid]
                s_bages, s_branks = bounds[(k_list[sid], coin_list[sid])]
            else:
                sid = -1
        elif event == 1:
            jid = next_id
            next_id += 1
            in_system += 1
            if jid == warm_n and t_start is None:
                t_start = t
            rank0 = init_ranks[k_list[jid]]
            if sid < 0:
                assert not heap, "server idle with jobs waiting"
                sid = jid
                s_rank = rank0
                s_arr = t
                s_age = 0.0
                s_size = sizes[jid]
                s_bpos = 0
                s_bages, s_branks = bounds[(k_list[jid], coin_list[jid])]
            elif rank0 < s_rank:
                age[sid] = s_age
                bpos[sid] = s_bpos
                heappush(heap, (s_rank, s_arr, sid))
                sid = jid
                s_rank = rank0
                s_arr = t
                s_age = 0.0
                s_size = sizes[jid]
                s_bpos = 0
                s_bages, s_branks = bounds[(k_list[jid], coin_list[jid])]
            else:
                heappush(heap, (rank0, t, jid))
        else:
            s_rank = s_branks[s_bpos]
            s_bpos += 1
            if heap and (heap[0][0], heap[0][1]) < (s_rank, s_arr):
                age[sid] = s_age
                bpos[sid] = s_bpos
                heappush(heap, (s_rank, s_arr, sid))
                s_rank, s_arr, sid = heappop(heap)
                s_age = age[sid]
                s_size = sizes[sid]
                s_bpos = bpos[sid]
                s_bages, s_branks = bounds[(k_list[sid], coin_list[sid])]

    window = t - t_start if t_start is not None else 0.0
    return {
        "sum_resp": sum_resp,
        "n_resp": n_resp,
        "class_sum": class_sum,
        "class_cnt": class_cnt,
        "cell_sum": cell_sum,
        "cell_cnt": cell_cnt,
        "area": area,
        "window": window,
        "arrived_in_window": job_count - warm_n,
        "trace": trace,
    }
