"""The reference kernel that scales the benchmark's times to a reference speed.

Kept apart from the workloads so that a set-up probe can time it before it
imports anything else.
"""

from time import perf_counter

REF_KERNEL_S = 0.003        # reference_kernel_s() on a 2-vCPU Intel Xeon VM at a quiet moment


def reference_kernel_s() -> float:
    """Time of a fixed pure-Python integer loop, about 3 ms.

    The loop is the benchmark's own code.  Timed during a task, it measures
    how fast the host runs interpreter-bound code at that moment, so
    ``time * REF_KERNEL_S / kernel time`` cancels the host's speed drift
    while keeping every change to the program.
    """
    t0 = perf_counter()
    s = 0
    for i in range(40_000):
        s += (i * i) % 7
    return perf_counter() - t0
