"""One set-up of a workload in a fresh interpreter: import and build the inputs.

run.py times this script from start to exit.  The script times the
reference kernel five times before its imports and five times after the
set-up, and prints the kernel's median and the time the kernel took in all,
so that run.py can subtract the kernel and scale the set-up to the reference
speed; the median of those samples is ``setup_s``.

    python3 perfbench/probe_setup.py WORKLOAD SEED [--tiny]
"""

from time import perf_counter

from refkernel import reference_kernel_s


def kernel_samples(count: int) -> tuple[list[float], float]:
    t0 = perf_counter()
    samples = [reference_kernel_s() for _ in range(count)]
    return samples, perf_counter() - t0


def main() -> None:
    before, before_s = kernel_samples(5)
    import argparse
    from statistics import median

    from workloads import FULL, TINY, WORKLOADS
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    WORKLOADS[args.workload](args.seed, TINY if args.tiny else FULL)
    after, after_s = kernel_samples(5)
    print(median(before + after), before_s + after_s)


if __name__ == "__main__":
    main()
