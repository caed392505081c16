"""Child process that measures set-up: interpreter start, imports, pipeline
build and warmup, up to the point where the first model-guided iteration
would begin.  Prints the monotonic clock at that point; the parent subtracts
the time it spawned the child.

    python3 perfbench/setup_probe.py <workload> <tuning seed> <cache dir>
"""

import sys
import time

import env


def main() -> None:
    env.prepare()
    import workloads

    name, seed, cache_root = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.setup(workloads.WORKLOADS[name], seed, cache_root)
    print(time.monotonic())


if __name__ == "__main__":
    main()
