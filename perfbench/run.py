"""Tuning-loop benchmark for pipetune.

    python3 perfbench/run.py --workload synth3-eeipu --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

See perfbench/README.md for the workloads and metrics.
"""

import sys

import env

if __name__ == "__main__":
    env.prepare()
    import bench

    sys.exit(bench.main())
