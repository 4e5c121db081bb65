"""The dcmon benchmark: seeded workloads, a correctness gate and a traced
per-layer run. Run ``python3 perfbench/run.py --help`` from the repository
root."""
