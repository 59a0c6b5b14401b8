"""The repository benchmark: end-to-end and per-layer performance of the
CellDTA simulator, its ``reproduce`` pipeline and its serving gateway.

Run one workload with ``python3 perfbench/run.py --workload NAME``; see
``perfbench/README.md`` for the workloads, metrics and traced run.
"""
