"""Benchmark harness for botnet_mfg: four workloads, end-to-end metrics
with tracing off, and per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload phase_diagram --seed 1 --seconds 15 --trace 0
"""
