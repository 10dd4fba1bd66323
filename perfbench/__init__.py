"""Benchmark harness for dickeqfi: workloads, correctness gate and tracing.

Run ``python3 perfbench/run.py --workload sweep --seed 0 --seconds 30
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
