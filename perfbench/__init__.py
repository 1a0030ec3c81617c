"""Benchmark for the Kaskade reproduction: HTTP serving and analytics workloads.

Run ``python3 perfbench/run.py --help``; ``perfbench/README.md`` describes
the workloads and metrics.
"""
