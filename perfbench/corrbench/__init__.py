"""Benchmark of corrldp: workloads, correctness checks and layer tracing."""
