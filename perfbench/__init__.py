"""Benchmark of the masscap certifier: workloads, oracles and tracing."""
