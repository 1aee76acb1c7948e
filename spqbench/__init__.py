"""Benchmark of the SPQ stack: workloads, drivers, reference checks, spans."""
