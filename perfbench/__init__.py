"""Benchmark of the valdiv library: workloads, outside-in tracer, runner."""
