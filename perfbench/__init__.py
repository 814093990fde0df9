"""Benchmark package: see README.md."""
