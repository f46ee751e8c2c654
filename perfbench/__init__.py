"""Benchmark harness for weylot (see README.md)."""
