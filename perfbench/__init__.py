"""Benchmark for visitrep; see run.py."""
