"""Benchmark of the burnside CLI; see README.md and run.py."""
