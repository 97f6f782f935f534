"""Benchmark of the ``hawkes-vb`` commands; see README.md in this directory."""
