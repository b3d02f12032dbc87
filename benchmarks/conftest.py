"""Make the benchmarks directory importable regardless of rootdir."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def pytest_configure(config):
    # Only the full sweep regenerates the committed result tables; a
    # smoke run (a -k selection without --benchmark-only) prints them.
    if config.getoption("benchmark_only", False):
        import common

        common.WRITE_RESULTS = True
