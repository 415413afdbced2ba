"""Synthetic workload substrate: trace records, address streams, write
data patterns, and the Table IV benchmark suite."""

from .benchmarks import (
    CORES,
    BenchmarkSpec,
    benchmark_suite,
    get_benchmark,
    scale_benchmark,
)
from .datapatterns import PatternParams, WritePatternGenerator
from .synthetic import StreamParams, SyntheticStream
from .trace import MemoryAccess, Trace

__all__ = [
    "CORES",
    "BenchmarkSpec",
    "benchmark_suite",
    "get_benchmark",
    "scale_benchmark",
    "PatternParams",
    "WritePatternGenerator",
    "StreamParams",
    "SyntheticStream",
    "MemoryAccess",
    "Trace",
]
