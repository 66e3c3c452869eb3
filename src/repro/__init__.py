"""repro: a reproduction of Miller & Katz (USENIX 1993).

"An Analysis of File Migration in a Unix Supercomputing Environment" --
trace synthesis, mass-storage-system simulation, migration policies, and
the analyses that regenerate every table and figure in the paper.

Quickstart::

    from repro import generate_trace, WorkloadConfig
    trace = generate_trace(WorkloadConfig(scale=0.01, seed=1))
    from repro.analysis import overall_statistics_from_batches
    table = overall_statistics_from_batches(trace.iter_batches())
    print(table.render())
"""

__version__ = "1.0.0"

from repro.trace import (  # noqa: F401
    Device,
    ErrorKind,
    Flags,
    TraceReader,
    TraceRecord,
    TraceWriter,
    read_trace,
    write_trace,
)
from repro.workload import SyntheticTrace, WorkloadConfig, generate_trace  # noqa: F401

__all__ = [
    "Device",
    "ErrorKind",
    "Flags",
    "SyntheticTrace",
    "TraceReader",
    "TraceRecord",
    "TraceWriter",
    "WorkloadConfig",
    "__version__",
    "generate_trace",
    "read_trace",
    "write_trace",
]
