"""Trace substrate: the record format of Table 2 plus codec and I/O.

Public surface::

    from repro.trace import (
        TraceRecord, Device, Flags, ErrorKind,
        TraceReader, TraceWriter, read_trace, write_trace, TraceStatistics,
    )

The Section 5.1 error strip and the Section 5.3 eight-hour dedupe run on
batch streams (:mod:`repro.engine.stream`).
"""

from repro.trace.codec import (
    FORMAT_MAGIC,
    FORMAT_VERSION,
    HEADER_LINE,
    RecordDecoder,
    RecordEncoder,
    escape_path,
    iter_decode,
    quantize_record,
    unescape_path,
)
from repro.trace.errors import (
    ErrorKind,
    TraceError,
    TraceFormatError,
    TraceValidationError,
)
from repro.trace.flags import Flags
from repro.trace.reader import TraceReader, load_trace_string, read_trace
from repro.trace.record import (
    Device,
    TraceRecord,
    device_token,
    make_read,
    make_write,
    parse_device_token,
)
from repro.trace.stats import CellStats, TraceStatistics
from repro.trace.writer import TraceWriter, dump_trace_string, write_trace

__all__ = [
    "CellStats",
    "Device",
    "ErrorKind",
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "Flags",
    "HEADER_LINE",
    "RecordDecoder",
    "RecordEncoder",
    "TraceError",
    "TraceFormatError",
    "TraceReader",
    "TraceRecord",
    "TraceStatistics",
    "TraceValidationError",
    "TraceWriter",
    "device_token",
    "dump_trace_string",
    "escape_path",
    "iter_decode",
    "load_trace_string",
    "make_read",
    "make_write",
    "parse_device_token",
    "quantize_record",
    "read_trace",
    "unescape_path",
    "write_trace",
]
