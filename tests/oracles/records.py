"""Record-stream filters and a study's record views.

The paper applies two systematic filters:

* error stripping (Section 5.1: 4.76 % of raw references carried errors and
  "it was impossible to include the reference in our analysis"), and
* the eight-hour dedupe of Section 5.3 ("this part of the analysis included
  at most one read and one write from any eight hour period" per file),
  which removes re-requests issued by batch scripts within one working day.

:mod:`repro.engine.stream` applies both to batch streams; these are the
record walks it is checked against.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

from repro.core.study import Study
from repro.engine.records import records_from_batches
from repro.engine.stream import EIGHT_HOURS
from repro.trace.record import TraceRecord


def strip_errors(records: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
    """Drop failed references (the paper's first filtering step)."""
    return (r for r in records if not r.is_error)


def dedupe_for_file_analysis(
    records: Iterable[TraceRecord],
    window: float = EIGHT_HOURS,
    mode: str = "block",
) -> Iterator[TraceRecord]:
    """At most one read and one write per file per eight-hour period.

    Mirrors Section 5.3: repeated explicit references to the same file in a
    short span (batch scripts re-reading inputs) would not occur under
    automatic migration, so per-file reference statistics collapse them.

    ``mode="block"`` interprets "any eight hour period" as calendar-aligned
    blocks (00-08, 08-16, 16-24), which is the reading consistent with the
    short interreference intervals of Figure 9; ``mode="sliding"`` keeps a
    reference only when at least ``window`` seconds have passed since the
    last kept reference of the same file and direction.

    Records must arrive in nondecreasing start-time order.
    """
    if mode not in ("block", "sliding"):
        raise ValueError(f"unknown dedupe mode {mode!r}")
    last_kept: Dict[Tuple[str, bool], float] = {}
    prev_start = float("-inf")
    for record in records:
        if record.start_time < prev_start:
            raise ValueError("dedupe filter requires time-ordered records")
        prev_start = record.start_time
        key = (record.mss_path, record.is_write)
        last = last_kept.get(key)
        if mode == "block":
            block = record.start_time // window
            if last is None or block > last:
                last_kept[key] = block
                yield record
        else:
            if last is None or record.start_time - last >= window:
                last_kept[key] = record.start_time
                yield record


def fraction_rereferenced_within(
    records: Iterable[TraceRecord], window: float = EIGHT_HOURS
) -> float:
    """Fraction of requests arriving within ``window`` of a prior request
    for the same file (Section 6: "about one third of all requests came
    within eight hours of another request for the same file").
    """
    last_seen: Dict[str, float] = {}
    total = 0
    within = 0
    for record in records:
        total += 1
        last = last_seen.get(record.mss_path)
        if last is not None and record.start_time - last < window:
            within += 1
        last_seen[record.mss_path] = record.start_time
    if total == 0:
        raise ValueError("empty record stream")
    return within / total


# ---------------------------------------------------------------------------
# A study's record views (the raw, error-stripped and deduped streams)


def iter_records(study: Study) -> Iterator[TraceRecord]:
    """Lazy record view of the study's (possibly replayed) raw stream."""
    return records_from_batches(study.iter_batches("raw"), study.trace.namespace)


def good_records(study: Study) -> Iterator[TraceRecord]:
    """Successful references only (record view of ``"good"``)."""
    return strip_errors(iter_records(study))


def deduped_records(study: Study) -> Iterator[TraceRecord]:
    """The Section 5.3 stream (record view of ``"deduped"``)."""
    return dedupe_for_file_analysis(good_records(study))
