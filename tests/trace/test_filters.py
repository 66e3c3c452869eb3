"""Record-filter oracle tests: error stripping, dedupe modes, the 8-hour
statistic (:mod:`tests.oracles.records`)."""

import pytest

from repro.engine.stream import EIGHT_HOURS
from repro.trace.errors import ErrorKind
from repro.trace.record import Device, make_read, make_write
from repro.util.units import HOUR
from tests.oracles.records import (
    dedupe_for_file_analysis,
    fraction_rereferenced_within,
    strip_errors,
)


def _read(t, path="/f", error=ErrorKind.NONE):
    return make_read(Device.MSS_DISK, t, 100, path, 1, error=error)


def _write(t, path="/f"):
    return make_write(Device.MSS_DISK, t, 100, path, 1)


def test_strip_and_only_errors():
    """The strip drops the failed reference, and only that one."""
    records = [_read(0), _read(1, error=ErrorKind.NO_SUCH_FILE), _read(2)]
    kept = list(strip_errors(records))
    assert kept == [records[0], records[2]]


def test_dedupe_block_mode_keeps_one_per_block():
    # Three reads inside one 8-hour block collapse to one.
    records = [_read(0), _read(HOUR), _read(2 * HOUR)]
    kept = list(dedupe_for_file_analysis(records))
    assert len(kept) == 1


def test_dedupe_block_mode_allows_adjacent_blocks():
    # 07:50 and 08:10 are in different calendar blocks: both survive.
    records = [_read(7.9 * HOUR), _read(8.1 * HOUR)]
    kept = list(dedupe_for_file_analysis(records))
    assert len(kept) == 2


def test_dedupe_sliding_mode_enforces_spacing():
    records = [_read(7.9 * HOUR), _read(8.1 * HOUR), _read(16.2 * HOUR)]
    kept = list(dedupe_for_file_analysis(records, mode="sliding"))
    assert [r.start_time for r in kept] == [7.9 * HOUR, 16.2 * HOUR]


def test_dedupe_keeps_reads_and_writes_separately():
    records = sorted(
        [_read(0), _write(60), _read(120)], key=lambda r: r.start_time
    )
    kept = list(dedupe_for_file_analysis(records))
    # One read, one write survive in the same block; second read collapses.
    assert len(kept) == 2
    assert {r.is_write for r in kept} == {True, False}


def test_dedupe_tracks_files_independently():
    records = [_read(0, "/a"), _read(1, "/b"), _read(2, "/a")]
    kept = list(dedupe_for_file_analysis(records))
    assert len(kept) == 2


def test_dedupe_rejects_unordered_input():
    records = [_read(100), _read(50)]
    with pytest.raises(ValueError):
        list(dedupe_for_file_analysis(records))


def test_dedupe_rejects_unknown_mode():
    with pytest.raises(ValueError):
        list(dedupe_for_file_analysis([_read(0)], mode="bogus"))


def test_fraction_rereferenced_within():
    records = [
        _read(0, "/a"),
        _read(HOUR, "/a"),          # within 8 h of previous /a
        _read(2 * HOUR, "/b"),
        _read(20 * HOUR, "/a"),     # beyond the window
    ]
    assert fraction_rereferenced_within(records) == pytest.approx(0.25)


def test_fraction_rereferenced_empty_stream():
    with pytest.raises(ValueError):
        fraction_rereferenced_within([])


def test_eight_hours_constant():
    assert EIGHT_HOURS == 8 * HOUR
