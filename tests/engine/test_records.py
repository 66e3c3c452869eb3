"""The record-view adapter: batches must render the same records the
trace's own record walk produces."""

import numpy as np

from repro.engine.batch import EventBatch
from repro.engine.records import records_from_batch, records_from_batches
from repro.trace.errors import ErrorKind


def test_record_views_match_iter_records(tiny_trace):
    adapted = list(
        records_from_batches(tiny_trace.iter_batches(chunk_size=777), tiny_trace.namespace)
    )
    direct = list(tiny_trace.iter_records())
    assert adapted == direct


def _strip_optional(batch: EventBatch) -> EventBatch:
    """The same batch without user/latency/transfer columns."""
    return EventBatch(
        file_id=batch.file_id,
        size=batch.size,
        time=batch.time,
        is_write=batch.is_write,
        device=batch.device,
        error=batch.error,
    )


def test_absent_optional_columns_default_to_zero(tiny_trace):
    """A batch without user/latency/transfer renders the same records as
    one carrying explicit all-zero columns."""
    full = next(tiny_trace.iter_batches(chunk_size=512))
    bare = _strip_optional(full)
    n = len(bare)
    zeroed = EventBatch(
        file_id=full.file_id,
        size=full.size,
        time=full.time,
        is_write=full.is_write,
        device=full.device,
        error=full.error,
        user=np.zeros(n, dtype=np.int32),
        latency=np.zeros(n),
        transfer=np.zeros(n),
    )
    from_bare = list(records_from_batch(bare, tiny_trace.namespace))
    from_zeroed = list(records_from_batch(zeroed, tiny_trace.namespace))
    assert from_bare == from_zeroed
    assert all(r.user_id == 0 for r in from_bare)
    assert all(r.startup_latency == 0.0 for r in from_bare)
    assert all(r.transfer_time == 0.0 for r in from_bare)


def test_present_optional_columns_carry_through(tiny_trace):
    """Carried user/latency/transfer values land on the rendered records."""
    batch = next(tiny_trace.iter_batches(chunk_size=512))
    records = list(records_from_batch(batch, tiny_trace.namespace))
    assert [r.user_id for r in records] == batch.user.tolist()
    assert [r.startup_latency for r in records] == batch.latency.tolist()
    assert [r.transfer_time for r in records] == batch.transfer.tolist()


def test_error_batches_render_error_records(tiny_trace):
    """Error rows keep their kind, and negative ids synthesize paths."""
    namespace = tiny_trace.namespace
    batch = EventBatch.from_columns(
        file_id=[0, -1, 1, -2],
        size=[100, 0, 200, 0],
        time=[10.0, 20.0, 30.0, 40.0],
        is_write=[True, False, False, False],
        error=[
            0,
            int(ErrorKind.NO_SUCH_FILE),
            int(ErrorKind.MEDIA_ERROR),
            int(ErrorKind.NO_SUCH_FILE),
        ],
    )
    records = list(records_from_batch(batch, namespace))
    assert [r.is_error for r in records] == [False, True, True, True]
    assert records[1].error is ErrorKind.NO_SUCH_FILE
    assert records[2].error is ErrorKind.MEDIA_ERROR
    assert records[1].mss_path == namespace.path_of(-1)
    assert records[3].mss_path == namespace.path_of(-2)
    assert records[1].mss_path != records[3].mss_path
    assert records[2].mss_path == namespace.path_of(1)


def test_mss_replay_of_batch_records_smoke(tiny_trace):
    """Batches drive the DES end to end through the adapter."""
    from repro.mss.system import MSSConfig, MSSSystem

    batches = list(tiny_trace.iter_batches(chunk_size=2048))[:2]
    system = MSSSystem(MSSConfig(seed=1))
    records, metrics = system.replay(
        records_from_batches(batches, tiny_trace.namespace)
    )
    assert len(records) == sum(len(b) for b in batches)
    assert any(r.startup_latency > 0 for r in records if not r.is_error)
