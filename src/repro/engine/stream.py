"""Vectorized transforms over batch streams.

The error strip of Section 5.1 and the eight-hour dedupe of Section 5.3,
applied per batch with numpy instead of per record with Python objects.
:func:`prepare_batch` composes them into the one step that turns a raw
batch into HSM replay input, for batch streams and live serve sessions
alike.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

import numpy as np

from repro.engine.batch import EventBatch
from repro.util.units import HOUR

EIGHT_HOURS = 8 * HOUR


def strip_errors(batches: Iterable[EventBatch]) -> Iterator[EventBatch]:
    """Drop failed references from every batch."""
    for batch in batches:
        yield batch.good()


class BlockDeduper:
    """Streaming, vectorized Section 5.3 dedupe.

    Keeps at most one read and one write per file per calendar-aligned
    ``window`` block.  On a time-ordered stream only the keys kept in the
    newest block can drop a later event, so that block and its sorted
    ``(file, direction)`` keys are all the state carried across batches.
    Matches a per-record walk of the same rule (the tests' oracle)
    event for event on any time-ordered stream.
    """

    def __init__(self, window: float = EIGHT_HOURS) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        #: Newest block seen (None before the first event).
        self._block: Optional[int] = None
        #: Sorted (file, direction) keys kept in ``_block``.
        self._keys = np.empty(0, dtype=np.int64)

    def apply(self, batch: EventBatch) -> EventBatch:
        """The deduped view of one batch (updates carried state)."""
        if not len(batch):
            return batch
        if np.any(batch.file_id < 0):
            raise ValueError("dedupe expects error-free batches (no negative ids)")
        # One integer key per (file, direction); blocks are nondecreasing
        # per key because the stream is time-ordered, so only the first
        # occurrence of each (key, block) pair can survive.  Pairing on
        # blocks relative to the batch's first keeps negative times exact.
        key = batch.file_id * 2 + batch.is_write
        block = (batch.time // self.window).astype(np.int64)
        offset = block - block[0]
        pair = key * (int(offset[-1]) + 1) + offset
        # np.unique(return_index=True) gives the first occurrence of each
        # distinct (key, block) pair -- the only survivable positions.
        _, first_idx = np.unique(pair, return_index=True)
        first_idx.sort()
        cand_key = key[first_idx]
        cand_block = block[first_idx]
        # A candidate in a later block than the carried one is kept; one
        # in the carried block only if that block has not kept its key.
        kept = np.ones(first_idx.size, dtype=bool)
        if int(block[0]) == self._block:
            carried = cand_block == self._block
            probe = cand_key[carried]
            at = np.searchsorted(self._keys, probe)
            kept[carried] = self._keys.take(at, mode="clip") != probe
        last = int(block[-1])
        keys = cand_key[kept & (cand_block == last)]
        if last == self._block:
            keys = np.concatenate([self._keys, keys])
        self._block, self._keys = last, np.sort(keys)
        return batch.select(first_idx[kept])


def dedupe_blocks(
    batches: Iterable[EventBatch], window: float = EIGHT_HOURS
) -> Iterator[EventBatch]:
    """Streamed dedupe over a batch iterable."""
    deduper = BlockDeduper(window)
    for batch in batches:
        yield deduper.apply(batch)


def prepare_batch(
    batch: EventBatch, deduper: Optional[BlockDeduper] = None
) -> EventBatch:
    """One raw batch as HSM replay input (possibly empty).

    Drops failed references, applies the eight-hour dedupe when a
    ``deduper`` carries its state across the stream (migration decisions
    would not see batch-script re-requests, Section 6), and clamps sizes
    to at least one byte.
    """
    batch = batch.good()
    if deduper is not None:
        batch = deduper.apply(batch)
    # Replay reads only the four core columns; dropping the optional
    # ones halves the bytes a prepared stream pins (per seed, per sweep
    # worker).
    return EventBatch(
        file_id=batch.file_id,
        size=np.maximum(batch.size, 1),
        time=batch.time,
        is_write=batch.is_write,
        device=batch.device,
        error=batch.error,
    )


def hsm_batches_from_stream(
    batches: Iterable[EventBatch], deduped: bool = True
) -> Iterator[EventBatch]:
    """The HSM reference stream of any raw batch stream.

    Works for a generated trace's batches, a store's memmapped shards,
    or a composed multi-tenant scenario stream; empty prepared batches
    are skipped.
    """
    deduper = BlockDeduper() if deduped else None
    for batch in batches:
        prepared = prepare_batch(batch, deduper)
        if len(prepared):
            yield prepared


def collect(batches: Iterable[EventBatch]) -> List[EventBatch]:
    """Materialize a batch stream (e.g. before an OPT replay, which needs
    the full future schedule)."""
    return [batch for batch in batches if len(batch)]
