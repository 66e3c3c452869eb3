"""Sequential prefetch across directory siblings.

Section 5.2.1: "a researcher interested in day 1 of a climate model
simulation will usually be interested in day 2, and both days will
probably be in separate files."  Section 7 recommends using spare space
and idle drives to "prefetch files which might be read shortly."  The
prefetcher stages the next file(s) in sequence whenever a read misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple

from repro.namespace.model import Namespace


@dataclass(frozen=True)
class PrefetchConfig:
    """How aggressively to read ahead."""

    depth: int = 2          # siblings staged per triggering miss
    enabled: bool = True


class SequentialPrefetcher:
    """Chooses prefetch candidates from namespace sequence order."""

    def __init__(self, namespace: Namespace, config: PrefetchConfig = PrefetchConfig()) -> None:
        self.namespace = namespace
        self.config = config
        self._outstanding: Set[int] = set()

    def candidates(self, file_id: int) -> List[Tuple[int, int]]:
        """(file_id, size) of the next ``depth`` siblings of a file."""
        if not self.config.enabled:
            return []
        out: List[Tuple[int, int]] = []
        entry = self.namespace.files[file_id]
        for _ in range(self.config.depth):
            sibling = self.namespace.sibling_after(entry)
            if sibling is None:
                break
            out.append((sibling.file_id, sibling.size))
            entry = sibling
        return out

    def note_prefetched(self, file_id: int) -> None:
        """Record that a file was staged speculatively."""
        self._outstanding.add(file_id)

    def consume_hit(self, file_id: int) -> bool:
        """True (once) if this read was satisfied by a prior prefetch."""
        if file_id in self._outstanding:
            self._outstanding.discard(file_id)
            return True
        return False

    def consume_hits(self, file_ids: Iterable[int]) -> int:
        """:meth:`consume_hit` over a run of reads; returns the hits."""
        used = self._outstanding.intersection(file_ids)
        self._outstanding -= used
        return len(used)

    def cancel(self, file_id: int) -> None:
        """The file left the cache before being used."""
        self._outstanding.discard(file_id)
