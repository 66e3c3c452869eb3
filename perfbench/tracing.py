"""In-memory span recorder that times calls into the program's layers.

The benchmark never edits the program.  A traced run instead replaces a
layer's public function (or method) with a wrapper that records one span
per call -- name, start, end and the span that was open when it was
called -- and restores the original when the run ends.  Spans stay in
memory and are written out once, after the run.

A span's *self time* is its duration minus the time its child spans
cover; summing self time per span name gives each layer's share of the
traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

#: A span name, or a function of the wrapped call's (args, kwargs) that
#: returns one (e.g. one name per policy).
SpanName = Union[str, Callable[[tuple, dict], str]]


class Tracer:
    """Span recorder for single-threaded traced runs."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict]:
        """Record one span around the ``with`` body."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    # ------------------------------------------------------------------
    # Wrapping public calls

    def _timed(self, func: Callable, name: SpanName,
               on_result: Optional[Callable[[dict, tuple, dict, Any], None]]) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as record:
                result = func(*args, **kwargs)
            # Counting work (event totals, bytes on disk) happens after
            # the span closes, so it never inflates the layer's time.
            if on_result is not None:
                on_result(record, args, kwargs, result)
            return result

        return wrapper

    def _timed_generator(self, func: Callable, name: str) -> Callable:
        """Wrap a generator function: one span per ``next`` call.

        A generator returns before doing any work, so timing the call
        itself would time nothing.  Each span covers one step of the
        generator, nested in whatever span consumes it.  Events in (the
        first argument's batches) and out are counted on the spans.
        """

        @functools.wraps(func)
        def wrapper(batches, *args, **kwargs):
            counts = {"in": 0}

            def counted(source):
                for batch in source:
                    counts["in"] += len(batch)
                    yield batch

            iterator = iter(func(counted(batches), *args, **kwargs))
            while True:
                with self.span(name) as record:
                    before = counts["in"]
                    try:
                        item = next(iterator)
                    except StopIteration:
                        record["attrs"].update(events_in=counts["in"] - before, events_out=0)
                        return
                    record["attrs"].update(
                        events_in=counts["in"] - before, events_out=len(item)
                    )
                yield item

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets: Iterable[Tuple]) -> Iterator[None]:
        """Install span wrappers for ``targets``; restore them on exit.

        Each target is ``(owner, attribute, name)`` with optional fourth
        ``on_result(span, args, kwargs, result)`` hook, or
        ``(owner, attribute, name, "generator")`` for generator functions.
        ``owner`` is a module or a class; classmethods and staticmethods
        keep their kind.
        """
        saved = []
        try:
            for target in targets:
                owner, attr, name = target[:3]
                extra = target[3] if len(target) > 3 else None
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                func = raw.__func__ if kind is not None else raw
                if extra == "generator":
                    wrapped = self._timed_generator(func, name)
                else:
                    wrapped = self._timed(func, name, extra)
                setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Analysis

    def _children(self) -> Dict[Optional[int], List[dict]]:
        children: Dict[Optional[int], List[dict]] = defaultdict(list)
        for record in self.spans:
            children[record["parent"]].append(record)
        return children

    @staticmethod
    def duration_s(record: dict) -> float:
        return (record["end_ns"] - record["start_ns"]) / 1e9

    def self_seconds(self) -> Dict[int, float]:
        """Self time of every span: duration minus its children's."""
        children = self._children()
        return {
            record["id"]: self.duration_s(record)
            - sum(self.duration_s(child) for child in children[record["id"]])
            for record in self.spans
        }

    def by_name(self) -> Dict[str, dict]:
        """Per span name: calls, self seconds and inclusive seconds.

        Inclusive time counts only the outermost span of a name, so a
        name nested in itself is not counted twice.
        """
        own = self.self_seconds()
        names = {record["id"]: record["name"] for record in self.spans}
        table: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for record in self.spans:
            row = table[record["name"]]
            row["calls"] += 1
            row["self_s"] += own[record["id"]]
            ancestor = record["parent"]
            nested = False
            while ancestor is not None:
                if names[ancestor] == record["name"]:
                    nested = True
                    break
                ancestor = self.spans[ancestor]["parent"]
            if not nested:
                row["total_s"] += self.duration_s(record)
        return dict(table)

    def roots(self) -> List[dict]:
        return [record for record in self.spans if record["parent"] is None]

    def leaf_coverage(self) -> float:
        """Share of the root spans' wall time that child spans cover."""
        own = self.self_seconds()
        wall = sum(self.duration_s(root) for root in self.roots())
        uncovered = sum(own[root["id"]] for root in self.roots())
        return (wall - uncovered) / wall if wall > 0 else 0.0

    def attr_sum(self, name: str, key: str) -> float:
        return sum(
            record["attrs"].get(key, 0)
            for record in self.spans
            if record["name"] == name
        )

    def dump(self, path) -> None:
        """Write every span as JSON (called once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)
