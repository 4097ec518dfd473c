"""Span tracer that measures the engine's layers from outside.

It changes no engine code.  ``install`` wraps, for the lifetime of a traced
run, the module-level names the query layer calls through:

- ``engine.query.pads`` (pyarrow.dataset): every dataset the reader opens
  afterwards is a proxy whose scans record a ``read`` span with the bytes the
  process read meanwhile (``rchar`` of /proc/self/io, read-only);
- ``engine.codec.*_decode``: ``decode`` spans with the postings decoded;
- ``engine.query.tokenize``: ``parse`` spans;

and ``watch_reader`` wraps one reader's docno->id mapping, docmeta load,
doc-store fetch, scoring steps (term gather, filter mask, dispatch, rerank),
bucket table and chunk loads (the last two with a cache-hit flag).  Spans
(id, name, start, end, parent, attributes) stay in memory and are written
out once at the end.  Self time = a span's duration minus the time its
children cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


def _rchar() -> int:
    try:
        with open("/proc/self/io", "rb") as f:
            for line in f:
                if line.startswith(b"rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, t0, t1, parent, attrs)
        self._stack: list[int] = []
        self.active = False
        self._undo: list = []

    # -- recording -----------------------------------------------------------
    def call(self, name, fn, args, kwargs, io=False, attrs_of=None):
        if not self.active:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        r0 = _rchar() if io else 0
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            attrs = {}
            if io:
                attrs["bytes"] = _rchar() - r0
            self.spans[sid] = (sid, name, t0, t1, parent, attrs)
        if attrs_of is not None:
            attrs.update(attrs_of(args, kwargs, out))
        return out

    def span(self, name, fn, *args, **kwargs):
        return self.call(name, fn, args, kwargs)

    def wrap(self, name, fn, io=False, attrs_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, io, attrs_of)

        return wrapper

    # -- patching -------------------------------------------------------------
    def _patch(self, obj, attr, new):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        """Wrap the engine's module-level call targets (see module doc)."""
        import engine.codec as codec
        import engine.query as query

        self._patch(query, "pads", _DatasetModule(query.pads, self))
        self._patch(query, "tokenize", self.wrap("parse", query.tokenize))
        for name in dir(codec):
            if name.endswith("_decode") and callable(getattr(codec, name)):
                self._patch(codec, name, self.wrap(
                    "decode", getattr(codec, name),
                    attrs_of=lambda a, k, out: {"n": int(getattr(out, "size", 0))},
                ))

    def watch_reader(self, reader) -> None:
        """Wrap one IndexReader's docno->id, docmeta load, doc-store fetch,
        its scoring steps (term gather and weights, filter mask, dispatch,
        rerank; all ``score`` spans) and its two caches (instance
        attributes, so only this reader is affected).  A cache span's
        ``hit`` is 1 when the key was cached."""
        for attr, name in (
            ("_docnos_to_ids", "docno_to_id"),
            ("_load_docmeta", "docmeta_load"),
            ("fetch_docs", "docstore_read"),
            ("_gather_chunks", "score"),
            ("_filter_mask", "score"),
            ("_dispatch", "score"),
            ("_rerank", "score"),
        ):
            setattr(reader, attr, self.wrap(name, getattr(reader, attr)))
        for attr, name, cache in (
            ("_load_chunks", "chunk_load", reader._chunk_cache),
            ("_bucket_rows", "bucket_read", reader._bucket_tables),
        ):
            setattr(reader, attr, self._wrap_cached(name, getattr(reader, attr), cache))

    def _wrap_cached(self, name, fn, cache):
        @functools.wraps(fn)
        def wrapper(key):
            hit = key in cache
            return self.call(name, fn, (key,), {},
                             attrs_of=lambda a, k, out: {"hit": int(hit)})

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    # -- analysis ---------------------------------------------------------------
    def mark(self) -> int:
        return len(self.spans)

    def summary(self, start: int, end: int, root: str) -> dict:
        """Per-layer totals over the spans recorded in [start, end), for the
        trees under spans named ``root``: per name the count, total and self
        seconds and the sum of each numeric span attribute."""
        spans = self.spans[start:end]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        by_id = {s[0]: s for s in spans}
        out: dict = defaultdict(lambda: defaultdict(float))
        for s in spans:
            top = s
            while top[4] >= 0 and top[4] in by_id:
                top = by_id[top[4]]
            if top[1] != root:
                continue
            d = out[s[1]]
            d["count"] += 1
            d["total_s"] += s[3] - s[2]
            d["self_s"] += (s[3] - s[2]) - child_time[s[0]]
            for key, val in s[5].items():
                d[key] += val
        return {k: dict(v) for k, v in out.items()}

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                if s is not None:
                    f.write(json.dumps(
                        {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                         "parent": s[4], **s[5]}
                    ) + "\n")


class _DatasetModule:
    """Stand-in for the ``pyarrow.dataset`` module whose ``dataset()``
    returns traced datasets; every other attribute is the real one."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def dataset(self, *args, **kwargs):
        return _TracedDataset(self._real.dataset(*args, **kwargs), self._tracer)

    def __getattr__(self, name):
        return getattr(self._real, name)


class _TracedDataset:
    _SCANS = ("to_table", "head", "take", "count_rows")  # the eager scans

    def __init__(self, ds, tracer: Tracer):
        self._ds = ds
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._ds, name)
        if name in self._SCANS:
            return self._tracer.wrap("read", attr, io=True)
        return attr
