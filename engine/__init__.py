"""Ray-Data-native full-text index + query engine.

A brand-new engine with the query/data-processing capabilities of
uw-math-ai/TheoremSearch (see SURVEY.md), realized as an inverted-index build +
BM25 top-k query engine over Parquet tables of Common-Crawl-style web pages,
built on ray.data.Dataset pipelines (map_batches over zero-copy Arrow, actor
pools for stateful stages, a filesystem exchange partitioned by term bucket for
the merge, one docno-sorted posting chunk per term).

Never calls ray.init()/ray.shutdown() — the session is owned by the caller
(driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"


def _stub_fsspec_http() -> None:
    """Make Ray Data's fsspec-HTTP probe import thread-deterministic.

    ray.data's path resolution probes `from fsspec.implementations.http
    import HTTPFileSystem` on EVERY dataset execution, guarded by `except
    ModuleNotFoundError`.  In this sandbox that module's body fails (no
    aiohttp), so the failed import is retried each time — and when two
    Dataset executions run in parallel threads (build_sharded's concurrent
    shard builds) the import-machinery race surfaces the failure in the
    second thread as a bare ImportError ("cannot import name ..."), which
    Ray's guard does NOT catch, killing that dataset.  Caching a stub module
    whose HTTPFileSystem can never match an isinstance check makes the probe
    succeed deterministically (and still answer "not HTTP") in every thread.
    No-op when the real module imports (aiohttp present).
    """
    try:
        import fsspec.implementations.http  # noqa: F401
    except ModuleNotFoundError:
        import sys
        import types

        mod = types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # pragma: no cover - never instantiated
            def __init__(self, *a, **kw):
                raise ModuleNotFoundError("aiohttp is not installed")

        mod.HTTPFileSystem = HTTPFileSystem
        sys.modules["fsspec.implementations.http"] = mod
    except ImportError:
        pass  # partially-imported module from a concurrent attempt; leave it


_stub_fsspec_http()
