"""The two workloads, their correctness checks and their metrics.

Both workloads run the same three client operations against indexes built
by the code under test, from one closed-loop client thread:

- ranked ``IndexReader.search``;
- ``IndexReader.search_boolean`` with +must / -not / "phrase" operators;
- ``QueryPool(num_actors=1).search_many`` of the 73-query conformance batch.

They differ in the index and in the working set:

- ``cold_query`` builds a base corpus and tombstones 1% of its urls with
  ``delete_docs`` (its traced run also builds a recrawl batch and combines
  it with the base index by ``merge_indexes``).  It then opens a fresh
  reader and draws every query's terms uniformly from the ~10k-word
  vocabulary, so most terms miss the reader's caches and each query reads
  and decodes postings.
- ``warm_mix`` builds one index and repeats a fixed set (the conformance
  queries with their lang/ts/prior filters, ``url_contains`` queries and a
  fixed boolean set) after one untimed warming pass, so almost nothing is
  read and the time goes to filters, scoring, rerank and the RPC.

The timed loop's answers are checked after the loop: every ranked and every
second boolean answer against the oracle (cold_query), or every answer
against the oracle-checked answer of the warming pass (warm_mix); every
pooled batch is checked against the oracle's answers.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import threading
import time
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import gen
import spans

N_DOCS = 3000
N_FILES = 8
RECRAWL_SHARE = 0.3
RECRAWL_NEW = 300
DELETE_SHARE = 0.01
CONFORMANCE_N = 73
STAGE_TIMEOUT_S = 90  # any one stage: a build, the merge, the timed loop
KNOWN_DEFECTS = {
    # reported by name in the run record, outside the failed count
    "probe_datetime_ts": "IndexReader.search raises on datetime ts_min/ts_max",
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the probe readings that latency and set-up figures are scaled to (the
# medians of probe_ms() and of a scan_probe() on the box the bounds were set
# on)
REF_PROBE_MS = 1.7
REF_SCAN_PROBE_MS = 5.6
SETUP_PROBE_EVERY_S = 0.25


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class StageTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(name: str, seconds: float):
    """Raise StageTimeout in the main thread if the block runs too long."""

    def _fire(_sig, _frm):
        raise StageTimeout(f"{name} exceeded {seconds}s")

    old = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def nproc() -> int:
    """The processing units the ``nproc`` command reports (it honours
    OMP_NUM_THREADS, which is how a CPU share is often declared)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def _dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, fs in os.walk(root) for f in fs
    )


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


_PROBE_DATA = np.random.default_rng(7).random(20_000)


def probe_ms() -> float:
    """Short fixed engine-independent CPU probe (best of 3, ~1.7 ms each on
    the reference box): a pure-Python loop and a numpy sort."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        np.sort(_PROBE_DATA)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def scan_probe(probe_dir: str):
    """A fixed engine-independent Parquet scan probe: writes a 40k-row file
    under ``probe_dir`` and returns a function that times a filtered scan of
    it (best of 2, ms; ~5.6 ms on the reference box)."""
    rng = np.random.default_rng(3)
    n = 40_000
    tbl = pa.table({"k": rng.integers(0, 128, n), "v": rng.random(n),
                    "s": pa.array([f"w{i % 997}" for i in range(n)])})
    os.makedirs(probe_dir)
    pq.write_table(tbl, os.path.join(probe_dir, "probe.parquet"), row_group_size=5000)

    def probe() -> float:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            got = pads.dataset(probe_dir).to_table(filter=pc.field("k") == 7,
                                                   columns=["v", "s"])
            pc.sum(got["v"])
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    return probe


class ProbeSampler:
    """Takes a probe_ms() reading every SETUP_PROBE_EVERY_S seconds in a
    thread while the block runs (set-up mostly waits on Ray workers)."""

    def __init__(self):
        self.readings: list[float] = [probe_ms()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SETUP_PROBE_EVERY_S):
            self.readings.append(probe_ms())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.readings.append(probe_ms())


class Ops:
    """Attempted / failed / wrong counts per operation type."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed_n: Counter = Counter()
        self.wrong: Counter = Counter()
        self.errors: list[str] = []
        self.known: dict[str, str] = {}

    def ok(self, kind: str) -> None:
        self.attempted[kind] += 1

    def failed(self, kind: str, err) -> None:
        if kind in KNOWN_DEFECTS:
            self.known[kind] = f"{type(err).__name__}: {err}"
            return
        self.attempted[kind] += 1
        self.failed_n[kind] += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {type(err).__name__}: {err}")

    def check(self, kind: str, got, want, what) -> None:
        """Compare a result; a mismatch is a wrong answer."""
        if got != want:
            self.wrong[kind] += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: wrong answer for {what!r}")


def query_kind(q: dict) -> str:
    for key, kind in (
        ("url_contains", "search_url"), ("prior_weight", "search_prior"),
        ("lang_filter", "search_lang"), ("ts_min", "search_ts"),
    ):
        if key in q:
            return kind
    return "search"


class Expected:
    """Oracle answers for the index the workload built: the oracle's full
    ranking, minus tombstoned docs, filtered by url substring, reranked."""

    def __init__(self, pages: pa.Table, deleted_urls: list[str]):
        from engine.oracle import OracleIndex
        from engine.schema import doc_id_of_url

        self.oracle = OracleIndex(pages)
        self.dead = {doc_id_of_url(u) for u in deleted_urls}

    def _keep(self, ranked, url_contains):
        docs = self.oracle.docs
        key = url_contains.lower() if url_contains is not None else None
        return [
            (d, s) for d, s in ranked
            if d not in self.dead and (key is None or key in docs[d].url.lower())
        ]

    def search(self, q: dict) -> list:
        k = q.get("k", 10)
        ranked = self._keep(
            self.oracle.search(
                q["query_text"], k=1 << 30, lang_filter=q.get("lang_filter"),
                ts_min=q.get("ts_min"), ts_max=q.get("ts_max"),
            ),
            q.get("url_contains"),
        )
        w = q.get("prior_weight", 0.0)
        if w > 0.0:
            pool = [
                (d, s + w * float(np.log1p(self.oracle.docs[d].doclen)))
                for d, s in ranked[: max(50, 10 * k)]
            ]
            pool.sort(key=lambda kv: (-kv[1], kv[0]))
            ranked = pool
        return ranked[:k]

    def search_boolean(self, q: dict) -> list:
        ranked = self.oracle.search_boolean(q["query_text"], k=1 << 30)
        return self._keep(ranked, None)[: q.get("k", 10)]


def oracle_answer(expect: Expected, op: str, q: dict):
    return expect.search(q) if op == "search" else expect.search_boolean(q)


def _call(fn, q: dict):
    kw = dict(q)
    text = kw.pop("query_text")
    return fn(text, **kw)


class Workload:
    name = ""
    # the timed loop runs at least MIN_BLOCKS blocks and at least --seconds;
    # a block is RANKED ranked queries, BOOL boolean queries and POOL pooled
    # batches (subclasses set the sizes)
    MIN_BLOCKS, POOL = 20, 10
    # the timed loop's probe and its reference reading (see e2e_metrics)
    REF_MS = REF_PROBE_MS
    # every second boolean query is checked against the oracle, whose
    # boolean search re-tokenizes every candidate doc
    BOOL_VERIFY_EVERY = 2

    def __init__(self, seed, seconds, trace, run_dir, ray_tmp):
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.ray_tmp = ray_tmp
        self.ops = Ops()
        self.stage = "init"
        self.pool = None
        self.ray_started = False
        self.tracer = spans.Tracer() if trace else None
        # per op type, (block, seconds) samples; per (op type, block), the
        # sub-block's wall seconds and the mean of the probes around it
        self.lat: dict[str, list[tuple[int, float]]] = {
            "search": [], "bool": [], "pool": []
        }
        self.sub_wall: dict[tuple[str, int], float] = {}
        self.sub_probe: dict[tuple[str, int], float] = {}
        self.done: list[tuple[str, dict, list]] = []  # (op, query, answer)
        self.layers: dict = {}
        self.info: dict = {"workload": self.name, "seed": seed, "trace": int(trace),
                           "stage_s": {}}
        self._stage_t0 = time.perf_counter()

    def enter(self, stage: str) -> None:
        """Start a named stage; the run record keeps each stage's seconds."""
        now = time.perf_counter()
        self.info["stage_s"][self.stage] = now - self._stage_t0
        self.stage, self._stage_t0 = stage, now

    # -- set-up pieces -----------------------------------------------------------
    def _start_ray(self) -> None:
        import ray
        import ray.data

        ray.init(
            address="local", num_cpus=nproc(),
            include_dashboard=False, logging_level="ERROR", log_to_driver=False,
            object_store_memory=256 * 1024 * 1024, _temp_dir=self.ray_tmp,
        )
        self.ray_started = True
        ray.data.DataContext.get_current().enable_progress_bars = False
        # fail here, not inside a build, if workers cannot import the engine
        probe = ray.remote(num_cpus=0)(lambda: __import__("engine").__file__)
        self.info["worker_engine"] = ray.get(probe.remote(), timeout=60)

    def _build(self, src: list[str], out: str) -> tuple[dict, float]:
        from engine.build import build_index

        t0 = time.perf_counter()
        with deadline("build_index", STAGE_TIMEOUT_S):
            m = build_index(src, out)
        wall = time.perf_counter() - t0
        self.info.setdefault("builds", []).append(
            {"docs": m["n_docs"], "wall_s": wall, **m["phase_seconds"]})
        return m, wall

    def _open(self, index_dir: str):
        from engine.query import IndexReader

        if self.tracer:
            self.tracer.install()
            self.tracer.active = True
        t0 = time.perf_counter()
        reader = IndexReader(index_dir)
        self.layers["query.reader_open_ms"] = (time.perf_counter() - t0) * 1e3
        if self.tracer:
            self.tracer.watch_reader(reader)
        return reader

    def _open_pool(self, index_dir: str) -> None:
        from engine.serve import QueryPool

        with deadline("QueryPool", STAGE_TIMEOUT_S):
            self.pool = QueryPool(index_dir, num_actors=1)
            self.pool.search_many([{"query_text": "warmup", "k": 1}])

    # -- checks outside the timed loop ------------------------------------------------
    def probes(self, reader, expect: Expected) -> None:
        """API edge cases, each counted as an operation of its own name."""
        c = self.corpus
        lo, hi = c.ts_window(np.random.default_rng([self.seed, 20]))
        epoch = datetime.datetime(1970, 1, 1)
        head = " ".join(c.words[:3])
        k_big = 100_000
        # the rarest word that still has a live doc (the rarest ones may
        # have lost their only doc to the tombstones)
        rare = next(
            str(w) for w in c.present_words()[::-1]
            if 0 < len(expect.search({"query_text": str(w), "k": k_big})) < k_big
        )
        cases = [
            ("probe_empty", {"query_text": "", "k": 10}, None),
            ("probe_oov", {"query_text": "zzqxoov zzqyoov", "k": 10}, None),
            ("probe_k_gt_matches", {"query_text": rare, "k": k_big}, None),
            ("probe_datetime_ts", {"query_text": head, "k": 10}, (lo, hi)),
        ]
        for kind, q, window in cases:
            want_q, call_q = dict(q), dict(q)
            if window is not None:
                want_q["ts_min"], want_q["ts_max"] = window
                call_q["ts_min"] = epoch + datetime.timedelta(microseconds=window[0])
                call_q["ts_max"] = epoch + datetime.timedelta(microseconds=window[1])
            want = expect.search(want_q)
            try:
                got = _call(reader.search, call_q)
            except Exception as e:
                self.ops.failed(kind, e)
                continue
            self.ops.ok(kind)
            self.ops.check(kind, got, want, q["query_text"])
            if kind in KNOWN_DEFECTS:
                self.ops.known[kind] = "passed" if got == want else "wrong answer"

    def check_extraction(self, reader, pages: pa.Table) -> None:
        """The doc store's text is byte-identical to the generated text of
        the winning (latest) crawl, on a sample of urls."""
        from engine.schema import doc_id_of_url

        # later rows are later crawls: the dict keeps each url's last text
        latest = dict(zip(pages["url"].to_pylist(), pages["text"].to_pylist()))
        urls = sorted(latest)
        rng = np.random.default_rng([self.seed, 21])
        sample = [urls[i] for i in rng.choice(len(urls), 25, replace=False)]
        try:
            tbl = reader.fetch_docs([doc_id_of_url(u) for u in sample],
                                    columns=["doc_id", "url", "text"])
        except Exception as e:
            self.ops.failed("extract", e)
            return
        got = dict(zip(tbl["url"].to_pylist(), tbl["text"].to_pylist()))
        for u in sample:
            self.ops.ok("extract")
            self.ops.check("extract", got.get(u), latest[u], u)

    def verify(self, expect: Expected) -> None:
        """Check the timed loop's answers: every ranked one and every
        BOOL_VERIFY_EVERY-th boolean one."""
        seen: Counter = Counter()
        for op, q, got in self.done:
            kind = query_kind(q) if op == "search" else op
            seen[kind] += 1
            if kind == "search_boolean" and seen[kind] % self.BOOL_VERIFY_EVERY:
                continue
            seen["checked"] += 1
            self.ops.check(kind, got, oracle_answer(expect, op, q), q["query_text"])
        self.info["checked_answers"] = seen["checked"]

    # -- the timed loop -------------------------------------------------------------
    def _op(self, kind: str, fn, q: dict, block: int, series: str):
        try:
            t0 = time.perf_counter()
            if self.tracer:
                out = self.tracer.span("search", _call, fn, q)
            else:
                out = _call(fn, q)
            dt = time.perf_counter() - t0
        except StageTimeout:
            raise
        except Exception as e:
            self.ops.failed(kind, e)
            return
        self.ops.ok(kind)
        self.lat[series].append((block, dt))
        self.done.append((fn.__name__, q, out))

    def timed_loop(self, reader, ranked=True, bools=True, pool=True) -> None:
        """Blocks of ranked, boolean and pooled sub-blocks, with a probe
        reading between every two sub-blocks."""
        # a traced run needs per-layer shares, not tail samples: half the
        # blocks, and no stretching to --seconds
        min_blocks = self.MIN_BLOCKS // 2 if self.tracer else self.MIN_BLOCKS
        t_end = time.perf_counter() + (0 if self.tracer else self.seconds)
        subs = [(name, make, run) for name, on, make, run in (
            ("search", ranked, self.ranked_block, self._ranked_sub),
            ("bool", bools, self.bool_block, self._bool_sub),
            ("pool", pool, lambda block: self.conformance, self._pool_sub),
        ) if on]
        block = 0
        before = self.probe()
        while block < min_blocks or time.perf_counter() < t_end:
            for name, make, run in subs:
                qs = make(block)
                t0 = time.perf_counter()
                run(reader, block, qs)
                self.sub_wall[name, block] = time.perf_counter() - t0
                after = self.probe()
                self.sub_probe[name, block] = (before + after) / 2
                before = after
            block += 1
        self.info["blocks"] = block

    def probe(self) -> float:
        return probe_ms()

    def _ranked_sub(self, reader, block: int, qs: list[dict]) -> None:
        for q in qs:
            self._op(query_kind(q), reader.search, q, block, "search")

    def _bool_sub(self, reader, block: int, qs: list[dict]) -> None:
        for q in qs:
            self._op("search_boolean", reader.search_boolean, q, block, "bool")

    def _pool_sub(self, reader, block: int, batch: list[dict]) -> None:
        for _ in range(self.POOL):
            try:
                t0 = time.perf_counter()
                got = self.pool.search_many(batch)
                dt = time.perf_counter() - t0
            except StageTimeout:
                raise
            except Exception as e:
                self.ops.failed("pool_batch", e)
                continue
            self.ops.ok("pool_batch")
            self.lat["pool"].append((block, dt))
            self.ops.check("pool_batch", got, self.conformance_answers, "batch")

    def direct_batch_ms(self, reader) -> float:
        """Median time of the conformance batch run on the reader, query by
        query: the pooled batch minus this is the serving overhead."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for q in self.conformance:
                _call(reader.search, q)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    # -- metrics ----------------------------------------------------------------------
    def scaled_ms(self, series: str) -> list[float]:
        """The series' latencies in ms, each scaled by REF_MS over the probe
        reading around its sub-block."""
        return [dt * 1e3 * self.REF_MS / self.sub_probe[series, blk]
                for blk, dt in self.lat[series]]

    def e2e_metrics(self) -> dict:
        """Every time is scaled to the reference box speed: the box's speed
        drifts by up to ~1.6x over seconds and by ~25% between runs minutes
        apart.  Each latency is multiplied by REF_MS over the workload's
        probe reading around its sub-block (a few hundred ms), set-up time
        by REF_PROBE_MS over the median probe_ms() reading taken during
        set-up.  Unscaled figures stay in the record."""
        s, b, p = (self.scaled_ms(x) for x in ("search", "bool", "pool"))
        ranked = [blk for series, blk in self.sub_wall if series == "search"]
        n_ranked = Counter(blk for blk, _ in self.lat["search"])
        scaled_wall = sum(self.sub_wall["search", blk] * self.REF_MS
                          / self.sub_probe["search", blk] for blk in ranked)
        return {
            "setup_s": self.setup_s * REF_PROBE_MS / statistics.median(self.setup_probe),
            "query_p50_ms": _pct(s, 50),
            "query_p99_ms": _pct(s, 99),
            "query_qps": sum(n_ranked.values()) / scaled_wall,
            "bool_p50_ms": _pct(b, 50),
            "bool_p95_ms": _pct(b, 95),
            "pool_batch_p50_ms": _pct(p, 50),
            "pool_batch_p95_ms": _pct(p, 95),
            "index_bytes_per_input_byte": self.index_bytes / self.input_bytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def raw_metrics(self) -> dict:
        """The unscaled latencies and set-up time, for the run record."""
        s, b, p = ([dt * 1e3 for _, dt in self.lat[x]] for x in ("search", "bool", "pool"))
        return {
            "setup_s": self.setup_s,
            "query_p50_ms": _pct(s, 50), "query_p99_ms": _pct(s, 99),
            "bool_p50_ms": _pct(b, 50), "bool_p95_ms": _pct(b, 95),
            "pool_batch_p50_ms": _pct(p, 50), "pool_batch_p95_ms": _pct(p, 95),
        }

    def layer_metrics(self, reader, marks) -> dict:
        tr = self.tracer
        tr.active = False
        L = dict(self.layers)
        bm, wall = self.build_metrics, self.build_s
        ph = bm["phase_seconds"]
        L["build.docs_per_s"] = bm["n_docs"] / wall
        L["build.wall_s"] = wall
        for p in ("losers", "extract_tokenize", "stats", "segments"):
            L[f"build.{p}_s"] = ph.get(f"t_{p}", 0.0)
        L["build.phase_sum_ratio"] = sum(ph.values()) / wall
        for key in ("partials", "segments", "docstore", "docmeta"):
            L[f"build.bytes_{key}"] = bm.get(f"bytes_{key}", 0)
        L.update(_probe_layers(self.corpus.pages.slice(0, 200)))
        # ranked queries of the timed loop
        st = tr.summary(marks[0], marks[1], "search")
        n = len(self.lat["search"])
        rd, dc = st.get("read", {}), st.get("decode", {})

        def ms(name):
            return st.get(name, {}).get("self_s", 0.0) * 1e3 / n

        L["query.reads_per_query"] = rd.get("count", 0) / n
        L["query.bytes_read_per_query"] = rd.get("bytes", 0) / n
        # bucket_read / chunk_load self time is the reader's own work around
        # the scans and decodes (the bucket's term dict, impact compute)
        L["query.read_ms_per_query"] = ms("read") + ms("bucket_read")
        L["query.decode_calls_per_query"] = dc.get("count", 0) / n
        L["query.postings_decoded_per_query"] = dc.get("n", 0) / n
        L["query.decode_ms_per_query"] = ms("decode") + ms("chunk_load")
        for cache, span in (("chunk", "chunk_load"), ("bucket", "bucket_read")):
            c = st.get(span, {})
            L[f"query.{cache}_cache_hit_rate"] = c.get("hit", 0) / max(1, c.get("count", 0))
        L["query.parse_ms_per_query"] = ms("parse")
        L["query.docno_to_id_ms_per_query"] = ms("docno_to_id") + ms("docmeta_load")
        # term gather and weights, filter mask, dispatch and rerank, minus
        # their children (the chunk loads under the gather)
        L["query.score_self_ms_per_query"] = ms("score")
        L["query.search_ms_per_query"] = st["search"]["total_s"] * 1e3 / n
        # what no named layer covers: the search span's own time (the
        # reader's glue code and the tracer's bookkeeping)
        L["query.unattributed_ms_per_query"] = ms("search")
        layer_sum = sum(
            L[f"query.{x}_ms_per_query"]
            for x in ("parse", "read", "decode", "docno_to_id", "score_self")
        )
        L["query.layer_sum_ratio"] = layer_sum / L["query.search_ms_per_query"]
        sb = tr.summary(marks[1], marks[2], "search")
        nb = len(self.lat["bool"])
        L["query.docstore_read_ms_per_bool"] = (
            sb.get("docstore_read", {}).get("total_s", 0.0) * 1e3 / nb
        )
        L["query.reads_per_bool"] = sb.get("read", {}).get("count", 0) / nb
        L["query.docmeta_load_ms"] = max(
            ((s[3] - s[2]) * 1e3 for s in tr.spans
             if s is not None and s[1] == "docmeta_load"),
            default=0.0,
        )
        L["query.chunk_cache_terms"] = len(reader._chunk_cache)
        pool_p50 = _pct([dt for _, dt in self.lat["pool"]], 50) * 1e3
        L["serve.rpc_overhead_ms_per_batch"] = pool_p50 - self.direct_batch_ms(reader)
        L["trace.overhead_ratio"] = self.overhead_ratio(reader)
        return L

    def result(self, metrics: dict) -> dict:
        ops = self.ops
        wrong = sum(ops.wrong.values())
        self.info["ops"] = {
            k: {"attempted": ops.attempted[k], "failed": ops.failed_n[k],
                "wrong": ops.wrong[k]}
            for k in sorted(ops.attempted)
        }
        self.info["known_defects"] = ops.known
        self.info["errors"] = ops.errors
        units = declared_units("per_layer" if self.tracer else "end_to_end")
        if metrics and set(metrics) != set(units):
            raise AssertionError(f"metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(metrics) ^ set(units))}")
        return {
            "correct": wrong == 0 and bool(metrics),
            "attempted": max(1, sum(ops.attempted.values())),
            "failed": sum(ops.failed_n.values()) + wrong,
            "metrics": {
                k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()
            },
        }

    # -- the run ----------------------------------------------------------------------
    def run(self) -> dict:
        self.info["box"] = {
            "cpus": nproc(),
            "cpus_online": os.cpu_count(),
            "python": platform.python_version(),
            "pyarrow": pa.__version__,
            "ray": __import__("ray").__version__,
        }
        t0 = time.perf_counter()
        with ProbeSampler() as sampler:
            reader, pages, deleted = self.setup()
        self.setup_s = time.perf_counter() - t0
        self.setup_probe = sampler.readings
        self.info["setup_s"] = self.setup_s
        self.info["cache_capacity"] = {
            "chunk_cache": reader._chunk_cache.cap,
            "bucket_tables": reader._bucket_tables.cap,
        }
        self.enter("oracle")
        expect = Expected(pages, deleted)
        self.enter("checks")
        self.probes(reader, expect)
        self.check_extraction(reader, pages)
        self.enter("warm")
        self.prepare(reader, expect)
        self.enter("timed")
        with deadline("timed loop", STAGE_TIMEOUT_S):
            if self.tracer:
                # ranked ops and pooled batches first, then the boolean ops,
                # so each op's spans can be summed on their own
                marks = [self.tracer.mark()]
                self.timed_loop(reader, bools=False)
                marks.append(self.tracer.mark())
                self.timed_loop(reader, ranked=False, pool=False)
                marks.append(self.tracer.mark())
            else:
                self.timed_loop(reader)
        self.enter("verify")
        self.verify(expect)
        self.enter("metrics")
        if self.tracer:
            metrics = self.layer_metrics(reader, marks)
            trace_dir = os.path.join(os.path.dirname(self.run_dir), "traces")
            os.makedirs(trace_dir, exist_ok=True)
            self.tracer.dump(os.path.join(trace_dir, f"{self.name}-seed{self.seed}.jsonl"))
        else:
            metrics = self.e2e_metrics()
            self.info["unscaled"] = self.raw_metrics()
        self.enter("done")
        probes = list(self.sub_probe.values())
        self.info["box"]["probe_ms"] = {
            "setup_ref": REF_PROBE_MS,
            "setup_median": statistics.median(self.setup_probe),
            "timed_ref": self.REF_MS,
            "timed_median": statistics.median(probes),
            "timed_min": min(probes), "timed_max": max(probes),
        }
        self.info["samples"] = {k: len(v) for k, v in self.lat.items()}
        self.info["latency_ms"] = {
            k: [[b, round(dt * 1e3, 4)] for b, dt in v] for k, v in self.lat.items()
        }
        self.info["sub_probe_ms"] = {k: {} for k in self.lat}
        for (k, blk), p in self.sub_probe.items():
            self.info["sub_probe_ms"][k][blk] = round(p, 4)
        return self.result(metrics)

    def teardown(self) -> None:
        if self.tracer:
            self.tracer.active = False
            self.tracer.uninstall()
        if self.pool is not None:
            with contextlib.suppress(Exception):
                self.pool.shutdown()
        if self.ray_started:
            import ray

            with contextlib.suppress(Exception):
                ray.shutdown()


def _probe_layers(pages: pa.Table) -> dict:
    """Untimed in-process throughput probes of extract, analyze and codec on
    a fixed sample (best of 3 each)."""
    from engine import codec
    from engine.analyze import tokenize
    from engine.extract import extract_text

    htmls = pages["html"].to_pylist()
    texts = pages["text"].to_pylist()
    rng = np.random.default_rng(5)
    lists = [np.cumsum(rng.integers(1, 60, n)).astype(np.uint64)
             for n in rng.integers(10, 5000, 200)]

    def best(fn) -> float:
        ts = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
        return min(ts)

    n_tokens = sum(len(tokenize(t)) for t in texts)
    return {
        "extract.docs_per_s": len(htmls) / best(lambda: [extract_text(h) for h in htmls]),
        "analyze.tokens_per_s": n_tokens / best(lambda: [tokenize(t) for t in texts]),
        "codec.encode_mb_per_s": sum(a.nbytes for a in lists) / 1e6
        / best(lambda: [codec.delta_encode(a) for a in lists]),
    }


class ColdQuery(Workload):
    name = "cold_query"
    # short sub-blocks, so that a probe reading stays close to the speed
    # the sub-block saw: 1000 ranked, 200 boolean, 200 pooled per run
    MIN_BLOCKS, RANKED, BOOL, POOL = 40, 25, 5, 5
    # its queries spend most of their time in Parquet scans, which slow down
    # more than pure compute when the box does: a scan is its probe
    REF_MS = REF_SCAN_PROBE_MS

    def probe(self) -> float:
        return self._scan()

    def setup(self):
        from engine.build import delete_docs

        self.enter("generate")
        self._scan = scan_probe(os.path.join(self.run_dir, "probe"))
        c = self.corpus = gen.Corpus(self.seed, N_DOCS)
        files = gen.write_pages(c.pages, os.path.join(self.run_dir, "base"),
                                N_FILES, "base")
        self.enter("ray")
        self._start_ray()
        self.enter("build")
        self.index_dir = os.path.join(self.run_dir, "idx")
        self.build_metrics, self.build_s = self._build(files, self.index_dir)
        self.index_bytes = _dir_bytes(self.index_dir)
        self.input_bytes = sum(os.path.getsize(f) for f in files)
        if self.tracer:
            self.ingest()
        self.enter("delete")
        deleted = c.delete_sample(DELETE_SHARE)
        delete_docs(self.index_dir, urls=deleted)
        self.enter("open")
        reader = self._open(self.index_dir)
        self._open_pool(self.index_dir)
        self.info["sizes"] = {
            "base_docs": N_DOCS, "index_docs": self.build_metrics["n_docs"],
            "deleted_urls": len(deleted),
            "vocab_present": int(c.present_words().size),
            "ranked_per_block": self.RANKED, "bool_per_block": self.BOOL,
            "pool_batches_per_block": self.POOL, "batch_queries": CONFORMANCE_N,
        }
        return reader, c.pages, deleted

    def ingest(self) -> None:
        """The rest of the write path (traced runs only, for the merge
        layer): a recrawl batch is built on its own and combined with the
        base index by ``merge_indexes``; a sample of queries on the merged
        index is checked against an oracle over both crawls."""
        from engine.merge import merge_indexes
        from engine.query import IndexReader

        self.enter("ingest_build")
        c = self.corpus
        batch = c.recrawl_batch(RECRAWL_SHARE, RECRAWL_NEW)
        batch_files = gen.write_pages(batch, os.path.join(self.run_dir, "batch"),
                                      2, "batch")
        batch_idx = os.path.join(self.run_dir, "idx_batch")
        merged = os.path.join(self.run_dir, "idx_merged")
        self._build(batch_files, batch_idx)
        self.enter("ingest_merge")
        t0 = time.perf_counter()
        with deadline("merge_indexes", STAGE_TIMEOUT_S):
            mm = merge_indexes([self.index_dir, batch_idx], merged)
        self._merge_layers(mm, time.perf_counter() - t0)
        self.info["merge"] = {"wall_s": self.layers["merge.wall_s"],
                              "docs": mm["n_docs"], **mm.get("phase_seconds", {})}
        self.enter("ingest_check")
        expect = Expected(pa.concat_tables([c.pages, batch]), [])
        reader = IndexReader(merged)
        for q in c.cold_queries(40, stream=1 << 21):
            try:
                got = _call(reader.search, q)
            except Exception as e:
                self.ops.failed("merged_search", e)
                continue
            self.ops.ok("merged_search")
            self.ops.check("merged_search", got, expect.search(q), q["query_text"])

    def _merge_layers(self, mm: dict, merge_s: float) -> None:
        ph = mm.get("phase_seconds", {})
        self.layers["merge.wall_s"] = merge_s
        self.layers["merge.docs_per_s"] = mm["n_docs"] / merge_s
        # what the merge does before its finishing build: source validation,
        # the cross-source survivor pass and the partition grafts
        self.layers["merge.prep_s"] = merge_s - sum(ph.values())
        for p in ("losers", "extract_tokenize", "stats", "segments"):
            self.layers[f"merge.{p}_s"] = ph.get(f"t_{p}", 0.0)
        self.layers["merge.bytes_segments"] = mm.get("bytes_segments", 0)
        self.layers["merge.recrawl_losers"] = mm.get("cross_dup_docs", 0)

    def prepare(self, reader, expect) -> None:
        """The pooled batch is the conformance set: its oracle answers."""
        self.conformance = self.corpus.conformance_queries(CONFORMANCE_N)
        self.conformance_answers = [expect.search(q) for q in self.conformance]

    def ranked_block(self, block: int) -> list[dict]:
        return self.corpus.cold_queries(self.RANKED, stream=block)

    def bool_block(self, block: int) -> list[dict]:
        return self.corpus.bool_queries(self.BOOL, stream=block)

    def overhead_ratio(self, reader) -> float:
        """Traced over untraced time of the same cold queries, each side on
        a fresh reader of its own."""
        from engine.query import IndexReader

        qs = self.corpus.cold_queries(100, stream=1 << 20)
        times = []
        for active in (False, True):
            r = IndexReader(self.index_dir)
            self.tracer.watch_reader(r)
            self.tracer.active = active
            t0 = time.perf_counter()
            for q in qs:
                self.tracer.span("search", _call, r.search, q)
            times.append(time.perf_counter() - t0)
        self.tracer.active = False
        return times[1] / times[0]


class WarmMix(Workload):
    name = "warm_mix"
    N_URL = 12
    N_BOOL = 320  # distinct boolean queries; each block runs BOOL of them
    # its ops are short and the box's drift is not: more blocks
    MIN_BLOCKS, BOOL = 32, 10

    def setup(self):
        self.enter("generate")
        c = self.corpus = gen.Corpus(self.seed, N_DOCS)
        files = gen.write_pages(c.pages, os.path.join(self.run_dir, "base"),
                                N_FILES, "base")
        self.enter("ray")
        self._start_ray()
        self.enter("build")
        idx = os.path.join(self.run_dir, "idx")
        self.build_metrics, self.build_s = self._build(files, idx)
        for key in ("wall_s", "docs_per_s", "prep_s", "losers_s",
                    "extract_tokenize_s", "stats_s", "segments_s",
                    "bytes_segments", "recrawl_losers"):
            self.layers["merge." + key] = 0.0  # this workload does not merge
        self.index_bytes = _dir_bytes(idx)
        self.input_bytes = sum(os.path.getsize(f) for f in files)
        self.enter("open")
        reader = self._open(idx)
        self._open_pool(idx)
        self.conformance = c.conformance_queries(CONFORMANCE_N)
        self.ranked_set = self.conformance + c.url_queries(self.N_URL)
        self.bool_set = c.bool_queries(self.N_BOOL, stream=0)
        self.info["sizes"] = {
            "base_docs": N_DOCS, "index_docs": self.build_metrics["n_docs"],
            "vocab_present": int(c.present_words().size),
            "ranked_per_block": len(self.ranked_set), "bool_per_block": self.BOOL,
            "pool_batches_per_block": self.POOL, "batch_queries": CONFORMANCE_N,
        }
        return reader, c.pages, []

    def prepare(self, reader, expect) -> None:
        """One untimed pass over the whole set, every ranked answer and every
        BOOL_VERIFY_EVERY-th boolean one checked against the oracle; the
        timed loop must then repeat these answers exactly."""
        self.answers = {}
        for op, fn, qs in (("search", reader.search, self.ranked_set),
                           ("search_boolean", reader.search_boolean, self.bool_set)):
            for i, q in enumerate(qs):
                kind = query_kind(q) if op == "search" else op
                try:
                    got = _call(fn, q)
                except Exception as e:
                    self.ops.failed(kind, e)
                    continue
                self.ops.ok(kind)
                if op == "search" or i % self.BOOL_VERIFY_EVERY == 0:
                    self.ops.check(kind, got, oracle_answer(expect, op, q), q["query_text"])
                self.answers[repr(q)] = got
        self.conformance_answers = [expect.search(q) for q in self.conformance]

    def verify(self, expect: Expected) -> None:
        """Every timed answer must repeat the warming pass's answer."""
        for op, q, got in self.done:
            kind = query_kind(q) if op == "search" else op
            self.ops.check(kind, got, self.answers.get(repr(q)), q["query_text"])
        self.info["checked_answers"] = len(self.done)

    def ranked_block(self, block: int) -> list[dict]:
        return self.ranked_set

    def bool_block(self, block: int) -> list[dict]:
        i = block * self.BOOL % self.N_BOOL
        return self.bool_set[i : i + self.BOOL]

    def overhead_ratio(self, reader) -> float:
        """Traced over untraced time of the same warm queries, interleaved."""
        times: dict[bool, list[float]] = {False: [], True: []}
        for _ in range(5):
            for active in (False, True):
                self.tracer.active = active
                t0 = time.perf_counter()
                for q in self.ranked_set:
                    self.tracer.span("search", _call, reader.search, q)
                times[active].append(time.perf_counter() - t0)
        self.tracer.active = False
        return statistics.median(times[True]) / statistics.median(times[False])


WORKLOADS = {"cold_query": ColdQuery, "warm_mix": WarmMix}
