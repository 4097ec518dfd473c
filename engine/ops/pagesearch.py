"""Pages-path flagship: the FULL web ingest chain under the DuckDB gate.

`bm25_docs_topk` (docsearch.py) exercises the index core but enters via the
`documents` adapter, bypassing HTML extraction, the global keep-latest-by-url
dedup and the query-time metadata filters.  This pipeline runs the whole
pages path — the engine analog of the reference's complete ingest+serve chain
(/root/reference/ec2/parse_arxiv_papers/__main__.py:128-287 ingest,
/root/reference/streamlit_app.py:175-283 filtered search):

1. Deterministically render each `documents` row into an HTML page (entity
   escaping, head/style/script/comment noise, two <p> blocks) whose
   extraction inverts back to the row's text — so a pure-SQL oracle can
   reproduce the corpus exactly.
2. Re-crawl every 50th url with a newer warc_ts and amended body (" v2"),
   split across DIFFERENT input files than the originals — the keep-latest
   dedup must pick the v2 row globally, not per partition.
3. Full pages build (extract -> loser broadcast -> fused tokenize/shard ->
   segment merge), then BM25 top-k PER QUERY WITH lang + warc_ts filters.

The DuckDB oracle reconstructs the winner corpus with a CASE expression and
scores it with the same BM25 formula; results compare on (query_id, rank,
url, score_r6).
"""

from __future__ import annotations

import datetime as dt
import hashlib
import html as _html
import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..analyze import tokenize
from ..build import build_index
from ..query import IndexReader
from .keyed import frame
from ..schema import B, K1, ts_to_us

EPOCH = dt.datetime(2024, 1, 1)
K = 10
NUM_FILES = 4
RECRAWL_MOD = 50
RECRAWL_EXTRA_DAYS = 400

# (query_text, lang_filter, ts_min_day, ts_max_day) — windows chosen so some
# queries cross the re-crawl ts range (>= RECRAWL_EXTRA_DAYS)
PAGE_QUERIES = [
    ("window agg partition", "en", 0, 800),
    ("hash join table", "en", 0, 180),
    ("slow query scan", "de", 90, 500),
    ("customer order line", "fr", 0, 365),
    ("spark data column batch", "es", 180, 800),
]


def _day_ts(days: int) -> dt.datetime:
    return EPOCH + dt.timedelta(days=days)


def _ts_days(doc_id: int, recrawl: bool) -> int:
    base = doc_id % 365
    return base + RECRAWL_EXTRA_DAYS if recrawl else base


def render_html(text: str) -> bytes:
    """Deterministic page around the text; extract_text() inverts it.

    The two <p> halves re-join with '\\n' instead of ' ' after extraction —
    tokenization (and therefore BM25) is unaffected, while the block-tag
    newline handling of the extractor is genuinely exercised.
    """
    words = text.split(" ")
    half = len(words) // 2
    p1 = _html.escape(" ".join(words[:half]))
    p2 = _html.escape(" ".join(words[half:]))
    return (
        "<html><head><title>t</title><style>p{color:red}</style></head>"
        "<body><!-- crawler noise -->"
        f"<p>{p1}</p><script>var x = 1 < 2;</script><p>{p2}</p>"
        "</body></html>"
    ).encode()


def _pages_rows(docs: pa.Table) -> list[dict]:
    rows = []
    for r in docs.select(["doc_id", "text", "lang"]).to_pylist():
        did, text, lang = r["doc_id"], r["text"], r["lang"]
        url = f"http://docs.example/{did}"
        rows.append(
            {
                "url": url,
                "warc_ts": _day_ts(_ts_days(did, False)),
                "html": render_html(text),
                "text": text,
                "lang": lang,
                "_file": did % NUM_FILES,
            }
        )
        if did % RECRAWL_MOD == 0:
            t2 = (text + " v2").strip()  # doc 0 has empty text: strip -> "v2"
            rows.append(
                {
                    "url": url,
                    "warc_ts": _day_ts(_ts_days(did, True)),
                    "html": render_html(t2),
                    "text": t2,
                    "lang": lang,
                    "_file": (did + 1) % NUM_FILES,  # cross-partition recrawl
                }
            )
    return rows


def write_pages_from_documents(sf_dir: str, pages_dir: str) -> None:
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang"]
    )
    rows = _pages_rows(docs)
    os.makedirs(pages_dir, exist_ok=True)
    for k in range(NUM_FILES):
        sub = [r for r in rows if r["_file"] == k]
        tbl = pa.table(
            {
                "url": pa.array([r["url"] for r in sub], pa.string()),
                "warc_ts": pa.array([r["warc_ts"] for r in sub], pa.timestamp("us")),
                "html": pa.array([r["html"] for r in sub], pa.binary()),
                "text": pa.array([r["text"] for r in sub], pa.string()),
                "lang": pa.array([r["lang"] for r in sub], pa.string()),
            }
        )
        pq.write_table(tbl, os.path.join(pages_dir, f"pages-{k:05d}.parquet"))


_reader_cache: dict[str, IndexReader] = {}


def _index_for(sf_dir: str) -> IndexReader:
    key = os.path.abspath(sf_dir)
    if key in _reader_cache:
        return _reader_cache[key]
    src = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.blake2b(
        f"pages:{key}:{os.path.getsize(src)}".encode(), digest_size=8
    ).hexdigest()
    root = os.path.join(tempfile.gettempdir(), f"rayft_pageidx_{tag}")
    pages_dir = os.path.join(root, "pages")
    done = os.path.join(pages_dir, ".complete")
    if not os.path.exists(done):
        write_pages_from_documents(sf_dir, pages_dir)
        with open(done, "w") as f:
            f.write("ok")
    build_index(pages_dir, os.path.join(root, "index"), num_partitions=4)
    reader = IndexReader(os.path.join(root, "index"))
    _reader_cache[key] = reader
    return reader


def pages_bm25_topk(sf_dir: str, k: int = K) -> pd.DataFrame:
    """Filtered BM25 top-k over the synthesized pages -> (query_id, rank,
    url, score_r6).  Retrieves 2k by exact score then re-ranks by
    (round(score, 6) DESC, url ASC) so the boundary matches the oracle's
    rounded ordering."""
    reader = _index_for(sf_dir)
    out = []
    for qid, (qtext, lang, d_lo, d_hi) in enumerate(PAGE_QUERIES):
        res = reader.search(
            qtext, k=2 * k, lang_filter=lang,
            ts_min=ts_to_us(_day_ts(d_lo)), ts_max=ts_to_us(_day_ts(d_hi)),
        )
        ids = [d for d, _ in res]
        urls = reader.fetch_docs(ids, columns=["doc_id", "url"])
        url_of = dict(zip(urls["doc_id"].to_pylist(), urls["url"].to_pylist()))
        rows = [(url_of[d], round(s, 6)) for d, s in res]
        rows.sort(key=lambda t: (-t[1], t[0]))
        for rank, (url, s) in enumerate(rows[:k], 1):
            out.append((qid, rank, url, s))
    return frame(out, _HIT_DTYPES)


_HIT_DTYPES = {"query_id": "int64", "rank": "int64", "url": "object",
               "score_r6": "float64"}

URL_PATTERN = "7"  # ILIKE '%7%' over http://docs.example/<id>


def pages_bm25_urlfilter(sf_dir: str, k: int = K) -> pd.DataFrame:
    """BM25 top-k with a url ILIKE-substring filter (the reference's
    title/id ILIKE family, streamlit_app.py:175-243) — same synthesized
    pages index, filterable on any docmeta column."""
    reader = _index_for(sf_dir)
    out = []
    for qid, (qtext, _lang, _lo, _hi) in enumerate(PAGE_QUERIES):
        res = reader.search(qtext, k=2 * k, url_contains=URL_PATTERN)
        ids = [d for d, _ in res]
        urls = reader.fetch_docs(ids, columns=["doc_id", "url"])
        url_of = dict(zip(urls["doc_id"].to_pylist(), urls["url"].to_pylist()))
        rows = [(url_of[d], round(s, 6)) for d, s in res]
        rows.sort(key=lambda t: (-t[1], t[0]))
        for rank, (url, s) in enumerate(rows[:k], 1):
            out.append((qid, rank, url, s))
    return frame(out, _HIT_DTYPES)


def _pages_bm25_sql() -> str:
    qterms, qmeta = [], []
    for qid, (qtext, lang, d_lo, d_hi) in enumerate(PAGE_QUERIES):
        for term in sorted(set(tokenize(qtext))):
            qterms.append(f"({qid}, '{term}')")
        qmeta.append(
            f"({qid}, '{lang}', TIMESTAMP '{_day_ts(d_lo):%Y-%m-%d %H:%M:%S}', "
            f"TIMESTAMP '{_day_ts(d_hi):%Y-%m-%d %H:%M:%S}')"
        )
    return f"""
WITH winners AS (
  SELECT doc_id,
         'http://docs.example/' || CAST(doc_id AS VARCHAR) AS url,
         CASE WHEN doc_id % {RECRAWL_MOD} = 0
              THEN trim(text || ' v2') ELSE text END AS wtext,
         lang,
         TIMESTAMP '2024-01-01' + to_days(CAST(
           doc_id % 365 + CASE WHEN doc_id % {RECRAWL_MOD} = 0
                               THEN {RECRAWL_EXTRA_DAYS} ELSE 0 END AS INT)) AS ts
  FROM documents
),
qterms(query_id, term) AS (VALUES {", ".join(qterms)}),
qmeta(query_id, lang, ts_min, ts_max) AS (VALUES {", ".join(qmeta)}),
tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(wtext), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM winners
),
tf AS (SELECT doc_id, tk, count(*) AS tf FROM tok GROUP BY doc_id, tk),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM winners) AS n,
         (SELECT sum(dl) FROM dl) * 1.0 / (SELECT count(*) FROM winners) AS avgdl
),
df AS (SELECT tk, count(*) AS df FROM tf GROUP BY tk),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1)
           * tf.tf * ({K1} + 1.0)
           / (tf.tf + {K1} * ((1.0 - {B}) + ({B} * dl.dl) / s.avgdl)) AS c
  FROM qterms q
  JOIN tf ON tf.tk = q.term
  JOIN df ON df.tk = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
),
scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY query_id, doc_id),
filt AS (
  SELECT s.query_id, w.url, round(s.score, 6) AS score_r6
  FROM scores s
  JOIN winners w ON w.doc_id = s.doc_id
  JOIN qmeta m ON m.query_id = s.query_id
  WHERE w.lang = m.lang AND w.ts BETWEEN m.ts_min AND m.ts_max
),
ranked AS (
  SELECT query_id, url, score_r6,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score_r6 DESC, url) AS rank
  FROM filt
)
SELECT query_id, rank, url, score_r6 FROM ranked WHERE rank <= {K}
"""


PAGES_BM25_SQL = _pages_bm25_sql()


def _pages_urlfilter_sql() -> str:
    """Same winner corpus + scoring, filter = url ILIKE '%{URL_PATTERN}%'."""
    base = _pages_bm25_sql()
    old = "WHERE w.lang = m.lang AND w.ts BETWEEN m.ts_min AND m.ts_max"
    assert old in base
    return base.replace(old, f"WHERE w.url ILIKE '%{URL_PATTERN}%'")


PAGES_URLFILTER_SQL = _pages_urlfilter_sql()
