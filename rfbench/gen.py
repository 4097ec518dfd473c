"""Seeded workload generator: pages Parquet, a recrawl batch and queries.

Self-contained on purpose: it imports nothing from the engine, so a change
to the engine's own synthetic corpus can never silently change the
benchmark's workload.  Everything is a pure function of the seed.

Corpus model:
- a ~10k-word vocabulary of pronounceable lowercase words; token ranks are
  drawn from a Zipf(alpha=1.1) law, and the seed permutes which words are the
  head of the distribution;
- document lengths are log-normal (median ~150 tokens);
- each page's HTML is built so that the engine's extraction spec (strip
  comments, script/style/head, block tags become newlines, unescape
  entities, strip lines) inverts it to the known ``text`` exactly;
- urls live on mixed-case hosts so that ``url_contains`` filters are
  case-insensitive in a way that matters.
"""

from __future__ import annotations

import html as _html
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB_SIZE = 10_000
ZIPF_ALPHA = 1.1
N_HOSTS = 40
EPOCH_US = 1_700_000_000_000_000
STEP_US = 41_000_000
RECRAWL_DELAY_US = 90 * 86_400_000_000
CATEGORIES = ["news", "blog", "docs", "shop", "forum", "wiki", "misc"]
# (lang, share of docs)
LANGS = [("en", 0.9), ("de", 0.06), ("fr", 0.04)]
# query shapes (which ranks, which positions) come from this fixed seed; the
# run's seed reaches the queries through the corpus and its rank -> word map,
# so every seed sees statistically the same query mix
QUERY_SEED = 20_251_017
# ranks a boolean phrase starts at, outside the head (a phrase of two head
# words has most of the corpus as candidates).  Words of the rare band are in
# at most ~45 docs, so the engine verifies their phrase in one round (its
# first verify pool is 50 docs); a quarter of the boolean queries start
# their phrase in the frequent band, whose 100-500 candidate docs may need a
# second, larger round.
PHRASE_RANKS_RARE = (1000, 2500)
PHRASE_RANKS_FREQUENT = (100, 400)
# tokens with entity / non-ASCII content: they exercise unescaping and the
# tokenizer's split rules
ODD_TOKENS = ["a&b", "x<y", "café", "naïve", "q>r", "r&d"]

_ONSETS = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "z", "br", "st", "tr", "pl"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ou"]

PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)


def _vocab() -> list[str]:
    """VOCAB_SIZE unique words of two or three onset+vowel syllables."""
    syl = [o + v for o in _ONSETS for v in _VOWELS]  # 140 syllables
    words: list[str] = []
    seen: set[str] = set()
    i = 0
    while len(words) < VOCAB_SIZE:
        a, rem = divmod(i, len(syl) * len(syl))
        b, c = divmod(rem, len(syl))
        w = syl[b] + syl[c] + (syl[a - 1] if a else "")
        if w not in seen:
            seen.add(w)
            words.append(w)
        i += 1
    return words


VOCAB = _vocab()


class Corpus:
    """The seeded pages of one run, plus what the checks need to know."""

    def __init__(self, seed: int, n_docs: int):
        self.seed = seed
        self.n_docs = n_docs
        rng = np.random.default_rng([seed, 1])
        # seed-dependent rank -> word map: which words are head terms
        self.words = np.asarray(VOCAB, dtype=object)[rng.permutation(VOCAB_SIZE)]
        p = 1.0 / np.power(np.arange(1, VOCAB_SIZE + 1, dtype=np.float64), ZIPF_ALPHA)
        self._cum = np.cumsum(p / p.sum())
        self.df = np.zeros(VOCAB_SIZE, dtype=np.int64)  # per rank, base corpus
        self._follow: dict[int, int] | None = None
        self.pages = self._pages(rng, np.arange(n_docs), EPOCH_US, count_df=True)

    # -- documents ---------------------------------------------------------
    def _doc_ranks(self, rng: np.random.Generator) -> np.ndarray:
        n = int(np.clip(np.round(rng.lognormal(5.0, 0.55)), 12, 1500))
        return np.searchsorted(self._cum, rng.random(n), side="right")

    def url(self, i: int) -> str:
        host = f"Site{i % N_HOSTS}.Example"
        cat = CATEGORIES[(i // N_HOSTS) % len(CATEGORIES)]
        return f"https://{host}/{cat}/p{self.seed % 1000:03d}-{i:07d}"

    def _pages(self, rng, ids, ts0: int, *, count_df: bool) -> pa.Table:
        urls, ts, htmls, texts, langs = [], [], [], [], []
        lang_names = [l for l, _ in LANGS]
        lang_p = np.asarray([s for _, s in LANGS])
        for j, i in enumerate(ids):
            ranks = self._doc_ranks(rng)
            if count_df:
                self.df[np.unique(ranks)] += 1
            toks = list(self.words[ranks])
            if rng.random() < 0.02:
                toks[int(rng.integers(len(toks)))] = ODD_TOKENS[
                    int(rng.integers(len(ODD_TOKENS)))
                ]
            text, html = _render(rng, toks)
            urls.append(self.url(int(i)))
            ts.append(ts0 + int(i) * STEP_US + int(rng.integers(0, STEP_US // 2)))
            htmls.append(html)
            texts.append(text)
            langs.append(lang_names[int(np.searchsorted(np.cumsum(lang_p), rng.random()))])
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(ts, pa.timestamp("us")),
                "html": pa.array(htmls, pa.binary()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
            },
            schema=PAGES_SCHEMA,
        )

    def recrawl_batch(self, share: float, n_new: int) -> pa.Table:
        """A later crawl: ``share`` of the base urls with new text and a newer
        warc_ts, plus ``n_new`` urls the base corpus never had."""
        rng = np.random.default_rng([self.seed, 2])
        n_re = int(round(share * self.n_docs))
        re_ids = np.sort(rng.choice(self.n_docs, size=n_re, replace=False))
        new_ids = np.arange(self.n_docs, self.n_docs + n_new)
        return self._pages(
            rng, np.concatenate([re_ids, new_ids]), EPOCH_US + RECRAWL_DELAY_US,
            count_df=False,
        )

    def delete_sample(self, share: float) -> list[str]:
        rng = np.random.default_rng([self.seed, 3])
        n = max(1, int(round(share * self.n_docs)))
        return [self.url(int(i)) for i in np.sort(rng.choice(self.n_docs, n, replace=False))]

    # -- queries -------------------------------------------------------------
    def present_words(self) -> np.ndarray:
        """Vocabulary words that occur in the base corpus."""
        return self.words[self.df > 0]

    def ts_window(self, rng) -> tuple[int, int]:
        lo = EPOCH_US + int(rng.integers(0, self.n_docs // 2)) * STEP_US
        return lo, lo + int(rng.integers(self.n_docs // 8, self.n_docs // 2)) * STEP_US

    def cold_queries(self, n: int, stream: int) -> list[dict]:
        """Ranked queries of 2-4 words drawn uniformly from the corpus
        vocabulary, k=10; a fixed share carries a lang or ts filter."""
        rng = np.random.default_rng([QUERY_SEED, 10, stream])
        words = self.present_words()
        out = []
        for _ in range(n):
            terms = words[rng.choice(words.size, int(rng.integers(2, 5)), replace=False)]
            q = {"query_text": " ".join(terms), "k": 10}
            u = rng.random()
            if u < 0.10:
                q["lang_filter"] = "en"
            elif u < 0.20:
                q["ts_min"], q["ts_max"] = self.ts_window(rng)
            out.append(q)
        return out

    def _follower(self) -> dict[int, int]:
        """Word rank -> the lowest rank that follows it somewhere on a line
        of the base corpus (both plain vocabulary words); built once."""
        if self._follow is None:
            rank = {w: r for r, w in enumerate(self.words)}
            follow: dict[int, int] = {}
            for doc in self.pages["text"].to_pylist():
                for line in doc.split("\n"):
                    toks = line.split(" ")
                    for a, b in zip(toks, toks[1:]):
                        ra, rb = rank.get(a), rank.get(b)
                        if ra is not None and rb is not None and rb < follow.get(ra, VOCAB_SIZE):
                            follow[ra] = rb
            self._follow = follow
        return self._follow

    def bool_queries(self, n: int, stream: int) -> list[dict]:
        """+must / -not / "phrase" queries, one in four without a phrase.

        A phrase is a word of a PHRASE_RANKS_* band followed by the most
        frequent word that follows it in the corpus, so it always matches,
        and the ranks come from the fixed query seed: a phrase's verify pool
        (the docs holding both words) is set by those ranks, not by which
        pages a seed happens to draw, and every seed sees the same spread of
        phrase costs.  The median lies among the one-round phrases and the
        p95 among the two-round ones, each away from the edge between them.
        Should / must-not terms come from ranks 1-399, the
        must term beside a phrase from the 20 most frequent, so that few
        queries end early on an empty must-set: the cheap share stays well
        below half and the median is not on the edge between the cheap and
        the verified queries."""
        rng = np.random.default_rng([QUERY_SEED, 11, stream])
        words = self.present_words()
        follow = self._follower()
        bands = [[r for r in range(lo, hi) if r in follow]
                 for lo, hi in (PHRASE_RANKS_FREQUENT, PHRASE_RANKS_RARE)]
        out = []
        for j in range(n):
            kind = j % 4
            # rank 0 is nearly every phrase's second word: never excluded
            a, b, c = words[1 + rng.choice(min(words.size, 400) - 1, 3, replace=False)]
            if kind == 2:
                b = self.words[int(rng.integers(20))]
            if kind == 0:
                text = f"+{a} {b} -{c}"
            else:
                # a quarter of all queries, every phrase kind among them
                starts = bands[0] if j % 16 in (1, 6, 11, 15) else bands[1]
                r = starts[int(rng.integers(len(starts)))]
                phrase = f'"{self.words[r]} {self.words[follow[r]]}"'
                text = f"+{b} {phrase} -{c}" if kind == 2 else f"{phrase} {a}"
            out.append({"query_text": text, "k": 10})
        return out

    def conformance_queries(self, n: int = 73) -> list[dict]:
        """The fixed 73-query set: a head term, mid terms, sometimes a rare
        term and an out-of-vocabulary word; k in {1, 5, 10, 20}; lang, ts and
        doclen-prior variants on fixed residues."""
        rng = np.random.default_rng([QUERY_SEED, 12])
        head = self.words[:20]
        mid = self.words[100:1000]
        rare = self.present_words()[-2000:]
        out = []
        for q in range(n):
            terms = [head[int(rng.integers(20))]]
            nterms = int(rng.integers(2, 6))
            while len(terms) < nterms - 1:
                terms.append(mid[int(rng.integers(mid.size))])
            if q % 3 == 0:
                terms.append(rare[int(rng.integers(rare.size))])
            if q % 11 == 0:
                terms.append(f"zzoov{q}")
            d = {"query_text": " ".join(terms[:5]), "k": [1, 5, 10, 20][q % 4]}
            if q % 5 == 0:
                d["lang_filter"] = "en"
            if q % 7 == 0:
                d["ts_min"], d["ts_max"] = EPOCH_US, EPOCH_US + (self.n_docs // 5) * STEP_US
            if q % 13 == 0:
                d["prior_weight"] = 0.25
            out.append(d)
        return out

    def url_queries(self, n: int) -> list[dict]:
        """Ranked queries with a case-insensitive ``url_contains`` filter."""
        rng = np.random.default_rng([QUERY_SEED, 13])
        pats = ["site1", "SITE2", "/news/", "/Wiki/", "example/shop", "-0001"]
        words = self.words[:300]
        return [
            {
                "query_text": " ".join(words[rng.choice(300, 2, replace=False)]),
                "k": 10,
                "url_contains": pats[i % len(pats)],
            }
            for i in range(n)
        ]


def _render(rng: np.random.Generator, toks: list[str]) -> tuple[str, bytes]:
    """(text, html) for one page: a title line and 30-60-token paragraphs;
    the HTML adds head/style/script/comment noise, inline tags, nested divs
    and entities that the extraction spec strips or unescapes."""
    tl = int(rng.integers(3, 9))
    lines = [" ".join(toks[:tl])]
    rest = toks[tl:]
    pos = 0
    while pos < len(rest):
        n = int(rng.integers(30, 61))
        line = rest[pos : pos + n]
        if line:
            line[0] = line[0].capitalize()
            lines.append(" ".join(line))
        pos += n
    text = "\n".join(lines)
    esc_title = _html.escape(lines[0], quote=False)
    parts = [
        "<html><head><title>", esc_title,
        "</title><style>p { margin: 0 }</style></head><body>",
        f"<h1>{esc_title}</h1>",
    ]
    for j, line in enumerate(lines[1:]):
        words = line.split(" ")
        bold = int(rng.integers(0, len(words)))
        words = [
            f"<b>{_html.escape(w, quote=False)}</b>" if k == bold
            else _html.escape(w, quote=False)
            for k, w in enumerate(words)
        ]
        body = " ".join(words)
        parts.append(f"<!-- block {j} -->")
        if j % 3 == 0:
            parts.append(f'<div class="s"><p>{body}</p></div>')
        else:
            parts.append(f"<p>{body}</p>")
        if j == 0:
            parts.append("<script>if (a < b && c) { x(); }</script>")
    parts.append("</body></html>")
    return text, "".join(parts).encode("utf-8")


def write_pages(table: pa.Table, out_dir: str, num_files: int, prefix: str) -> list[str]:
    """Split ``table`` into ``num_files`` Parquet files under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, num_files + 1).astype(int)
    paths = []
    for f in range(num_files):
        path = os.path.join(out_dir, f"{prefix}-{f:03d}.parquet")
        pq.write_table(table.slice(bounds[f], bounds[f + 1] - bounds[f]), path)
        paths.append(path)
    return paths
