"""Query-side result post-processing: snippet generation (SURVEY.md §2.2 M20).

The reference cleans retrieved LaTeX for display
(/root/reference/latex_clean.py:11-159 — repair fences, strip macros,
normalize display math).  Our web-text analog: pick the best window of the
document around query-term hits, highlight matches, normalize whitespace.
Runs as a map over the (tiny) top-k result set — never over the corpus.
"""

from __future__ import annotations

import re

from .analyze import py_lower, tokenize

_WS_RE = re.compile(r"\s+")


def make_snippet(
    text: str, query_text: str, window: int = 30, highlight: bool = True
) -> str:
    """Best `window`-token span by (#distinct query terms, #total hits),
    earliest span wins ties; matches wrapped in **bold**."""
    qterms = set(tokenize(query_text))
    if not text or not qterms:
        return _WS_RE.sub(" ", text or "")[: window * 8].strip()
    # token stream with positions (tokenizer spec = lowercase [a-z0-9]+ runs)
    toks: list[str] = []
    spans: list[tuple[int, int]] = []
    for m in re.finditer(r"[a-z0-9]+", py_lower(text)):
        toks.append(m.group())
        spans.append(m.span())
    if not toks:
        return _WS_RE.sub(" ", text)[: window * 8].strip()
    hits = [t in qterms for t in toks]
    best_start, best_key = 0, (-1, -1)
    for start in range(0, max(1, len(toks) - window + 1)):
        w = toks[start : start + window]
        distinct = len(qterms & set(w))
        total = sum(1 for t in w if t in qterms)
        key = (distinct, total)
        if key > best_key:
            best_key, best_start = key, start
    lo = spans[best_start][0]
    hi = spans[min(best_start + window, len(spans)) - 1][1]
    snippet = text[lo:hi]
    if highlight:
        # bold whole-token matches only (longest terms first so overlapping
        # replacements don't nest)
        for t in sorted(qterms, key=len, reverse=True):
            snippet = re.sub(
                rf"(?<![a-zA-Z0-9])({re.escape(t)})(?![a-zA-Z0-9])",
                r"**\1**",
                snippet,
                flags=re.IGNORECASE,
            )
    out = _WS_RE.sub(" ", snippet).strip()
    if lo > 0:
        out = "… " + out
    if hi < len(text):
        out = out + " …"
    return out


def attach_snippets(results, docs_text: dict[int, str], query_text: str, **kw):
    """[(doc_id, score)] + {doc_id: text} -> [(doc_id, score, snippet)]."""
    return [
        (d, s, make_snippet(docs_text.get(d, ""), query_text, **kw))
        for d, s in results
    ]
