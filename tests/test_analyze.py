"""Tokenizer spec parity: the vectorized Arrow path must equal the Python
reference tokenizer on every corpus document (SURVEY.md §7.4 determinism)."""

from collections import Counter

import numpy as np
import pyarrow as pa

from engine import synth
from engine.analyze import Tokenizer, tokenize, tokenize_counts_arrow


def test_tokenize_spec():
    assert tokenize("Hello, World! 42x") == ["hello", "world", "42x"]
    assert tokenize("") == []
    assert tokenize("café naïve a&b x<y em—dash") == [
        "caf", "na", "ve", "a", "b", "x", "y", "em", "dash",
    ]


def test_arrow_matches_python_on_corpus():
    pages = synth.gen_pages_table(300)
    texts = pages["text"]
    doc_idx, terms, tfs, doclens = tokenize_counts_arrow(texts)
    terms_py = terms.to_pylist()
    got = {}
    for i in range(len(doc_idx)):
        got.setdefault(int(doc_idx[i]), {})[terms_py[i]] = int(tfs[i])
    for d, text in enumerate(texts.to_pylist()):
        toks = tokenize(text)
        assert doclens[d] == len(toks)
        assert got.get(d, {}) == dict(Counter(toks)), f"doc {d}"


def test_tokenizer_stage():
    pages = synth.gen_pages_table(20)
    from engine.extract import dedup_latest_in_batch, extract_batch

    ext = dedup_latest_in_batch(extract_batch(pages))
    out = Tokenizer()(ext)
    assert out.column_names == ["term", "doc_id", "tf", "doclen"]
    # every posting's doc exists and doclen is consistent per doc
    by_doc = {}
    for r in out.to_pylist():
        by_doc.setdefault(r["doc_id"], set()).add(r["doclen"])
    assert all(len(v) == 1 for v in by_doc.values())
    # sum of tf per doc == doclen
    sums = {}
    for r in out.to_pylist():
        sums[r["doc_id"]] = sums.get(r["doc_id"], 0) + r["tf"]
    for d, s in sums.items():
        assert s == by_doc[d].pop()


def test_empty_and_null_texts():
    doc_idx, terms, tfs, doclens = tokenize_counts_arrow(pa.array(["", "a b a", ""]))
    assert doclens.tolist() == [0, 3, 0]
    assert len(terms) == 2
    assert int(tfs[np.where(terms.to_numpy(zero_copy_only=False) == "a")[0][0]]) == 2


def test_python_matches_arrow_on_every_code_point():
    """Each code point c between two letters ("a" + c + "b") tokenizes the
    same in Python and in Arrow.  Python's str.lower turns U+0130 'İ' into
    "i" + U+0307 (two tokens), Arrow and DuckDB into "i" (one token)."""
    assert tokenize("İstanbul") == ["istanbul"]
    cps = [c for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
    for lo in range(0, len(cps), 1 << 16):
        texts = [f"a{chr(c)}b" for c in cps[lo : lo + (1 << 16)]]
        doc_idx, terms, tfs, doclens = tokenize_counts_arrow(pa.array(texts))
        got = set(zip(doc_idx.tolist(), terms.to_pylist(), tfs.tolist()))
        want = {
            (d, t, n)
            for d, text in enumerate(texts)
            for t, n in Counter(tokenize(text)).items()
        }
        bad = {f"U+{ord(texts[d][1]):04X}" for d, _, _ in got ^ want}
        assert not bad, sorted(bad)[:20]
        assert doclens.tolist() == [len(tokenize(t)) for t in texts]
