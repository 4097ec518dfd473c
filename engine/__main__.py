"""CLI entry points (the reference's `python -m ec2.*` analog).

    python -m engine synth  OUT_DIR --docs 10000 --files 8
    python -m engine build  PAGES_DIR INDEX_DIR [--partitions 8] [--docs-table]
    python -m engine query  INDEX_DIR "query terms" [-k 10] [--lang en]
                            [--rerank W] [--snippets]
    python -m engine suggest  INDEX_DIR TERM          # did-you-mean
    python -m engine complete INDEX_DIR PREFIX [-k 8] # autocomplete

Owns its Ray session (guarded init + shutdown) — library code never does.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="engine")
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("synth", help="generate the deterministic corpus")
    ps.add_argument("out_dir")
    ps.add_argument("--docs", type=int, default=10_000)
    ps.add_argument("--files", type=int, default=8)

    pb = sub.add_parser("build", help="build (or resume) an index")
    pb.add_argument("pages_dir")
    pb.add_argument("index_dir")
    pb.add_argument("--partitions", type=int, default=8)
    pb.add_argument(
        "--docs-table", action="store_true",
        help="input is a documents(doc_id, text, lang) table, not pages",
    )

    pq = sub.add_parser("query", help="BM25 top-k search")
    pq.add_argument("index_dir")
    pq.add_argument("query_text")
    pq.add_argument("-k", type=int, default=10)
    pq.add_argument("--lang", default=None)
    pq.add_argument("--rerank", type=float, default=0.0)
    pq.add_argument("--snippets", action="store_true")

    pg = sub.add_parser("suggest", help="did-you-mean for a (misspelled) term")
    pg.add_argument("index_dir")
    pg.add_argument("term")

    pc_ = sub.add_parser("complete", help="autocomplete a query prefix")
    pc_.add_argument("index_dir")
    pc_.add_argument("prefix")
    pc_.add_argument("-k", type=int, default=8)

    args = p.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(
            address="local", include_dashboard=False, logging_level="ERROR",
            ignore_reinit_error=True,
        )
    try:
        if args.cmd == "synth":
            from .synth import write_pages

            files = write_pages(args.out_dir, args.docs, num_files=args.files)
            print(json.dumps({"files": len(files), "docs": args.docs}))
        elif args.cmd == "build":
            from .build import build_index

            metrics = build_index(
                args.pages_dir, args.index_dir,
                num_partitions=args.partitions,
                input_kind="documents" if args.docs_table else "pages",
            )
            print(json.dumps(metrics))
        elif args.cmd == "query":
            from .query import IndexReader

            reader = IndexReader(args.index_dir)
            res = reader.search(
                args.query_text, k=args.k, lang_filter=args.lang,
                prior_weight=args.rerank,
            )
            docs = reader.fetch_docs(
                [d for d, _ in res],
                columns=["doc_id", "url", "text"] if args.snippets else ["doc_id", "url"],
            )
            url_of = dict(zip(docs["doc_id"].to_pylist(), docs["url"].to_pylist()))
            text_of = (
                dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
                if args.snippets
                else {}
            )
            from .snippets import make_snippet

            for rank, (d, s) in enumerate(res, 1):
                line = {"rank": rank, "score": round(s, 6), "doc_id": d,
                        "url": url_of.get(d)}
                if args.snippets:
                    line["snippet"] = make_snippet(text_of.get(d, ""), args.query_text)
                print(json.dumps(line))
        elif args.cmd == "suggest":
            from .query import IndexReader

            got = IndexReader(args.index_dir).suggest(args.term)
            print(json.dumps(
                None if got is None
                else {"suggestion": got[0], "dist": got[1], "df": got[2]}
            ))
        elif args.cmd == "complete":
            from .query import IndexReader

            reader = IndexReader(args.index_dir)
            print(json.dumps(
                [{"term": t, "df": reader.df(t)}
                 for t in reader.complete(args.prefix, k=args.k)]
            ))
    finally:
        if owns_session:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
