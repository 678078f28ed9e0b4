#!/usr/bin/env python
"""Streaming: batched execution with incremental XML emission.

Runs the quickstart transform (Tables 1–3, Table-5 stylesheet) through
``Engine.transform_stream`` and shows the streaming story end to end:

* the rewritten plan's operators exchange row batches (the executor
  every door uses) and the result column is serialized by the
  incremental SQL/XML emitter, so chunks of output text flow out
  while the plan is still running and no result document is ever built
  (``docs_materialized`` stays 0, ``peak_buffered_bytes`` stays tiny);
* chunk concatenation is byte-identical to the materialized transform;
* ``Engine.transform_many`` amortizes one compiled plan over a batch of
  same-shaped documents — each extra document pays only execution.

Run:  python examples/streaming.py
"""

from quickstart import STYLESHEET, build_database, dept_emp_view

from repro import Engine, TransformOptions


def main():
    db = build_database()
    view_query = dept_emp_view(db)
    engine = Engine(db)

    # -- stream: chunks flow while the plan runs ---------------------------
    print("=" * 72)
    print("Streaming transform (batched plan -> incremental emitter)")
    print("=" * 72)
    stream = engine.transform_stream(
        view_query, STYLESHEET,
        options=TransformOptions(chunk_chars=256),
    )
    chunks = []
    for index, chunk in enumerate(stream):
        chunks.append(chunk)
        print("chunk %d: %d chars" % (index, len(chunk)))
    print("strategy            :", stream.strategy)
    print("output rows         :", stream.stats.output_rows)
    print("batches             :", stream.stats.batches)
    print("docs materialized   :", stream.stats.docs_materialized)
    print("peak buffered bytes :", stream.stats.peak_buffered_bytes)

    # -- byte-identical with the materialized path -------------------------
    materialized = engine.transform(view_query, STYLESHEET)
    identical = "".join(chunks) == "".join(materialized.serialized_rows())
    print("byte-identical with materialized transform:", identical)

    # -- transform_many: one compile, N executions -------------------------
    print()
    print("=" * 72)
    print("transform_many over same-shaped databases")
    print("=" * 72)
    batch = []
    for _ in range(5):
        doc_db = build_database()
        batch.append((doc_db, dept_emp_view(doc_db)))
    results = engine.transform_many(batch, STYLESHEET)
    print("documents transformed:", len(results))
    print("strategies           :",
          sorted({result.strategy for result in results}))
    print("all equal            :",
          all(result.serialized_rows() == results[0].serialized_rows()
              for result in results))


if __name__ == "__main__":
    main()
