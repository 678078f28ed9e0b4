"""Streaming-vs-materialized equivalence over the whole xsltmark corpus.

The acceptance bar for the streaming executor: for every case, chunk
concatenation is byte-identical to the materialized transform, and on
the SQL strategy no result document is ever built.
"""

import pytest

from repro.api import Engine, TransformOptions
from repro.core import STRATEGY_SQL
from repro.xsltmark import ALL_CASES, get_case
from repro.xsltmark.runner import prepare_case

SIZE = 40


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_stream_matches_materialized(case):
    prepared = prepare_case(case, SIZE)
    engine = Engine(prepared.db)
    materialized = engine.transform(prepared.storage, prepared.stylesheet)
    stream = engine.transform_stream(prepared.storage, prepared.stylesheet)
    text = stream.text()
    assert text == "".join(materialized.serialized_rows()), case.name
    assert stream.strategy == materialized.strategy, case.name
    if stream.strategy == STRATEGY_SQL:
        assert stream.stats.docs_materialized == 0, case.name


#: the 23 of the 40 cases the rewrite answers relationally
SQL_CASES = (
    "dbonerow", "dbaccess", "dbtail", "decoy", "oddtemplates", "avts",
    "creation", "attsets", "output", "vocab", "chart", "total", "metric",
    "summarize", "product", "patterns", "priority", "union", "inventory",
    "stringsort", "numsort", "breadth", "workbook",
)
WORK_COUNTERS = ("rows_scanned", "index_probes", "hash_probes",
                 "subquery_executions")


@pytest.mark.parametrize("name", SQL_CASES)
def test_batch_size_does_not_change_output(name):
    """``batch_size`` tunes the executor, never the answer or the work:
    at the materialized door and the streaming door alike, 1, 7 and
    None (the default) give the same bytes and the same counters."""
    case = get_case(name)
    prepared = prepare_case(case, 50)
    engine = Engine(prepared.db)
    reference = engine.transform(prepared.storage, prepared.stylesheet)
    assert reference.strategy == STRATEGY_SQL
    for batch_size in (1, 7, None):
        options = TransformOptions(batch_size=batch_size)
        result = engine.transform(prepared.storage, prepared.stylesheet,
                                  options=options)
        assert result.serialized_rows() == reference.serialized_rows()
        stream = engine.transform_stream(prepared.storage,
                                         prepared.stylesheet,
                                         options=options)
        assert stream.text() == "".join(reference.serialized_rows())
        for counter in WORK_COUNTERS:
            expected = getattr(reference.stats, counter)
            assert getattr(result.stats, counter) == expected, counter
            assert getattr(stream.stats, counter) == expected, counter


class TestStreamingBounds:
    def test_large_case_streams_without_materializing(self):
        """ISSUE acceptance: on a large SQL-strategy case the stream
        never builds a result DOM and buffers < 1/4 of the output."""
        case = get_case("chart")
        prepared = prepare_case(case, 800)
        engine = Engine(prepared.db)
        stream = engine.transform_stream(
            prepared.storage, prepared.stylesheet,
            options=TransformOptions(chunk_chars=2048),
        )
        chunks = list(stream)
        output = "".join(chunks)
        assert stream.strategy == STRATEGY_SQL
        assert stream.stats.docs_materialized == 0
        assert len(output) > 8192
        assert stream.stats.peak_buffered_bytes < len(output) / 4
        materialized = engine.transform(prepared.storage,
                                        prepared.stylesheet)
        assert output == "".join(materialized.serialized_rows())

    def test_chunks_respect_coalescing_target(self):
        case = get_case("chart")
        prepared = prepare_case(case, 400)
        engine = Engine(prepared.db)
        stream = engine.transform_stream(
            prepared.storage, prepared.stylesheet,
            options=TransformOptions(chunk_chars=1024),
        )
        chunks = list(stream)
        assert len(chunks) > 1
        # every chunk except the last reached the coalescing target
        assert all(len(chunk) >= 1024 for chunk in chunks[:-1])
        assert all(chunks)

    def test_stats_live_while_consuming(self):
        case = get_case("chart")
        prepared = prepare_case(case, 400)
        engine = Engine(prepared.db)
        stream = engine.transform_stream(
            prepared.storage, prepared.stylesheet,
            options=TransformOptions(chunk_chars=512),
        )
        next(stream)
        rows_after_first = stream.stats.output_rows
        stream.text()
        assert stream.stats.output_rows >= rows_after_first
        assert stream.stats.output_rows > 0


class TestFallbackStreaming:
    def test_fallback_case_streams_functionally(self):
        # "identity" cannot be partially evaluated -> functional strategy
        case = get_case("identity")
        prepared = prepare_case(case, SIZE)
        engine = Engine(prepared.db)
        stream = engine.transform_stream(prepared.storage,
                                         prepared.stylesheet)
        text = stream.text()
        assert stream.strategy == "functional"
        assert stream.fallback_reason is not None
        materialized = engine.transform(prepared.storage,
                                        prepared.stylesheet)
        assert text == "".join(materialized.serialized_rows())
