"""Smoke test of the benchmark of record.

Run with ``python -m pytest bench -q``; it is not part of the tier-1
``testpaths``.  Everything goes through the command line, the way the
benchmark is used: ``--smoke`` (1 s windows, 3 traced rounds) over all
seven workloads, twice.
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]

#: per-layer metrics that are counts of work done by a single caller: they
#: must repeat exactly from run to run
EXACT = [
    "core.partial_eval.templates_pruned", "core.xquery_gen.query_chars",
    "core.sql_rewrite.plan_nodes", "rdb.plan.rows_scanned",
    "rdb.plan.index_probes", "rdb.plan.btree_node_visits",
    "rdb.plan.hash_probes", "rdb.plan.xml_elements",
    "rdb.plan.rows_scanned_per_output_row", "rdb.sqlxml.peak_buffered_bytes",
    "xmlmodel.serializer.output_bytes", "core.transform.rewrite_share",
    "core.transform.fallback_warnings", "rdb.storage.rows_inserted",
    "xmlmodel.stream_ingest.peak_buffered_bytes", "serve.rejected",
]
SINGLE_CALLER = ["point_lookup", "scan_construct", "cold_compile",
                 "functional_vm", "ingest"]


def run(*args):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two complete smoke runs: (stdout, report) each."""
    runs = []
    for index in range(2):
        out = tmp_path_factory.mktemp("bench") / ("smoke%d.json" % index)
        process = run("--smoke", "--trace", "--out", str(out))
        assert process.returncode == 0, process.stderr
        with open(out) as handle:
            runs.append((process.stdout, json.load(handle)))
    return runs


def test_every_metric_is_printed_once_with_unit_and_finite_value(smoke):
    stdout, report = smoke[0]
    printed = [line.split() for line in stdout.splitlines()]
    for workload in WORKLOADS:
        for kind in ("end_to_end", "per_layer"):
            readings = report["workloads"][workload][kind]["metrics"]
            assert sorted(readings) == sorted(m["name"]
                                              for m in CONTRACT[kind])
            for definition in CONTRACT[kind]:
                name = definition["name"]
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
                lines = [line for line in printed
                         if line[:2] == [workload, name]]
                assert len(lines) == 1, (workload, name)
                assert lines[0][3] == definition["unit"]
                assert readings[name]["unit"] == definition["unit"]
                assert math.isfinite(readings[name]["value"])
                assert math.isfinite(float(lines[0][2]))


def test_nothing_failed_and_the_environment_is_recorded(smoke):
    _, report = smoke[0]
    for key in ("nproc", "python", "platform", "commit", "gc_threshold",
                "seed"):
        assert key in report["env"]
    for workload in WORKLOADS:
        for kind in ("end_to_end", "per_layer"):
            result = report["workloads"][workload][kind]
            assert result["attempted"] > 0
            assert result["failed"] == 0
    cold = report["workloads"]["cold_compile"]["per_layer"]["metrics"]
    assert cold["core.transform.rewrite_share"]["value"] == 23 / 40


def test_exact_counts_repeat(smoke):
    first, second = smoke[0][1], smoke[1][1]
    for workload in SINGLE_CALLER:
        for name in EXACT:
            values = [
                report["workloads"][workload]["per_layer"]["metrics"][name]
                ["value"] for report in (first, second)
            ]
            assert values[0] == values[1], (workload, name, values)


def test_the_contract_form_ends_in_one_json_object():
    process = run("--workload", "cold_compile", "--seed", "3",
                  "--seconds", "1", "--trace", "0")
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"]
                                       for m in CONTRACT["end_to_end"]]


@pytest.mark.parametrize("workload, section, key, value", [
    ("functional_vm", "functional_vm_sha256", "identity", "0" * 64),
    ("cold_compile", "strategy", "depth", "sql-rewrite"),
])
def test_a_corrupted_reference_fails_the_command(tmp_path, workload, section,
                                                 key, value):
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)
    expected[section][key] = value
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    process = run("--smoke", "--workloads", workload,
                  "--expected", str(corrupted))
    assert process.returncode != 0
    assert "%s/%s" % (workload, key) in process.stderr
