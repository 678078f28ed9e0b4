"""The bound program is a runtime handle, like ``Query.runtime``: it is
made on first execution, never reaches a pickle, is rebuilt by a loaded
copy, and is shared — first use included — by every thread that runs the
stylesheet."""

import gc
import pickle
import sys
import threading
import weakref

from repro import Engine
from repro.obs.metrics import MetricsRegistry
from repro.serve.artifact import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactStore,
    decode_artifact,
    encode_artifact,
)
from repro.xmlmodel.serializer import serialize
from repro.xslt import XsltVM, compile_stylesheet
from repro.xsltmark import get_case
from repro.xsltmark.runner import prepare_case

from tests.xslt.reference_vm import ReferenceVM

# functional cases reaching keys, recursion, numbering, sorting, predicates
CASES = ("keys", "queens", "number", "alphabetize", "current", "identity")


def rendered(document):
    return "".join(serialize(child) for child in document.children)


class TestPickling:
    def test_bytes_do_not_change_once_the_program_is_bound(self):
        for name in CASES:
            prep = prepare_case(get_case(name), 12)
            engine = Engine(prep.db, metrics=MetricsRegistry())
            compiled = engine.compile(prep.storage, prep.case.stylesheet)
            assert not compiled.is_rewritten  # a negative-cached artifact
            before = pickle.dumps(compiled)
            sheet_before = pickle.dumps(compiled.stylesheet)
            first = engine.execute(prep.storage, compiled)
            assert "_program" in vars(compiled.stylesheet)  # bound by the run
            # the run left closures on the stylesheet, its expressions and
            # its patterns; none reaches the bytes
            assert pickle.dumps(compiled) == before, name
            assert pickle.dumps(compiled.stylesheet) == sheet_before, name

            data, _ = encode_artifact(compiled, "k")
            _, loaded = decode_artifact(data, expect_key="k")
            assert "_program" not in vars(loaded.stylesheet)
            again = engine.execute(prep.storage, loaded)  # rebinds
            assert again.serialized_rows() == first.serialized_rows()
            assert loaded.stylesheet.program() \
                is not compiled.stylesheet.program()

    def test_runtime_handles_are_not_part_of_the_artifact_format(self):
        # a Stylesheet's or an expression's pickled state is its plain
        # fields whether or not it was bound or stripped (version 4: the
        # predicate-strip memo left the PartialEvaluation; version 5: the
        # artifact carries its projection mask)
        assert ARTIFACT_FORMAT_VERSION == 5
        case = get_case("keys")
        stylesheet = compile_stylesheet(case.stylesheet)
        fields = set(stylesheet.__getstate__())
        XsltVM(stylesheet).transform_document(case.make_document(3))
        assert set(stylesheet.__getstate__()) == fields \
            == set(vars(stylesheet)) - {"_program"}
        selects = [instruction.select
                   for instruction in stylesheet.iter_instructions()
                   if getattr(instruction, "select", None) is not None]
        assert any("_fn" in vars(select) for select in selects)  # bound
        assert all("_fn" not in expr.__getstate__()
                   for select in selects for expr in select.iter_tree())

    def test_a_functional_artifact_still_lands_on_disk(self, tmp_path):
        """``ArtifactStore.put`` keeps an artifact it cannot pickle as a
        tier-1-only entry without failing — silently, so pin that an
        executed (bound) functional artifact is not one of those."""
        prep = prepare_case(get_case("keys"), 12)
        engine = Engine(prep.db, metrics=MetricsRegistry())
        compiled = engine.compile(prep.storage, prep.case.stylesheet)
        first = engine.execute(prep.storage, compiled)
        store = ArtifactStore(str(tmp_path), metrics=MetricsRegistry())
        assert store.put("k" * 40, compiled) is not None
        loaded, header = store.get("k" * 40)
        assert header is not None and store.stats().put_errors == 0
        assert engine.execute(prep.storage, loaded).serialized_rows() \
            == first.serialized_rows()


class TestNoCycleThroughTheProgram:
    def test_the_reference_counter_frees_a_dropped_stylesheets_program(self):
        """Closures reach the program through ``vm.program``; one that
        captured it would make stylesheet -> program -> closures a cycle
        only the collector frees (one per cold compile)."""
        imports = ('<xsl:stylesheet version="1.0" xmlns:xsl='
                   '"http://www.w3.org/1999/XSL/Transform"><xsl:template '
                   'match="table"><xsl:apply-imports/></xsl:template>'
                   '</xsl:stylesheet>')
        sheets = [get_case(name).stylesheet for name in CASES] + [imports]
        gc.collect()
        gc.disable()
        try:
            for text in sheets:
                stylesheet = compile_stylesheet(text)
                XsltVM(stylesheet).transform_document(
                    get_case("identity").make_document(3))
                program = weakref.ref(stylesheet.program())
                del stylesheet
                assert program() is None
        finally:
            gc.enable()


class TestOneProgramServesEveryThread:
    def test_two_threads_race_first_use_over_different_documents(self):
        """Per-run state lives on the VM, not in the closures: two threads
        sharing one never-run stylesheet, each transforming its own
        document 200 times, get the reference output every time."""
        for name in CASES:
            case = get_case(name)
            stylesheet = compile_stylesheet(case.stylesheet)
            documents = [case.make_document(size) for size in (7, 12)]
            expected = [
                rendered(ReferenceVM(stylesheet).transform_document(document))
                for document in documents]
            wrong, errors = [], []
            barrier = threading.Barrier(2)

            def worker(document, want):
                try:
                    barrier.wait(10.0)
                    for _ in range(200):
                        got = rendered(
                            XsltVM(stylesheet).transform_document(document))
                        if got != want:
                            wrong.append(got)
                except BaseException as exc:  # re-raised on the main thread
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=worker, args=pair)
                           for pair in zip(documents, expected)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            if errors:
                raise errors[0]
            assert not wrong, name
