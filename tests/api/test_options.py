"""Tests for TransformOptions normalization."""

import inspect

import pytest

from repro.api import Engine, OptimizerLevel, Strategy, TransformOptions
from repro.core import xml_transform
from repro.errors import PlanError
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document

from ..core.paper_example import DEPT_DTD, DEPT_DOC_1, EXAMPLE1_STYLESHEET


def make_storage():
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(DEPT_DTD), "xd",
        column_types={"sal": INT, "empno": INT},
    )
    storage.load(parse_document(DEPT_DOC_1))
    return db, storage


class TestCoerce:
    def test_none_is_defaults(self):
        opts = TransformOptions.coerce(None)
        assert opts == TransformOptions()
        assert opts.effective_rewrite() is True
        assert opts.deadline is None

    def test_none_is_one_shared_instance(self):
        # frozen, so every request without options can share it
        assert TransformOptions.coerce(None) is TransformOptions.coerce(None)

    def test_instance_passes_through(self):
        opts = TransformOptions(strategy="functional")
        assert TransformOptions.coerce(opts) is opts

    def test_dict_becomes_kwargs(self):
        opts = TransformOptions.coerce({"strategy": "functional",
                                        "batch_size": 64})
        assert opts.effective_rewrite() is False
        assert opts.batch_size == 64

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            TransformOptions.coerce(object())

    def test_frozen(self):
        with pytest.raises(Exception):
            TransformOptions().strategy = "functional"

    def test_replace_returns_copy(self):
        opts = TransformOptions()
        changed = opts.replace(strategy="functional", deadline=1.5)
        assert changed.strategy == "functional"
        assert changed.deadline == 1.5
        assert opts.strategy is None


class TestOneRewriteConfiguration:
    """The rewrite has one configuration: no option reaches the §3.3–3.7
    techniques or the inline rule."""

    def test_rewrite_options_field_is_gone(self):
        with pytest.raises(TypeError):
            TransformOptions(rewrite_options=None)
        with pytest.raises(TypeError):
            TransformOptions.coerce({"rewrite_options": None})
        with pytest.raises(TypeError):
            TransformOptions().replace(rewrite_options=None)

    def test_the_compile_inlines_and_keeps_no_options(self):
        db, storage = make_storage()
        compiled = Engine(db).compile(storage, EXAMPLE1_STYLESHEET)
        assert compiled.is_rewritten
        assert compiled.outcome.inline_mode is True
        assert "options" not in compiled.__slots__

    def test_the_rewriter_takes_no_options(self):
        from repro.core.pipeline import XsltRewriter
        from repro.core.xquery_gen import XQueryGenerator, generate_xquery

        with pytest.raises(TypeError):
            XsltRewriter(TransformOptions())
        with pytest.raises(TypeError):
            XsltRewriter(options=None)
        for function in (generate_xquery, XQueryGenerator, XsltRewriter):
            assert "options" not in inspect.signature(function).parameters

    def test_no_module_exports_rewrite_options(self):
        import repro
        import repro.core
        import repro.core.xquery_gen

        for module in (repro, repro.core, repro.core.xquery_gen):
            assert not hasattr(module, "RewriteOptions"), module.__name__


class TestCacheKey:
    def test_runtime_fields_do_not_fragment(self):
        base = TransformOptions()
        assert base.cache_key() == TransformOptions(
            deadline=2.0, batch_size=16, chunk_chars=128).cache_key()

    def test_compile_fields_do_fragment(self):
        base = TransformOptions()
        assert base.cache_key() != TransformOptions(
            strategy="functional").cache_key()
        assert base.cache_key() != TransformOptions(
            decorrelate=False).cache_key()
        assert base.cache_key() != TransformOptions(
            optimizer_level="off").cache_key()

    def test_stable_across_instances(self):
        a = TransformOptions(optimizer_level="off")
        b = TransformOptions(optimizer_level="off")
        assert a.cache_key() == b.cache_key()

    def test_default_key_is_the_one_earlier_builds_wrote(self):
        # disk artifacts are keyed by it: an unchanged key keeps them hits
        assert TransformOptions().cache_key() == "rw=1;opt=cost;dcr=auto;"


class TestOneSpelling:
    def test_removed_spellings_raise_type_error(self):
        """Options travel in ``options=`` only: the loose kwargs and the
        ``explain`` field are gone, not deprecated."""
        db, storage = make_storage()
        with pytest.raises(TypeError):
            xml_transform(db, storage, EXAMPLE1_STYLESHEET, rewrite=False)
        with pytest.raises(TypeError):
            xml_transform(db, storage, EXAMPLE1_STYLESHEET,
                          profile_plan=True)
        with pytest.raises(TypeError):
            TransformOptions(explain=True)

    def test_second_spellings_raise_at_construction(self):
        """``strategy`` is the one way to pick the strategy; there
        are two optimizer levels, a two-valued ``decorrelate``, and
        ``level="off"`` is the one way to run a plan as written."""
        for removed in ({"rewrite": False}, {"rewrite": True},
                        {"inline": False}, {"inline": None}):
            with pytest.raises(TypeError):
                TransformOptions(**removed)
            with pytest.raises(TypeError):
                TransformOptions.coerce(removed)
            with pytest.raises(TypeError):
                TransformOptions().replace(**removed)
        with pytest.raises(ValueError, match="invalid strategy 'auto'"):
            TransformOptions(strategy="auto")
        assert not hasattr(Strategy, "AUTO")
        with pytest.raises(ValueError, match="invalid optimizer_level"):
            TransformOptions(optimizer_level="rules")
        assert not hasattr(OptimizerLevel, "RULES")
        with pytest.raises(ValueError, match="invalid decorrelate None"):
            TransformOptions(decorrelate=None)
        assert not hasattr(TransformOptions, "resolved_rewrite_options")

    def test_second_spellings_below_the_options_raise_too(self):
        from repro.serve.cache import PlanCache

        db, storage = make_storage()
        query = storage.make_view_query()
        with pytest.raises(PlanError, match="unknown optimizer level"):
            db.optimize(query, level="rules")
        with pytest.raises(PlanError, match="unknown optimizer level"):
            db.execute(query, level="rules")
        with pytest.raises(TypeError):
            db.execute(query, optimize=False)
        with pytest.raises(TypeError):
            PlanCache().put("k", 1, tags=("t",))
        with pytest.raises(TypeError):
            PlanCache().invalidate(tag="t")
