"""Tests for TransformOptions normalization."""

import pytest

from repro.api import Engine, OptimizerLevel, Strategy, TransformOptions
from repro.core import RewriteOptions, xml_transform
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


class TestRewriteOptionResolution:
    def test_defaults_resolve_to_none(self):
        db, storage = make_storage()
        assert TransformOptions().rewrite_options is None
        compiled = Engine(db).compile(storage, EXAMPLE1_STYLESHEET)
        assert compiled.options is None
        assert compiled.outcome.inline_mode is True

    def test_explicit_rewrite_options_win(self):
        # a RewriteOptions is the one spelling of the inline mode (and of
        # every other ablation) and reaches the pipeline as given
        db, storage = make_storage()
        explicit = RewriteOptions(inline_templates=False)
        compiled = Engine(db).compile(
            storage, EXAMPLE1_STYLESHEET,
            options=TransformOptions(rewrite_options=explicit))
        assert compiled.options is explicit
        # non-inline XQuery cannot merge into the view: a compile fallback
        assert "non-inline" in str(compiled.error)


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
            rewrite_options=RewriteOptions(inline_templates=False)
        ).cache_key()
        assert base.cache_key() != TransformOptions(
            decorrelate=False).cache_key()
        assert base.cache_key() != TransformOptions(
            optimizer_level="off").cache_key()

    def test_stable_across_instances(self):
        a = TransformOptions(rewrite_options=RewriteOptions())
        b = TransformOptions(rewrite_options=RewriteOptions())
        assert a.cache_key() == b.cache_key()


class TestOneSpelling:
    def test_removed_spellings_raise_type_error(self):
        """Options travel in ``options=`` only: the loose kwargs, the
        ``explain`` field and a bare RewriteOptions are gone, not
        deprecated."""
        db, storage = make_storage()
        with pytest.raises(TypeError):
            xml_transform(db, storage, EXAMPLE1_STYLESHEET, rewrite=False)
        with pytest.raises(TypeError):
            xml_transform(db, storage, EXAMPLE1_STYLESHEET,
                          profile_plan=True)
        with pytest.raises(TypeError):
            TransformOptions(explain=True)
        with pytest.raises(TypeError):
            TransformOptions.coerce(RewriteOptions())

    def test_second_spellings_raise_at_construction(self):
        """``strategy`` is the one way to pick the strategy, a
        ``RewriteOptions`` the one way to force the inline mode; there
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

    def test_the_rewriter_reads_the_field_that_replaced_it(self):
        """``XsltRewriter(TransformOptions(...))`` called the removed
        ``resolved_rewrite_options()`` and raised AttributeError."""
        from repro.core.pipeline import XsltRewriter
        from repro.core.xquery_gen import RewriteOptions

        defaults = XsltRewriter(TransformOptions()).options
        assert isinstance(defaults, RewriteOptions)
        assert [getattr(defaults, name) for name in RewriteOptions.__slots__] \
            == [getattr(RewriteOptions(), name)
                for name in RewriteOptions.__slots__]
        chosen = RewriteOptions(inline_templates=False)
        assert XsltRewriter(
            TransformOptions(rewrite_options=chosen)).options is chosen

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
