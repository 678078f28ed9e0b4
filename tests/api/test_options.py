"""Tests for TransformOptions normalization."""

import pytest

from repro.api import TransformOptions
from repro.core import RewriteOptions, xml_transform
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
        assert opts.rewrite is True
        assert opts.deadline is None

    def test_instance_passes_through(self):
        opts = TransformOptions(rewrite=False)
        assert TransformOptions.coerce(opts) is opts

    def test_dict_becomes_kwargs(self):
        opts = TransformOptions.coerce({"rewrite": False, "batch_size": 64})
        assert opts.rewrite is False
        assert opts.batch_size == 64

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            TransformOptions.coerce(object())

    def test_frozen(self):
        with pytest.raises(Exception):
            TransformOptions().rewrite = False

    def test_replace_returns_copy(self):
        opts = TransformOptions()
        changed = opts.replace(rewrite=False, deadline=1.5)
        assert changed.rewrite is False
        assert changed.deadline == 1.5
        assert opts.rewrite is True


class TestRewriteOptionResolution:
    def test_defaults_resolve_to_none(self):
        assert TransformOptions().resolved_rewrite_options() is None

    def test_inline_flag_builds_rewrite_options(self):
        resolved = TransformOptions(inline=False).resolved_rewrite_options()
        assert isinstance(resolved, RewriteOptions)
        assert resolved.inline_templates is False

    def test_explicit_rewrite_options_win(self):
        explicit = RewriteOptions(prune_templates=False)
        opts = TransformOptions(inline=True, rewrite_options=explicit)
        assert opts.resolved_rewrite_options() is explicit


class TestCacheKey:
    def test_runtime_fields_do_not_fragment(self):
        base = TransformOptions()
        assert base.cache_key() == TransformOptions(
            deadline=2.0, batch_size=16, chunk_chars=128, profile_plan=False
        ).cache_key()

    def test_compile_fields_do_fragment(self):
        base = TransformOptions()
        assert base.cache_key() != TransformOptions(rewrite=False).cache_key()
        assert base.cache_key() != TransformOptions(inline=False).cache_key()

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
