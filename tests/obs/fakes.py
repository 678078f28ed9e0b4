"""Shared test doubles for the observability suites."""

from repro.errors import RewriteError
from repro.rdb.sqlxml import Markup


class ExplodingQuery:
    """Stand-in for an optimized plan that fails at run time: exposes
    the one method the transform run calls, hands over ``good_batches``
    one-row batches of markup and then raises :class:`RewriteError`."""

    def __init__(self, good_batches=0):
        self.good_batches = good_batches

    def execute_batches(self, db, env=None, stats=None, batch_size=None):
        for number in range(self.good_batches):
            stats.batches += 1
            stats.output_rows += 1
            yield [(Markup("<row n='%d'/>" % number),)]
        raise RewriteError("simulated runtime rewrite failure")
