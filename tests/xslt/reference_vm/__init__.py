"""The interpreter ``repro.xslt`` / ``repro.xpath`` ran before the
stylesheet program was bound once — the differential reference of
``tests/xslt/test_compiled_vm.py`` (to be retired by the generated
equivalence matrix, ROADMAP item 5).  Nothing under ``src/`` imports it."""

from tests.xslt.reference_vm.vm import ReferenceVM
from tests.xslt.reference_vm.xpath import evaluate, pattern_matches

__all__ = ["ReferenceVM", "evaluate", "pattern_matches"]
