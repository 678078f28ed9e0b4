"""The documents cite the code: every repository path, ``repro.…`` dotted
name and pytest node id named in DESIGN.md and README.md must still
resolve, so a rename or deletion that leaves a document behind fails
here instead of misleading its next reader."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DOCUMENTS = ("DESIGN.md", "README.md")

_PATH = re.compile(r"\b(?:src|tests|bench|examples)/[\w./-]*\w")
_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_NODE_ID = re.compile(r"\b((?:tests|bench)/[\w/]+\.py)((?:::\w+)+)")


def citations(pattern):
    """``(document:line, match)`` for every citation ``pattern`` finds —
    never none: a pattern that stopped matching would pass every check."""
    found = []
    for document in DOCUMENTS:
        lines = (ROOT / document).read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            for match in pattern.finditer(line):
                found.append(("%s:%d" % (document, number), match))
    assert len(found) >= 3, pattern.pattern
    return found


def resolve(dotted):
    """The object ``dotted`` names: the longest importable module
    prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ImportError(dotted)


def test_cited_paths_exist():
    stale = [(where, match.group()) for where, match in citations(_PATH)
             if not (ROOT / match.group()).exists()]
    assert not stale, stale


def test_cited_dotted_names_resolve():
    stale = []
    for where, match in citations(_NAME):
        try:
            resolve(match.group())
        except (ImportError, AttributeError):
            stale.append((where, match.group()))
    assert not stale, stale


def test_cited_test_ids_exist():
    stale = []
    for where, match in citations(_NODE_ID):
        path, names = match.group(1), match.group(2).split("::")[1:]
        scope = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        for name in names:
            scope = next((node for node in ast.iter_child_nodes(scope)
                          if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                          and node.name == name), None)
            if scope is None:
                stale.append((where, match.group()))
                break
    assert not stale, stale
