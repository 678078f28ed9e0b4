"""Importing the library loads no network server or TLS stack.

Each public package is imported in a fresh interpreter, which then
reports which of the modules below reached ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

#: nothing in the library serves HTTP or speaks TLS
FORBIDDEN = ("http.server", "socketserver", "ssl")

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize("package", [
    "repro", "repro.serve", "repro.obs", "repro.core", "repro.rdb",
    "repro.api",
])
def test_import_loads_no_server_or_tls(package):
    probe = (
        "import json, sys\n"
        "import %s\n"
        "print(json.dumps(sorted(set(%r) & set(sys.modules))))\n"
        % (package, FORBIDDEN)
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    output = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True, timeout=60,
    ).stdout
    assert json.loads(output) == []
