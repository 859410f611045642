"""Package-level guards."""

import os
import subprocess
import sys


def test_import_loads_no_third_party_module_but_numpy():
    # scipy alone costs ~0.5 s and ~50 MB per process; only the tests use it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    code = (
        "import sys; before = set(sys.modules); import redqueue; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "['numpy', 'redqueue']"
