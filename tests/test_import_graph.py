"""What ``import repro`` loads: the CLI and a node's transport need no scipy.

scipy costs ~0.5 s and ~40 MB per process; every CLI call and every
launched cluster node pays it if a module-level import pulls it in.  The
probe runs in a fresh interpreter so modules other tests loaded do not
count.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
PROBE = (
    "import sys, repro, repro.net.tcp; from repro.__main__ import main; "
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
)


def test_import_repro_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=120,
        check=True, env=env,
    )
    assert out.stdout.strip() == "[]", out.stdout
