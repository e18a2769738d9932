"""What a command-line call pays for before it does any work: importing
``relugeom.cli`` generates no code and loads no heavy standard module.

The import runs in a fresh ``python -S`` child, so neither pytest nor
site-packages has loaded anything first.  ``dataclasses`` pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``, and each ``@dataclass``
class then compiles its generated methods; ``hashlib`` maps OpenSSL;
``pathlib`` pulls in ``urllib.parse`` and ``fnmatch``.  The
check counts modules and times nothing, so it is deterministic.  Every
package module still loads at import, so that a tracer installed after it
can patch them all.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "hashlib", "pathlib")


def test_cli_import_loads_every_module_and_nothing_heavy():
    names = sorted(p.stem for p in (SRC / "relugeom").glob("*.py") if p.stem != "__init__")
    modules = [f"relugeom.{name}" for name in names]
    code = (
        "import sys, relugeom.cli\n"
        f"print(*[m for m in {HEAVY!r} if m in sys.modules])\n"
        f"print(*[m for m in {modules!r} if m not in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    heavy, missing = child.stdout.split("\n")[:2]
    assert heavy == "", f"importing relugeom.cli loads {heavy}"
    assert missing == "", f"importing relugeom.cli leaves out {missing}"
