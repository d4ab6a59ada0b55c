"""The library needs only the standard library.

The test environment has numpy and pytest installed, so an accidental
third-party import in ``src/`` would pass every other test.  This one imports
the package in a fresh interpreter and names every top-level module the
import added that is neither the package nor in the standard library.
``-I`` ignores the environment and the user site, and ``-S`` skips
``site``, whose ``.pth`` files would load third-party modules (such as
``_distutils_hack``) before the package does; it also leaves site-packages
off the path, so a third-party import fails the import outright.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import miqpcert, miqpcert.cli, miqpcert.oracle
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - {"miqpcert"} - set(sys.stdlib_module_names))))
"""


def test_library_imports_only_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE, str(SRC)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
