import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from miqpcert import QVector

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_readme_library_example():
    """README's one ``python`` block runs as written, and what its comments
    claim holds: the certificate's point is (1), and its report is ok."""
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    point = namespace["cert"].point
    assert point == QVector.of([1]) and str(point) == "(1)"
    assert namespace["report"].ok
