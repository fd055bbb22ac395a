"""The perfbench tracer's hooks still find every entry point they wrap.

``perfbench/layertrace.py`` patches named functions of ``repro`` by
``getattr``; a renamed or deleted one makes ``Tracer().install()`` raise.
The traced benchmark runs are the only other place that would notice, so
this installs the tracer in a fresh interpreter on every tier-1 run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layertrace_installs_on_the_current_tree():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "perfbench")]
        ),
    )
    done = subprocess.run(
        [sys.executable, "-c", "import layertrace; layertrace.Tracer().install()"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
