"""Every script under ``examples/`` runs to completion.

Nothing else runs them, so an example that reads a removed attribute or
calls a changed signature would only fail when someone tried it.  Each
script runs as a subprocess, with the package on its path and a
scratch working directory, and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_the_examples_are_collected():
    assert EXAMPLES, "no scripts under examples/"


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
