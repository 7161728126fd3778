import os
import subprocess
import sys
from pathlib import Path

import otkit


def test_import_loads_no_submodule_and_no_regex():
    probe = (
        "import sys, otkit; "
        "print([m for m in sys.modules if m.startswith('otkit.') or m.split('.')[0] == 'regex'])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(otkit.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
