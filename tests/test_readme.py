"""Every python code block in README.md runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qkg import cli

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_lists_every_config_key():
    keys = re.search(r"command reads \(`([^`]*)`\)", (ROOT / "README.md").read_text())
    assert keys is not None
    assert set(keys.group(1).split()) == {name for name, param in cli.PARAMS.items()
                                          if param.config}


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block {i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
