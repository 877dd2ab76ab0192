"""The package's export list names only what exists, each name once, and
importing the command line leaves the verification suite unloaded."""

import subprocess
import sys

import qkg


def test_all_names_resolve_once():
    assert len(qkg.__all__) == len(set(qkg.__all__))
    missing = [name for name in qkg.__all__ if not hasattr(qkg, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from qkg import *", namespace)
    assert set(qkg.__all__) <= set(namespace)


def test_cli_import_leaves_the_verification_suite_unloaded():
    code = ("import sys, qkg.cli; "
            "print('qkg.verify' in sys.modules, 'subprocess' in sys.modules); "
            "from qkg.verify import run_all")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"
