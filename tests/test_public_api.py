"""The package's export list names only what exists, each name once, and
resolves it from its defining module on first use: importing the package
loads no layer, and importing the command line leaves the verification
suite unloaded."""

import importlib
import subprocess
import sys

import qkg


def test_all_names_resolve_once():
    assert len(qkg.__all__) == len(set(qkg.__all__))
    missing = [name for name in qkg.__all__ if not hasattr(qkg, name)]
    assert missing == []


def test_each_name_is_its_defining_modules_object():
    for module, names in qkg._EXPORTS.items():
        layer = importlib.import_module(f"qkg.{module}")
        for name in names:
            assert getattr(qkg, name) is getattr(layer, name), name


def test_unknown_name_is_missing():
    assert not hasattr(qkg, "no_such_name")


def test_dir_lists_the_exports():
    listed = dir(qkg)
    assert "__all__" in listed
    assert set(qkg.__all__) <= set(listed)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from qkg import *", namespace)
    assert set(qkg.__all__) <= set(namespace)


def test_package_import_loads_no_layer():
    code = ("import sys, qkg; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('qkg.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_leaves_the_verification_suite_unloaded():
    code = ("import sys, qkg.cli; "
            "print('qkg.verify' in sys.modules, 'subprocess' in sys.modules); "
            "from qkg.verify import run_all")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"
