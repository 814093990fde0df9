"""Import-time guards on the production modules.

* Serving processes must not pay for numpy: ``repro.cli`` and
  ``repro.engine.server`` (what every server and worker process loads) leave
  it out of ``sys.modules``.
* The reference oracle (:mod:`repro.core.oracle`) is for tests and
  benchmarks only: importing every other module of the package never loads
  it.

Each check runs in a fresh interpreter so modules this test session already
imported cannot mask a regression.
"""

import os
import subprocess
import sys

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "src"))


def _run(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


def test_server_and_cli_do_not_import_numpy():
    out = _run("import sys, repro.cli, repro.engine.server; "
               "print('numpy' in sys.modules)")
    assert out == "False"


def test_no_production_module_imports_the_oracle():
    out = _run(
        "import importlib, pkgutil, sys, repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.name not in ('repro.core.oracle', 'repro.__main__'):\n"
        "        importlib.import_module(info.name)\n"
        "print('repro.core.oracle' in sys.modules)\n"
    )
    assert out == "False"
