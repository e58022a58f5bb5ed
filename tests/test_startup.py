"""Each CLI command loads only the modules it runs.

``compute`` never imports a check suite (``hodge``, ``identities``,
``symbolcheck``), nor ``dataclasses`` or ``inspect``; a suite's module is
imported when the suite runs, and ``symcoh``'s Hodge exports load ``hodge``
on first access.  Each run is a fresh interpreter, and the modules are
compared before and after, since site hooks differ between machines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SUITE_MODULES = {"symcoh.hodge", "symcoh.identities", "symcoh.symbolcheck"}
NEVER_ON_COMPUTE = SUITE_MODULES | {"dataclasses", "inspect"}

PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import symcoh.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = symcoh.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "new": sorted(set(sys.modules) - before)}))
"""


def new_modules(*argv: str) -> tuple[int, set[str]]:
    """The exit code of ``main(argv)`` and the modules it and the import of
    ``symcoh.cli`` loaded, in a fresh interpreter."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out["code"], set(out["new"])


def test_compute_loads_no_check_suite_and_no_dataclasses():
    code, new = new_modules("compute")
    assert code == 0
    assert "symcoh.cohomology" in new  # the probe saw the package load
    assert new & NEVER_ON_COMPUTE == set()


@pytest.mark.parametrize("suite, module", [("hodge", "symcoh.hodge"),
                                           ("identities", "symcoh.identities"),
                                           ("index", None)])
def test_check_loads_only_the_suite_it_runs(suite, module):
    code, new = new_modules("check", f"--suite={suite}")
    assert code == 0
    assert new & SUITE_MODULES == ({module} if module else set())


def test_package_serves_the_hodge_exports_on_first_access():
    import symcoh
    import symcoh.hodge

    assert symcoh.HodgeTheory is symcoh.hodge.HodgeTheory
    assert symcoh.CompatibleTriple is symcoh.hodge.CompatibleTriple
    assert symcoh.build_triple is symcoh.hodge.build_triple
    with pytest.raises(AttributeError):
        symcoh.no_such_name  # noqa: B018
    namespace: dict = {}
    exec("from symcoh import *", namespace)
    assert set(symcoh.__all__) <= namespace.keys()
