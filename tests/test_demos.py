"""Every script in ``demos/`` runs to completion and prints its pinned output.

The demos are deterministic; each stdout sha256 was recorded before the
operator matrices carried their own denominator, and demo 02's when it came
to show the Lefschetz decomposition through the projection matrices.
Regenerate only for a deliberate output change, and say why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_exterior_algebra": "f19f6e8a15f00bfe6852e581c55ba5a918e2416242f555d1550a583460a68656",
    "02_sl2_and_primitive_forms":
        "1026197684e3a486db60853abbae7351087d2e0540e743b372a41d0a7905af95",
    "03_differentials_and_cohomology":
        "15a9414a62e412ece0a84333fdf362a5f00121a167760ee1e15db9a3476f758e",
    "04_lefschetz_and_lemma_failure":
        "3a4df2ef76bf3fbf0aa41d1cfa165373375e2321a99c70b9b6d6df396e385fe0",
    "05_hodge_theory": "248a40c6a93cab21dd7c2cf5196008e7b892e7b809a3d77bc0a73957b27c796b",
    "06_symbol_complex": "8c950411c4fdd8aaa459c0e3ebf4e16c9005f8f88cf950cefba74c3da2e82de2",
}


def test_demos_are_present():
    assert [p.stem for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[script.stem]
