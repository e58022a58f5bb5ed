"""Byte-identity gate: pinned stdout hashes and exit codes of the CLI.

The 4- and 6-dim hashes were recorded from the engine before the
per-degree primitive operator layer replaced the form-by-form routes; the
N8, T8 and N10 ladder hashes before sparse integer elimination replaced the
Bareiss kernel, and they equal the ``compute`` entries of
``perfbench/reference.json``.  Any change of a
representative, a dimension or a check detail moves a hash.  A refactor
that moves one has changed an answer.  Regenerate only for a deliberate
output change, and say why in CHANGES.md.
"""

import hashlib

import pytest

from symcoh.cli import main

N6 = "(0,0,0,12,14,15+23+24)"

GOLDEN = [
    (N6, "16+25-34", "compute",
     "98173decc0d5d6e589fe051680c9f3a8955b2034460d0d01ced1126e24ccbf7e"),
    (N6, "16+25-34", "hodge",
     "f66f926479a2dcd3427b3f02ddf1cddf71f7a20a34ef98e228a626560b7090a9"),
    (N6, "13+26-45", "compute",
     "402527939c3eda93ad14f4514a173d39256c3e2d33454a5075086c6f4645439b"),
    (N6, "13+26-45", "hodge",
     "4ed1be00f70be998eb2fcf78ea3e68b9645256970f33850a3dc5ce18a47c598e"),
    ("(0,0,0,12)", "13+24", "compute",
     "9748ef291f3bd269550d6fd50ba84c1c00237d1b4e186de456242332507c36bd"),
    ("(0,0,0,12)", "13+24", "hodge",
     "5a85d83e923976a31194ab15a66422a3cfa0fed418dabe774f034ed0c342090a"),
    ("(0,0,0,12,0,0)", "13+24+56", "compute",
     "def98109b1aee7c5961eef792ddcfbe8ed7843b448151405bb4bfd26136dbf75"),
    ("(0,0,0,12,0,0)", "13+24+56", "hodge",
     "8718b0163e63579f20dded3ca93087abd9ace7e4c3b8c165b7a1f066610acdde"),
    ("(0,0,0,0,0,0)", "12+34+56", "compute",
     "338e0a84761a4cdd2c25eb07374dbcd295fc14cfd99a427d0533dadce0c5471e"),
    ("(0,0,0,0,0,0)", "12+34+56", "hodge",
     "70e1e1cc6ab53ff43304090dcbc9104e99bf4796725c89ef6da6a4ba96a3a984"),
    ("(0,0,0,12,14,15+23+24,0,0)", "16+25-34+78", "compute",
     "7800ad32375f69c36c062774665e3f050aa3689ba5198f734c1ed3b50524c4c5"),
    ("(0,0,0,0,0,0,0,0)", "12+34+56+78", "compute",
     "2d27576c09e0a29c15c8769d95daa94d5e8d36925061cb53d170a3ccc088b243"),
    ("(0,0,0,12,14,15+23+24,0,0,0,0)", "16+25-34+78+9a", "compute",
     "f17955738b71980eee14b3793a62216f3f3963e770d492facd9ecca76f5f9c1e"),
]


@pytest.mark.parametrize("algebra,omega,command,sha256", GOLDEN,
                         ids=[f"{a}-{w}-{c}" for a, w, c, _ in GOLDEN])
def test_stdout_matches_pinned_hash(capsys, algebra, omega, command, sha256):
    argv = ["compute"] if command == "compute" else ["check", "--suite=hodge"]
    code = main(argv + ["--algebra", algebra, "--omega", omega])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
