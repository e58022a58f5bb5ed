"""Byte-identity gate: pinned stdout hashes and exit codes of the CLI.

The 4- and 6-dim ``compute`` and ``hodge`` hashes were recorded from the
engine before the per-degree primitive operator layer replaced the
form-by-form routes; the N8, T8 and N10 ladder hashes before sparse integer
elimination replaced the Bareiss kernel; the ``identities``, ``lefschetz``,
``ddlambda`` and ``index`` hashes before blade maps replaced the form-level
L, Lambda, d and splitting operator; the fixtures with a non-integer
omega^-1 (the ``2*`` forms) and N12 ``compute`` before the per-complex
integer operator cache replaced the form-by-form operator matrices; N10
``identities`` before the Lefschetz components, star and del_plus/del_minus
were kept per blade; N8 and N10 ``hodge`` before the Gram and pairing
matrices were read without wedges and the splitting-conjugation check
stopped inverting blade Gram matrices; ``identities`` on the two fixtures
with a non-integer omega^-1, where every Lambda, Pi_{r,s} and del_plus/del_minus
has a denominator above 1, before the operator matrices carried their own
denominator; the two ``compute --format=md`` hashes before the cohomology
representatives stayed int rows printed by one renderer.  The
ladder and check hashes equal the matching entries of
``perfbench/reference.json``.  A check suite that finds
a failure exits 1: ``lefschetz`` and ``ddlambda`` do on N6.  Any change of a
representative, a dimension or a check detail moves a hash.  A refactor
that moves one has changed an answer.  Regenerate only for a deliberate
output change, and say why in CHANGES.md.
"""

import hashlib

import pytest

from symcoh.cli import main

N6 = "(0,0,0,12,14,15+23+24)"
N8 = "(0,0,0,12,14,15+23+24,0,0)"

GOLDEN = [
    (N6, "16+25-34", "compute", 0,
     "98173decc0d5d6e589fe051680c9f3a8955b2034460d0d01ced1126e24ccbf7e"),
    (N6, "16+25-34", "hodge", 0,
     "f66f926479a2dcd3427b3f02ddf1cddf71f7a20a34ef98e228a626560b7090a9"),
    (N6, "13+26-45", "compute", 0,
     "402527939c3eda93ad14f4514a173d39256c3e2d33454a5075086c6f4645439b"),
    (N6, "13+26-45", "hodge", 0,
     "4ed1be00f70be998eb2fcf78ea3e68b9645256970f33850a3dc5ce18a47c598e"),
    ("(0,0,0,12)", "13+24", "compute", 0,
     "9748ef291f3bd269550d6fd50ba84c1c00237d1b4e186de456242332507c36bd"),
    ("(0,0,0,12)", "13+24", "hodge", 0,
     "5a85d83e923976a31194ab15a66422a3cfa0fed418dabe774f034ed0c342090a"),
    ("(0,0,0,12,0,0)", "13+24+56", "compute", 0,
     "def98109b1aee7c5961eef792ddcfbe8ed7843b448151405bb4bfd26136dbf75"),
    ("(0,0,0,12,0,0)", "13+24+56", "hodge", 0,
     "8718b0163e63579f20dded3ca93087abd9ace7e4c3b8c165b7a1f066610acdde"),
    ("(0,0,0,0,0,0)", "12+34+56", "compute", 0,
     "338e0a84761a4cdd2c25eb07374dbcd295fc14cfd99a427d0533dadce0c5471e"),
    ("(0,0,0,0,0,0)", "12+34+56", "hodge", 0,
     "70e1e1cc6ab53ff43304090dcbc9104e99bf4796725c89ef6da6a4ba96a3a984"),
    ("(0,0,0,12,14,15+23+24,0,0)", "16+25-34+78", "compute", 0,
     "7800ad32375f69c36c062774665e3f050aa3689ba5198f734c1ed3b50524c4c5"),
    ("(0,0,0,0,0,0,0,0)", "12+34+56+78", "compute", 0,
     "2d27576c09e0a29c15c8769d95daa94d5e8d36925061cb53d170a3ccc088b243"),
    ("(0,0,0,12,14,15+23+24,0,0,0,0)", "16+25-34+78+9a", "compute", 0,
     "f17955738b71980eee14b3793a62216f3f3963e770d492facd9ecca76f5f9c1e"),
    (N8, "16+25-34+78", "identities", 0,
     "fdd21c8514dd99f44485fe1bbeeddbab19dec92a2986fbb084fd71a369dbe032"),
    (N6, "16+25-34", "lefschetz", 1,
     "8c26c39c185d730e3246113461ab06ff2c836f82404a4c894d3b86c8eff342b9"),
    (N6, "16+25-34", "ddlambda", 1,
     "04e8480b84745bda6631a577fcdd8b085dbc8b51984b9c5df7bc0323c43ef673"),
    (N6, "16+25-34", "index", 0,
     "bad2d3eef79899f754d7b5882c9a1458485a6eeb82980838d86690af72b8ba77"),
    (N6, "2*16+2*25-2*34", "compute", 0,
     "9f3807b4230ab46bc5da6741624a87318ec0ca2c403a20c7ed16982bc090ac72"),
    (N6, "2*16+2*25-2*34", "hodge", 0,
     "489f412184d44c2fc09a018d68e278d61416f89aa7d8c7f6f0ba771eadebaedf"),
    ("(0,0,0,12)", "2*13+24", "compute", 0,
     "253131de6942d9a47b89403f2857285787e5d5e7a595ad18c8d67ccbaed6f1f8"),
    ("(0,0,0,12)", "2*13+24", "hodge", 0,
     "6f38835bd22f89633807578d3eb3c84c27921b89d36e9412f05f19d1ecb4f51f"),
    ("(0,0,0,0,0,0)", "2*12+34+56", "compute", 0,
     "7843b8c8f57012813b520836e0e836b35736fcfa57f22995e7471426a58db114"),
    ("(0,0,0,12,14,15+23+24,0,0,0,0,0,0)", "16+25-34+78+9a+bc", "compute", 0,
     "9b88b986eb77a344c54388d450d51378c97e683dcf32f3fe0a9c5e7f603dfcec"),
    ("(0,0,0,12,14,15+23+24,0,0,0,0)", "16+25-34+78+9a", "identities", 0,
     "796e53ae39c52d4def0bde87367d50a705fca70ceaa230b4eee333fb597de524"),
    (N6, "2*16+2*25-2*34", "identities", 0,
     "99d00ad996baf2f905a50db94fbc19d5739289eb2a6b5c56322137b5b3ded3e2"),
    ("(0,0,0,12)", "2*13+24", "identities", 0,
     "3191196b41472327e6c6a627d04b1a34a9a4f9d1796873f78a7989819c410cc8"),
    (N8, "16+25-34+78", "hodge", 0,
     "8f0538ca2f58ad7312b03d1ae456b4e08fd70ab5d8f0ba0eddde3f3958bb47d9"),
    ("(0,0,0,12,14,15+23+24,0,0,0,0)", "16+25-34+78+9a", "hodge", 0,
     "657347e2ae27d3310391fc57b26a60dd1a183af622477fefae1c9d81e7932e47"),
]


@pytest.mark.parametrize("algebra,omega,command,exit_code,sha256", GOLDEN,
                         ids=[f"{a}-{w}-{c}" for a, w, c, _, _ in GOLDEN])
def test_stdout_matches_pinned_hash(capsys, algebra, omega, command, exit_code, sha256):
    argv = ["compute"] if command == "compute" else ["check", f"--suite={command}"]
    code = main(argv + ["--algebra", algebra, "--omega", omega])
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# compute --format=md: the markdown table prints the same basis strings as
# the JSON; the (0,0,0,12) basis under 2*13+24 holds 1/2 coefficients
MARKDOWN = [
    (N8, "16+25-34+78", "96339974f6c8d8ad34fdf1b6825a9e08e7ca418e9242c95446f0d43831337cca"),
    ("(0,0,0,12)", "2*13+24", "3efd46f14cac5cbb088ef800fe52401d1d2635c57c250b8908653af164a4f2a3"),
]


@pytest.mark.parametrize("algebra,omega,sha256", MARKDOWN,
                         ids=[f"{a}-{w}-compute-md" for a, w, _ in MARKDOWN])
def test_markdown_stdout_matches_pinned_hash(capsys, algebra, omega, sha256):
    code = main(["compute", "--format=md", "--algebra", algebra, "--omega", omega])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
