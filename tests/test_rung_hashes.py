"""``tools/rung_hashes.py``'s rung selection and pinned tables, with no rung
run: the tool is imported from its file, and every case here fails before a
subprocess starts.
"""

import importlib.util
from pathlib import Path

import pytest

from fixtures import texts
from test_golden import GOLDEN

TOOL = Path(__file__).resolve().parent.parent / "tools" / "rung_hashes.py"
_spec = importlib.util.spec_from_file_location("rung_hashes", TOOL)
rung_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rung_hashes)

NAMES = [rung[0] for rung in rung_hashes.RUNGS]


def test_every_rung_has_its_own_name():
    assert len(NAMES) == len(set(NAMES)) == 23


def test_only_selects_exact_names_in_table_order():
    assert rung_hashes.select(None) == rung_hashes.RUNGS
    picked = rung_hashes.select(["N14 identities", "N6 compute", "N14 identities"])
    assert [rung[0] for rung in picked] == ["N6 compute", "N14 identities"]
    # a prefix of a name, or a name of another case, is not a name
    for wrong in ("N14", "n14 identities", "N14 identities "):
        with pytest.raises(KeyError):
            rung_hashes.select([wrong])


@pytest.mark.parametrize("argv", [["--only", "N14"],
                                  ["--only", "N6 compute", "--only", "N16 compute"],
                                  ["--only", "N6 compute", "--rounds", "0"]])
def test_bad_selection_exits_2_before_any_run(argv, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a rung ran")

    monkeypatch.setattr(rung_hashes, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        rung_hashes.main(argv)
    assert exc.value.code == 2
    assert ": error: " in capsys.readouterr().err


def test_status_names_each_mismatch():
    assert rung_hashes.status("abc", 0, "abc", 0) == "ok"
    assert rung_hashes.status("abd", 0, "abc", 0) == "MISMATCH, pinned abc"
    assert rung_hashes.status("abc", 1, "abc", 0) == "ok, exit 1, pinned 0"


def test_the_tool_fixtures_are_the_test_fixtures():
    for name in ("N8", "N10", "N12", "N14", "T8"):
        assert getattr(rung_hashes, name) == texts(name), name


# the runs both the tool and test_golden pin: (rung, fixture, test_golden command)
SHARED = [("N6 compute", "N6", "compute"), ("N12 compute", "N12", "compute"),
          ("N8 hodge", "N8", "hodge"), ("N10 hodge", "N10", "hodge"),
          ("N10 identities", "N10", "identities")]


@pytest.mark.parametrize("rung, fixture, command", SHARED, ids=[r for r, _, _ in SHARED])
def test_a_run_both_tables_pin_has_one_hash(rung, fixture, command):
    """The tool's 12-digit prefix and exit code are test_golden's, on the
    same command line; N6 is the CLI's default fixture."""
    _, argv, prefix, code = {r[0]: r for r in rung_hashes.RUNGS}[rung]
    exit_code, sha256 = {(n, c): (e, h) for n, c, e, h in GOLDEN}[fixture, command]
    assert len(prefix) == 12 and sha256.startswith(prefix) and code == exit_code
    cmd = ["compute"] if command == "compute" else ["check", f"--suite={command}"]
    assert argv == (cmd if fixture == "N6" else rung_hashes._fixture(cmd, texts(fixture)))
