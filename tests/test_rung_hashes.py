"""``tools/rung_hashes.py``'s rung selection, with no rung run: the tool is
imported from its file, and every case here fails before a subprocess starts.
"""

import importlib.util
from pathlib import Path

import pytest

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
