import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symcoh.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_primitive_groups(capsys):
    code, out, _ = run_cli(capsys, "compute",
                           "--algebra", "(0,0,0,12,14,15+23+24)",
                           "--omega", "16+25-34", "--groups", "p+,p-")
    assert code == 0
    report = json.loads(out)
    for name in ("p+", "p-"):
        dims = [report["groups"][name][str(k)]["dim"] for k in range(3)]
        assert dims == [1, 3, 5]


def test_compute_torus_de_rham(capsys):
    code, out, _ = run_cli(capsys, "compute", "--algebra", "(0,0,0,0,0,0)",
                           "--omega", "12+34+56", "--groups", "dR")
    assert code == 0
    report = json.loads(out)
    dims = [report["groups"]["dR"][str(k)]["dim"] for k in range(7)]
    assert dims == [1, 6, 15, 20, 15, 6, 1]


def test_degenerate_omega_is_input_error(capsys):
    code, _, err = run_cli(capsys, "compute", "--omega", "12")
    assert code == 2
    assert "degenerate" in err


def test_degenerate_omega_without_a_zero_row_is_input_error(capsys):
    """12+13+14 on R^4 has Pfaffian 0 and no zero row."""
    code, out, err = run_cli(capsys, "compute", "--algebra=(0,0,0,0)", "--omega=12+13+14")
    assert code == 2 and out == ""
    assert err.startswith("error: omega is not symplectic: degenerate (omega is degenerate")
    assert "Traceback" not in err


# one past int()'s default limit on the digits it converts
HUGE = "9" * 4301


@pytest.mark.parametrize("option", [
    "--omega=²*e13+e24", "--omega=13+²*24", "--algebra=(0,0,0,²*12)",
    pytest.param(f"--omega={HUGE}*e13+e24", id="huge-numerator"),
    pytest.param(f"--omega=1/{HUGE}*e13+e24", id="huge-denominator"),
    pytest.param(f"--omega=13+{HUGE}*24", id="huge-shorthand"),
    pytest.param(f"--algebra=(0,0,0,{HUGE}*12)", id="huge-tuple"),
])
def test_a_non_decimal_digit_is_input_error(capsys, option):
    """'²' passes str.isdigit, but int() refuses it; the parsers read the
    characters int() reads, the str.isdecimal ones.  A number of more
    digits than int() converts is an input error too."""
    code, out, err = run_cli(capsys, "compute", option)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("option, pos", [
    pytest.param(f"--omega={'1' * 4301}*e16+e25-e34", 0, id="omega"),
    pytest.param(f"--algebra=(0,0,0,12,14,{'1' * 4301}*15+23+24)", 13, id="algebra"),
])
def test_a_long_input_is_not_echoed_whole(capsys, option, pos):
    """The error shows a window of the input around the failing position."""
    code, out, err = run_cli(capsys, "compute", option)
    assert code == 2 and out == ""
    assert err.endswith("\n") and "\n" not in err[:-1] and len(err) < 200, len(err)
    assert f"position {pos}:" in err and "…" in err


def test_non_closed_omega_is_distinguished(capsys):
    code, _, err = run_cli(capsys, "compute", "--omega", "16+25-34+46")
    assert code == 2
    assert "not closed" in err


def test_parse_error_has_position(capsys):
    code, _, err = run_cli(capsys, "compute", "--omega", "16+2x-34")
    assert code == 2
    assert "position" in err


TERM = "expected a two-index term like '12' at position"


@pytest.mark.parametrize("option, message", [
    pytest.param("--algebra=(0,0,0,1x)", f"bad algebra: {TERM} 7: '(0,0,0,1x)'", id="tuple"),
    pytest.param("--algebra=   (0,0,0,1x)", f"bad algebra: {TERM} 10: '   (0,0,0,1x)'",
                 id="padded-tuple"),
    pytest.param("--algebra=(0,0,0,  1x)", f"bad algebra: {TERM} 9: '(0,0,0,  1x)'",
                 id="padded-entry"),
    pytest.param("--omega=16+2x5", f"bad omega: {TERM} 3: '16+2x5'", id="shorthand"),
    pytest.param("--omega=  16+2x5", f"bad omega: {TERM} 5: '  16+2x5'",
                 id="padded-shorthand"),
])
def test_parse_positions_count_from_the_raw_text(capsys, option, message):
    """Blanks before the tuple, before an entry or before the omega
    shorthand count toward the position of the bad term."""
    code, out, err = run_cli(capsys, "compute", option)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_bad_algebra_is_input_error(capsys):
    code, _, err = run_cli(capsys, "compute", "--algebra", "(0,0,12)")
    assert code == 2
    assert "algebra" in err


def test_unknown_group(capsys):
    code, _, err = run_cli(capsys, "compute", "--groups", "p+,bogus")
    assert code == 2
    assert "unknown group" in err


def test_degree_out_of_range(capsys):
    code, _, err = run_cli(capsys, "compute", "--groups", "p+", "--degrees", "3")
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("option", ["--groups=,", "--degrees="])
def test_empty_list_option_is_input_error(capsys, option):
    code, out, err = run_cli(capsys, "compute", option)
    assert code == 2
    assert not out
    assert err.startswith("error:") and option.split("=")[0] in err


def test_degrees_filter(capsys):
    code, out, _ = run_cli(capsys, "compute", "--groups", "dR", "--degrees", "1,2")
    assert code == 0
    report = json.loads(out)
    assert sorted(report["groups"]["dR"]) == ["1", "2"]


def test_deterministic_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "compute", "--groups", "p+,p-,dR")
    _, second, _ = run_cli(capsys, "compute", "--groups", "p+,p-,dR")
    assert first == second


def test_json_round_trip_stable(capsys):
    _, out, _ = run_cli(capsys, "compute", "--groups", "d+dL")
    report = json.loads(out)
    assert json.dumps(report, indent=2) + "\n" == out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "compute", "--groups", "p+", "--out", str(target))
    assert code == 0 and out == ""
    report = json.loads(target.read_text())
    assert report["groups"]["p+"]["2"]["dim"] == 5


def test_algebra_file_json(tmp_path, capsys):
    src = {"dim": 6, "d": {"4": [[1, 2, 1]], "5": [[1, 4, 1]],
                           "6": [[1, 5, 1], [2, 3, 1], [2, 4, 1]]}}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(src))
    code, out, _ = run_cli(capsys, "compute", "--algebra-file", str(path),
                           "--groups", "p+")
    assert code == 0
    report = json.loads(out)
    assert [report["groups"]["p+"][str(k)]["dim"] for k in range(3)] == [1, 3, 5]


def test_markdown_format(capsys):
    code, out, _ = run_cli(capsys, "compute", "--groups", "p+", "--format", "md")
    assert code == 0
    assert "| group |" in out and "| p+ |" in out


def test_check_identities_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "identities")
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["identities"]["passed"]


def test_check_symbol(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "symbol", "--n", "2")
    assert code == 0
    assert json.loads(out)["checks"]["symbol"]["passed"]


@pytest.mark.parametrize("n", ["0", "-1", "8"])
def test_symbol_n_out_of_range_is_input_error(capsys, n):
    code, out, err = run_cli(capsys, "check", "--suite", "symbol", "--n", n)
    assert code == 2 and out == ""
    assert err.startswith("error: --n must be in 1..7")


def test_check_symbol_seed_flag(capsys):
    code, first, _ = run_cli(capsys, "check", "--suite", "symbol", "--n", "2",
                             "--seed", "7")
    assert code == 0
    _, second, _ = run_cli(capsys, "check", "--suite", "symbol", "--n", "2",
                           "--seed", "7")
    assert first == second


@pytest.mark.parametrize("option", [
    "--algebra=garbage", "--omega=zzz", "--omega=12"])
def test_symbol_suite_rejects_bad_fixture(capsys, option):
    code, out, err = run_cli(capsys, "check", "--suite=symbol", "--n=1", option)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_suites_in_one_run_match_single_runs(capsys):
    code, combined, _ = run_cli(capsys, "check", "--suite=lefschetz,ddlambda,index")
    checks = json.loads(combined)["checks"]
    assert list(checks) == ["lefschetz", "ddlambda", "index"]
    codes = []
    for name in checks:
        single_code, single, _ = run_cli(capsys, "check", f"--suite={name}")
        assert json.loads(single)["checks"] == {name: checks[name]}
        codes.append(single_code)
    assert code == max(codes)


def test_check_lefschetz_reports_failure(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "lefschetz",
                           "--omega", "16+25-34")
    assert code == 1
    report = json.loads(out)
    chk = report["checks"]["lefschetz"]
    assert not chk["passed"]
    assert any("H^1 -> H^3 not injective" in d for d in chk["details"])


def test_check_lefschetz_second_form_diagnostic(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "lefschetz",
                           "--omega", "13+26-45")
    assert code == 1  # omega^2: H^1 -> H^5 has rank 2 there
    report = json.loads(out)
    assert any("H^1 -> H^3 injective" in d
               for d in report["checks"]["lefschetz"]["details"])


def test_check_ddlambda_and_index(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "ddlambda,index")
    assert code == 1  # the exactness lemma fails on the default fixture
    report = json.loads(out)
    assert not report["checks"]["ddlambda"]["passed"]
    assert report["checks"]["index"]["passed"]


def test_check_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "check", "--suite", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_check_requires_suite(capsys):
    """A missing --suite and one that names no suite get the same error."""
    for suite in ((), ("--suite", ",")):
        code, out, err = run_cli(capsys, "check", *suite)
        assert (code, out, err) == (2, "", "error: check requires --suite\n"), suite


def test_out_to_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "compute", "--groups", "p+", "--out", str(target))
    assert code == 2 and out == ""
    assert "error: cannot write" in err
    assert not target.exists()


def assert_stdout_write_fails(stdout):
    """``python -m symcoh compute`` in a fresh interpreter, its stdout on
    ``stdout``, exits 2 with one error line and no traceback."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "symcoh", "compute"], stdout=stdout,
                          stderr=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits_2_without_a_traceback():
    with open("/dev/full", "w") as full:
        assert_stdout_write_fails(full)


def test_a_closed_pipe_on_stdout_exits_2_without_a_traceback():
    read, write = os.pipe()
    os.close(read)
    try:
        assert_stdout_write_fails(write)
    finally:
        os.close(write)


@pytest.mark.parametrize("terms", [
    '[[true, 2, 1]]', '[[1, 2, false]]', '[[1, 2, "x"]]', '[[1, 2, "1/0"]]', '5',
    # a coefficient string is an integer or p/q, not any string Fraction reads
    '[[1, 2, "1e3"]]', '[[1, 2, "0.5"]]',
    pytest.param(f'[[1, 2, {HUGE}]]', id="huge-int"),
    pytest.param("[" * 100000, id="deeply-nested"),
    # bytes go through --algebra-file
    pytest.param(b'[[1, 2, "\xff\xfe"]]', id="file-not-utf8"),
])
def test_bad_json_algebra_is_input_error(capsys, tmp_path, terms):
    if isinstance(terms, bytes):
        path = tmp_path / "algebra.json"
        path.write_bytes(b'{"dim": 4, "d": {"3": ' + terms + b'}}')
        source = ("--algebra-file", str(path))
    else:
        source = ("--algebra", '{"dim": 4, "d": {"3": ' + terms + '}}')
    code, out, err = run_cli(capsys, "compute", *source,
                             "--omega", "14+23", "--groups", "dR")
    assert code == 2 and out == ""
    assert "bad algebra" in err


# argparse turns the option value "--" into [] and skips its type and
# choices checks, so every option gets its own case here
@pytest.mark.parametrize("argv", [
    ["compute", "--algebra=--"],
    ["compute", "--algebra-file=--"],
    ["compute", "--omega=--"],
    ["compute", "--format=--"],
    ["compute", "--out=--"],
    ["compute", "--groups=--"],
    ["compute", "--degrees=--"],
    ["check", "--suite=--"],
    ["check", "--suite=symbol", "--n=--"],
    ["check", "--suite=symbol", "--seed=--"],
], ids=lambda argv: argv[-1])
def test_double_dash_option_value_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_hodge_shares_the_check_calculator(capsys, monkeypatch):
    """``hodge`` reads its quotients from the calculator the other suites
    use, so naming ``index`` too computes no group a second time: every
    group is formed by one ``_finish`` call."""
    from symcoh.cohomology import CohomologyCalculator

    computed = []
    finish = CohomologyCalculator._finish

    def counting(self, name, k, num, den):
        computed.append((name, k))
        return finish(self, name, k, num, den)

    monkeypatch.setattr(CohomologyCalculator, "_finish", counting)
    counts = {}
    for suites in ("hodge", "index", "hodge,index"):
        computed.clear()
        assert run_cli(capsys, "check", f"--suite={suites}")[0] == 0
        counts[suites] = len(computed)
    assert counts["hodge"] > 0 and counts["index"] > 0
    assert counts["hodge,index"] == counts["hodge"]


def test_a_suite_named_twice_runs_once(capsys, monkeypatch):
    """Each named suite runs once, in first-given order, and the report is
    the one of the suites named once."""
    from symcoh.cohomology import CohomologyCalculator

    calls = []
    check = CohomologyCalculator.check_ddlambda_lemma

    def counting(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(CohomologyCalculator, "check_ddlambda_lemma", counting)
    once = run_cli(capsys, "check", "--suite=ddlambda,index")
    assert len(calls) == 1
    calls.clear()
    assert run_cli(capsys, "check", "--suite=ddlambda,index,ddlambda,index") == once
    assert len(calls) == 1
    assert list(json.loads(once[1])["checks"]) == ["ddlambda", "index"]
