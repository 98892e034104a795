"""Command-line contract: exit codes, JSON shape, determinism."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import warnings

import pytest

from ckverify import cli
from ckverify.cli import main
from ckverify.parser import print_presentation
from ckverify.presentations import CLAIMS, CKMatrix, cuntz_krieger

CKVERIFY = [sys.executable, "-m", "ckverify"]


def run_cli(*args):
    return subprocess.run(CKVERIFY + list(args), capture_output=True,
                          text=True, timeout=300)


def main_quiet(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# verify

def test_verify_pass_exit_zero(capsys):
    code, out, _ = main_quiet(["verify", "lemma2", "--b", "3"], capsys)
    assert code == 0
    assert "verdict: PASS" in out


@pytest.mark.filterwarnings("ignore:alpha in")
def test_verify_inconclusive_exit_two(capsys):
    code, out, _ = main_quiet(["verify", "theorem1", "--b", "2"], capsys)
    assert code == 2
    assert "verdict: INCONCLUSIVE" in out


def test_verify_bad_modulus_exit_three(capsys):
    code, _, err = main_quiet(["verify", "theorem1", "--b", "1"], capsys)
    assert code == 3
    assert "error" in err


def test_verify_unknown_claim_exit_three():
    r = run_cli("verify", "nosuch")
    assert r.returncode == 3
    assert "invalid choice" in r.stderr


def test_verify_conflicting_modes_exit_three():
    r = run_cli("verify", "lemma1", "--b", "3", "--symbolic")
    assert r.returncode == 3


def test_missing_subcommand_exit_three():
    r = run_cli()
    assert r.returncode == 3


def test_verify_json_shape(capsys):
    code, out, _ = main_quiet(
        ["verify", "corollary1", "--b", "3", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["claim", "mode", "b", "wrapper_len", "verdict",
                         "steps", "curve"]
    assert doc["claim"] == "corollary1"
    assert doc["mode"] == "concrete"
    assert doc["b"] == 3
    assert doc["verdict"] == "PASS"
    assert all(set(s) >= {"name", "verdict"} for s in doc["steps"])
    assert doc["curve"]["lambda"] == "1/5"
    assert doc["curve"]["singular"] is False
    assert "elapsed_ms" not in doc


def test_verify_json_with_certificates(capsys):
    code, out, _ = main_quiet(
        ["verify", "theorem1", "--b", "3", "--format", "json",
         "--certificates"], capsys)
    assert code == 0
    doc = json.loads(out)
    entries = [s["certificate"] for s in doc["steps"]
               if "certificate" in s]
    assert entries
    flat = entries[0]
    assert isinstance(flat, list)
    assert set(flat[0]) == {"left", "relation", "right", "coefficient"}


def test_verify_timing_opt_in(capsys):
    code, out, _ = main_quiet(
        ["verify", "lemma5", "--format", "json", "--timing"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert "elapsed_ms" in doc
    assert isinstance(doc["elapsed_ms"], int)


def test_verify_timing_text_ends_with_elapsed_line(capsys):
    code, out, _ = main_quiet(["verify", "lemma5", "--timing"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert re.fullmatch(r"elapsed: \d+ ms", lines[-1])
    assert lines[-2] == "verdict: PASS"
    assert sum(line.startswith("elapsed:") for line in lines) == 1


def test_byte_identical_json_two_runs():
    """Two symbolic certificate runs must match byte for byte."""
    args = ("verify", "theorem1", "--symbolic", "--certificates",
            "--format", "json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.strip()


# ---------------------------------------------------------------------------
# the degenerate-alpha warning at b = 2

DEGENERATE = ("warning: alpha in {0, 1, -1} lies outside the smooth range of "
              "the quadric family\n")


@pytest.mark.parametrize("args", [("verify", "theorem1", "--b", "2"),
                                  ("sweep", "--from", "2", "--to", "3")])
def test_degenerate_alpha_warning_is_one_line(args):
    r = run_cli(*args)
    assert (r.returncode, r.stderr) == (2, DEGENERATE)
    assert "INCONCLUSIVE" in r.stdout


@pytest.mark.parametrize("args, code, stderr", [
    (("verify", "theorem1", "--b", "2"), 3,
     DEGENERATE.replace("warning:", "error:")),
    (("sweep", "--from", "2", "--to", "3"), 3,
     DEGENERATE.replace("warning:", "error:")),
    (("verify", "lemma5", "--b", "7"), 0, ""),
    *((("verify", claim, "--symbolic", "--certificates", "--format", "json"),
       0, "") for claim in CLAIMS),
], ids=["args0", "args1", "args2", *(f"symbolic-{c}" for c in CLAIMS)])
def test_degenerate_alpha_under_w_error_exit_three(args, code, stderr):
    """Under -W error the warning is raised; it is bad input, reported as
    one error line with no traceback.  A run that warns nothing passes
    with an empty stderr, so a newer Python that deprecates something
    ckverify uses shows here; the symbolic claims also mix int, Fraction
    and Coefficient scalars in the engine, and no mix may warn."""
    r = subprocess.run([sys.executable, "-W", "error", "-m", "ckverify",
                        *args], capture_output=True, text=True, timeout=300)
    assert (r.returncode, r.stderr) == (code, stderr)
    if code == cli.EXIT_INPUT:
        assert r.stdout == ""


def test_main_puts_the_warning_printer_back(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        before = warnings.showwarning
        code, _, err = main_quiet(["verify", "theorem1", "--b", "2"], capsys)
        assert warnings.showwarning is before
    assert code == 2
    assert err and set(err.splitlines(keepends=True)) == {DEGENERATE}


def test_main_keeps_the_category_of_other_warnings(capsys, monkeypatch):
    def deprecated(args):
        warnings.warn("old option", DeprecationWarning)
        return 0

    monkeypatch.setattr(cli, "_cmd_verify", deprecated)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code, _, err = main_quiet(["verify", "lemma2", "--b", "3"], capsys)
    assert code == 0
    assert "DeprecationWarning: old option" in err
    assert __file__ in err


# ---------------------------------------------------------------------------
# a reader that closes stdout early

@pytest.mark.parametrize("args", [
    # a few hundred bytes: they wait in the stdout buffer until the flush
    ("verify", "lemma5", "--b", "7"),
    # about 20 KB: the write fails inside the command
    ("verify", "theorem1", "--b", "7", "--certificates", "--format", "json"),
])
def test_closed_stdout_exits_141_without_traceback(args):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(CKVERIFY + list(args), stdout=write_end,
                           stderr=subprocess.PIPE, text=True, timeout=300)
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (141, "")


# ---------------------------------------------------------------------------
# sweep

def test_sweep_single_row(capsys):
    code, out, _ = main_quiet(
        ["sweep", "--from", "5", "--to", "5", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"
    (row,) = doc["rows"]
    assert row["b"] == 5
    assert row["lambda"] == "3/7"
    assert row["delta_nonzero"] is True
    assert row["singular"] is False


@pytest.mark.filterwarnings("ignore:alpha in")
def test_sweep_includes_singular_b2(capsys):
    code, out, _ = main_quiet(
        ["sweep", "--from", "2", "--to", "3", "--format", "json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "INCONCLUSIVE"
    first, second = doc["rows"]
    assert first["singular"] is True and first["j"] is None
    assert second["singular"] is False


def test_sweep_bad_range_exit_three(capsys):
    code, _, err = main_quiet(["sweep", "--from", "3", "--to", "2"], capsys)
    assert code == 3
    assert err == "error: need 2 <= from <= to\n"
    code, _, _ = main_quiet(["sweep", "--from", "1", "--to", "3"], capsys)
    assert code == 3


def test_sweep_text_table(capsys):
    code, out, _ = main_quiet(["sweep", "--from", "6", "--to", "6"], capsys)
    assert code == 0
    assert "1728" in out
    assert "overall: PASS" in out


# ---------------------------------------------------------------------------
# check-file

STABLE_TEXT = """\
GENERATORS: x1 x2 x3 x4
INVOLUTION: x1 -> x2; x2 -> x1; x3 -> x4; x4 -> x3
RELATIONS:
  x1*x1 + x4*x4
  x2*x2 + x3*x3
"""

UNSTABLE_TEXT = """\
GENERATORS: x1 x2 x3 x4
INVOLUTION: x1 -> x2; x2 -> x1; x3 -> x4; x4 -> x3
RELATIONS:
  x1*x3
"""


def test_check_file_stable(tmp_path, capsys):
    f = tmp_path / "p.pres"
    f.write_text(STABLE_TEXT)
    code, out, _ = main_quiet(
        ["check-file", str(f), "--involution-stability"], capsys)
    assert code == 0
    assert "verdict: STABLE" in out
    assert "r1" in out and "r2" in out


def test_check_file_unstable(tmp_path, capsys):
    f = tmp_path / "p.pres"
    f.write_text(UNSTABLE_TEXT)
    code, out, _ = main_quiet(
        ["check-file", str(f), "--involution-stability"], capsys)
    assert code == 1
    assert "verdict: UNSTABLE" in out
    assert "NON_MEMBER" in out


def test_check_file_parse_error(tmp_path, capsys):
    f = tmp_path / "p.pres"
    f.write_text("GENERATORS: x1 x2\nRELATIONS:\n  x1*+x2\n")
    code, _, err = main_quiet(
        ["check-file", str(f), "--involution-stability"], capsys)
    assert code == 3
    assert err == "error: missing INVOLUTION section (line 1, column 1)\n"


def test_check_file_missing_file(capsys):
    code, _, err = main_quiet(
        ["check-file", "/nonexistent/q.pres", "--involution-stability"],
        capsys)
    assert code == 3
    assert "cannot read" in err


def test_check_file_flag_required():
    r = run_cli("check-file", "whatever.pres")
    assert r.returncode == 3


def _relation_file(tmp_path, relation):
    f = tmp_path / "p.pres"
    f.write_text("GENERATORS: x1 x2 x3 x4\n"
                 "INVOLUTION: x1 -> x2; x2 -> x1; x3 -> x4; x4 -> x3\n"
                 f"RELATIONS:\n  {relation}\n")
    return f


@pytest.mark.parametrize("relation", ["(" * 3000 + "x1" + ")" * 3000,
                                      "-" * 3000 + "x1"],
                         ids=["parentheses", "minus_signs"])
def test_check_file_deep_nesting_exit_three(relation, tmp_path, capsys):
    f = _relation_file(tmp_path, relation)
    code, _, err = main_quiet(
        ["check-file", str(f), "--involution-stability"], capsys)
    assert code == 3
    assert "nested deeper" in err and "line 4" in err


@pytest.mark.parametrize("relation,message",
                         [("(x1+x2)^40", "1099511627776 terms"),
                          ("x1^1000000", "exponent 1000000"),
                          ("(x1+x2)^8*(x1+x2)^8", "product of up to 65536")],
                         ids=["terms", "exponent", "product"])
def test_check_file_power_bound_exit_three(relation, message, tmp_path,
                                           capsys):
    f = _relation_file(tmp_path, relation)
    started = time.monotonic()
    code, _, err = main_quiet(
        ["check-file", str(f), "--involution-stability"], capsys)
    assert time.monotonic() - started < 1.0
    assert code == 3
    assert message in err


@pytest.mark.parametrize("relation,col",
                         [("7" * 5000 + "*x1*x2 - x2*x1", 3),
                          ("x1^" + "9" * 5000, 6),
                          ("x1*x2 " + "7" * 5000, 9)],
                         ids=["coefficient", "exponent", "trailing"])
def test_check_file_number_past_the_int_string_limit_exit_three(
        relation, col, tmp_path, capsys):
    f = _relation_file(tmp_path, relation)
    code, out, err = main_quiet(
        ["check-file", str(f), "--involution-stability"], capsys)
    assert code == 3 and out == ""
    assert err == "error: number longer than 4300 digits " \
        f"(line 4, column {col})\n"


@pytest.mark.parametrize("relation",
                         ["M*M*x1*x2 - x2*x1".replace("M", "7" * 4300),
                          "((2^100)^100)^2*x1*x2 - x2*x1"],
                         ids=["product", "power"])
def test_check_file_coefficient_past_the_digit_limit_exit_three(
        relation, tmp_path, capsys):
    """A coefficient too long to print is refused at its line before any
    verdict work, not when the relation is printed."""
    f = _relation_file(tmp_path, relation)
    code, out, err = main_quiet(
        ["check-file", str(f), "--involution-stability"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: coefficient longer than 4300 digits " \
        "(line 4, column 1)\n"


def test_check_file_coefficient_at_the_digit_limit_is_printed(tmp_path,
                                                              capsys):
    big = "9" * 4300
    f = _relation_file(tmp_path, f"{big}*x1*x2 - x2*x1")
    code, out, err = main_quiet(
        ["check-file", str(f), "--involution-stability"], capsys)
    assert (code, err) == (0, "")
    assert out == f"r1 [{big}*x1*x2 - x2*x1]: MEMBER\nverdict: STABLE\n"


def test_check_file_reads_a_byte_order_mark(tmp_path, capsys):
    f = _relation_file(tmp_path, "x1*x2 - x2*x1")
    plain = main_quiet(["check-file", str(f), "--involution-stability"],
                       capsys)
    f.write_bytes(b"\xef\xbb\xbf" + f.read_bytes())
    assert main_quiet(["check-file", str(f), "--involution-stability"],
                      capsys) == plain
    assert plain[0] == 0


def test_check_file_undecodable_byte_exit_three(tmp_path, capsys):
    f = _relation_file(tmp_path, "x1*x2 - x2*x1")
    f.write_bytes(f.read_bytes().replace(b"- x2", b"\xff x2"))
    code, out, err = main_quiet(
        ["check-file", str(f), "--involution-stability"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: invalid UTF-8 byte 0xff (line 4, column 9)\n"


def _exchange_file(tmp_path):
    f = tmp_path / "exchange.pres"
    f.write_text(print_presentation(cuntz_krieger(CKMatrix.for_modulus(7))))
    return f


@pytest.mark.parametrize("command,wrapper_len,message",
                         [("verify", "8", "needs 5,301,135 wrapped rows"),
                          ("check-file", "8", "needs 2,271,915 wrapped rows"),
                          ("check-file", str(10 ** 12), "needs more than")],
                         ids=["verify", "check_file", "check_file_huge"])
def test_wrapper_len_budget_exit_three(command, wrapper_len, message,
                                       tmp_path, capsys):
    # theorem1 checks 7 relations, the exchange file has 3, all over 4
    # generators: 7 or 3 times the sum of (t+1)*4^t for t <= 8 rows
    argv = ["verify", "theorem1", "--b", "7"] if command == "verify" else \
        ["check-file", str(_exchange_file(tmp_path)), "--involution-stability"]
    started = time.monotonic()
    code, out, err = main_quiet(argv + ["--wrapper-len", wrapper_len], capsys)
    assert time.monotonic() - started < 1.0
    assert code == 3 and out == ""
    assert message in err and "the limit is 100,000" in err


def test_graded_slice_budget_exit_three(tmp_path):
    # the image x2^12 of x1^12 lies in a degree-12 slice of 12*3^11 + 1
    # rows, which is refused before any row is built
    f = tmp_path / "power.pres"
    f.write_text("GENERATORS: x1 x2 x3\n"
                 "INVOLUTION: x1 -> x2; x2 -> x1; x3 -> x3\n"
                 "RELATIONS:\n  x3\n  x1^12\n")
    r = subprocess.run(CKVERIFY + ["check-file", str(f),
                                   "--involution-stability"],
                       capture_output=True, text=True, timeout=60)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == ("error: the degree-12 slice needs 2,125,765 wrapped "
                        "rows (2 relations over 3 generators); the limit is "
                        "100,000\n")


def test_check_file_negative_wrapper_len_exit_three(tmp_path, capsys):
    argv = ["check-file", str(_exchange_file(tmp_path)),
            "--involution-stability", "--wrapper-len", "-1"]
    code, out, err = main_quiet(argv, capsys)
    assert (code, out, err) == (3, "", "error: wrapper length must be "
                                      "nonnegative\n")


def test_wrapper_len_within_budget_runs(tmp_path, capsys):
    f = _exchange_file(tmp_path)
    code, out, _ = main_quiet(["check-file", str(f), "--involution-stability",
                               "--wrapper-len", "3"], capsys)
    assert code == 0 and "verdict: STABLE" in out


# The image of r3 is x1*r1*x1, so it is certified at wrapper length 2 (the
# default) and left open at 1.
WRAPPER_TWO_TEXT = """\
GENERATORS: x1 x2 x3 x4
INVOLUTION: x1 -> x1; x2 -> x2; x3 -> x4; x4 -> x3
RELATIONS:
  x3 - 1
  x4 - 1
  x1*x4*x1 - x1*x1
"""


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    # main builds its argument parser once per process; no call may leave
    # an option value or an error behind for the next one
    lemma5 = ["verify", "lemma5", "--b", "7"]
    code, out, _ = main_quiet(lemma5 + ["--wrapper-len", "3"], capsys)
    assert code == 0 and "wrapper length: 3\n" in out
    code, out, _ = main_quiet(lemma5, capsys)
    assert code == 0 and "wrapper length: 2\n" in out

    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "lemma5", "--b", "7", "--symbolic"])
        errors.append((exc.value.code, capsys.readouterr().err))
    assert errors[0] == errors[1]
    assert errors[0][0] == 3 and "not allowed with argument" in errors[0][1]

    f = tmp_path / "p.pres"
    f.write_text(WRAPPER_TWO_TEXT)
    argv = ["check-file", str(f), "--involution-stability"]
    code, out, _ = main_quiet(argv + ["--wrapper-len", "1"], capsys)
    assert code == 2 and "r3 [x1*x4*x1 - x1*x1]: INCONCLUSIVE" in out
    code, out, _ = main_quiet(argv, capsys)
    assert code == 0 and "r3 [x1*x4*x1 - x1*x1]: MEMBER" in out


@pytest.mark.parametrize("params,line", [("a~b b~c", 2), ("a~b\nPARAMS: a~c", 3),
                                         ("a~a a~b", 2), ("a a~b", 2),
                                         ("a~b a", 2)],
                         ids=["chain", "second_line", "self_paired",
                              "plain_then_paired", "paired_then_plain"])
def test_check_file_param_paired_twice_exit_three(params, line, tmp_path,
                                                  capsys):
    f = tmp_path / "p.pres"
    f.write_text(f"GENERATORS: x1\nPARAMS: {params}\n"
                 "INVOLUTION: x1 -> x1\nRELATIONS:\n  x1\n")
    code, out, err = main_quiet(
        ["check-file", str(f), "--involution-stability"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: parameter ") and "paired with both" in err
    assert err.endswith(f"(line {line}, column 1)\n")


def test_check_file_repeated_param_pair_allowed(tmp_path, capsys):
    f = tmp_path / "p.pres"
    f.write_text("GENERATORS: x1 x2\nPARAMS: a~abar abar~a\nPARAMS: a~abar\n"
                 "INVOLUTION: x1 -> x2; x2 -> x1\nRELATIONS:\n"
                 "  a*x1*x1 + abar*x2*x2\n")
    code, out, _ = main_quiet(
        ["check-file", str(f), "--involution-stability"], capsys)
    assert code == 0 and "verdict: STABLE" in out
