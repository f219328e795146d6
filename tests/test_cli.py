import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinhalg
from spinhalg.cli import build_parser, main
from spinhalg.steenrod import StiefelWhitneyRing

from schema_check import SchemaError, load_schema, validate


GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv, timeout=60):
    env = dict(os.environ, PYTHONPATH=str(Path(spinhalg.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "spinhalg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestClassifyCommand:
    def test_variant_choices_are_cliffords(self):
        # the parser lists the names as literals, so that it need not
        # import clifford, modules or ktheory; each list must be its
        # family's
        from spinhalg import clifford, ktheory, modules
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))

        def choices(command, dest):
            return next(a.choices for a in subparsers.choices[command]._actions
                        if a.dest == dest)

        assert choices("classify", "variant") == list(clifford.VARIANTS)
        assert choices("dims", "field") == list(modules.FIELDS)
        assert choices("ngroup", "field") == list(modules.FIELDS)
        assert choices("ktable", "theory") == list(ktheory.THEORIES)

    def test_table_entry(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "6", "--variant", "Clh")
        assert code == 0 and out == "H(8)\n"

    def test_indefinite(self, capsys):
        code, out, _ = run(capsys, "classify", "--r", "5", "--s", "1")
        assert code == 0 and out == "H(4)\n"

    def test_quaternionic_indefinite(self, capsys):
        code, out, _ = run(capsys, "classify", "--r", "4", "--s", "0", "--quaternionic")
        assert code == 0 and out == "R(8)\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "6", "--variant", "Clh",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, load_schema("classify"))
        assert payload == {"field": "H", "simple": True, "size": 8}

    def test_conflicting_flags(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "3", "--r", "1")
        assert code == 1 and "error[ValueError]" in err

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 1

    # --variant belongs to --n and --quaternionic to --r/--s; each is
    # refused with the other form rather than ignored
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv, message", [
        (("--n", "3", "--quaternionic"), "--quaternionic applies to --r/--s, not to --n"),
        (("--r", "3", "--s", "0", "--variant", "Clh"),
         "--variant applies to --n, not to --r/--s"),
        (("--r", "3", "--s", "0", "--variant", "CCl"),
         "--variant applies to --n, not to --r/--s"),
    ])
    def test_flag_of_the_other_form_is_an_error(self, capsys, fmt, argv, message):
        code, out, err = run(capsys, "classify", *argv, "--format", fmt)
        assert (code, out, err) == (1, "", f"error[ValueError]: {message}\n")

    def test_default_variant_with_signature(self, capsys):
        explicit = run(capsys, "classify", "--r", "3", "--s", "0", "--variant", "Cl")
        assert explicit == run(capsys, "classify", "--r", "3", "--s", "0") == (0, "H+H\n", "")

    @pytest.mark.parametrize("argv", [("--n", "1024", "--variant", "CClh"),
                                      ("--r", "1000", "--s", "24")])
    def test_largest_n_under_the_cap(self, capsys, argv):
        code, out, err = run(capsys, "classify", *argv)
        assert code == 0 and err == ""
        assert out.startswith(("C(", "R(", "H("))

    @pytest.mark.parametrize("argv, n", [(("--n", "100000"), 100000),
                                         (("--n", "1025"), 1025),
                                         (("--r", "1000", "--s", "25"), 1025)])
    def test_n_above_the_cap_is_an_error(self, capsys, argv, n):
        code, out, err = run(capsys, "classify", *argv)
        assert (code, out) == (1, "")
        assert err == f"error[ValueError]: n = {n} exceeds the classification cap 1024\n"


class TestDimsAndNgroup:
    def test_dims(self, capsys):
        code, out, _ = run(capsys, "dims", "--n", "3", "--field", "H")
        assert code == 0 and out == "8\n"

    def test_dims_json(self, capsys):
        _, out, _ = run(capsys, "dims", "--n", "7", "--field", "C", "--format", "json")
        payload = json.loads(out)
        validate(payload, load_schema("dims"))
        assert payload["dimension"] == 32

    @pytest.mark.parametrize("field, top", [("R", 16), ("C", 32), ("H", 64)])
    def test_dims_at_the_cap(self, capsys, field, top):
        # d(1024) = d(8) * 16^127: the dimension table for n = 1..8,
        # padded by 16 per period
        code, out, err = run(capsys, "dims", "--n", "1024", "--field", field)
        assert (code, out, err) == (0, f"{top * 16 ** 127}\n", "")

    @pytest.mark.parametrize("n", ["1025", "100000"])
    def test_dims_above_the_cap_is_an_error(self, capsys, n):
        code, out, err = run(capsys, "dims", "--n", n, "--field", "R")
        assert (code, out) == (1, "")
        assert err == f"error[ValueError]: n = {n} exceeds the classification cap 1024\n"

    def test_ngroup(self, capsys):
        code, out, _ = run(capsys, "ngroup", "--n", "5", "--field", "H")
        assert code == 0 and out == "Z2\n"

    def test_ngroup_bigraded(self, capsys):
        code, out, _ = run(capsys, "ngroup", "--r", "4", "--s", "0", "--field", "H")
        assert code == 0 and out == "Z\n"

    @pytest.mark.parametrize("argv, message", [
        (["--n", "5", "--r", "1", "--s", "0"], "give either --n or --r/--s, not both"),
        (["--n", "5", "--s", "2"], "give either --n or --r/--s, not both"),
        ([], "one of --n or --r/--s is required"),
    ])
    def test_ngroup_resolves_n_and_signature_like_classify(self, capsys, argv, message):
        code, out, err = run(capsys, "ngroup", *argv, "--field", "R")
        assert (code, out, err) == (1, "", f"error[ValueError]: {message}\n")
        assert run(capsys, "classify", *argv) == (code, out, err)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [("--r", "3", "--s", "0"), ("--n", "3")])
    def test_ngroup_h_over_the_reals_is_an_error(self, capsys, fmt, argv):
        # --h asks for complex scalars, which the bigraded (R and H) tables lack
        code, out, err = run(capsys, "ngroup", *argv, "--field", "R", "--h",
                             "--format", fmt)
        assert (code, out, err) == (
            1, "", "error[ValueError]: the h variant only applies to complex scalars\n")

    def test_ngroup_json(self, capsys):
        _, out, _ = run(capsys, "ngroup", "--n", "20", "--field", "R", "--format", "json")
        payload = json.loads(out)
        validate(payload, load_schema("ngroup"))
        assert payload["group"] == "Z"


class TestGenusCommand:
    @pytest.mark.parametrize("sig,euler,orient,expected", [
        ("1", "3", "+", "2"),
        ("1", "3", "-", "-1"),
        ("0", "2", "+", "1"),
    ])
    def test_values(self, capsys, sig, euler, orient, expected):
        code, out, _ = run(capsys, "genus", "--sig", sig, "--euler", euler,
                           "--orientation", orient)
        assert code == 0 and out == expected + "\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "genus", "--sig", "1", "--euler", "3",
                        "--orientation", "+", "--format", "json")
        payload = json.loads(out)
        validate(payload, load_schema("genus"))
        assert payload["genus"] == "2"

    @pytest.mark.parametrize("sig, euler", [("1", "2"), ("-3", "0")])
    def test_signature_and_euler_of_different_parity(self, sig, euler):
        proc = run_subprocess("genus", f"--sig={sig}", f"--euler={euler}",
                              "--orientation", "+")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error[IntegralityError]: signature {sig} and Euler "
                               f"characteristic {euler} differ mod 2\n")


class TestHpTable:
    def test_text_matrix(self, capsys):
        code, out, _ = run(capsys, "hp-table", "--max-i", "2", "--max-j", "2")
        assert code == 0
        assert out == "1 0 0\n2 1 0\n3 4 1\n"

    def test_tsv(self, capsys):
        _, out, _ = run(capsys, "hp-table", "--max-i", "1", "--max-j", "1",
                        "--format", "tsv")
        assert out == "1\t0\n2\t1\n"

    def test_json_and_methods_agree(self, capsys):
        _, out, _ = run(capsys, "hp-table", "--max-i", "3", "--max-j", "3",
                        "--format", "json")
        payload = json.loads(out)
        validate(payload, load_schema("hp_table"))
        for method in ("residue", "chebyshev"):
            _, out2, _ = run(capsys, "hp-table", "--max-i", "3", "--max-j", "3",
                             "--format", "json", "--method", method)
            assert json.loads(out2)["matrix"] == payload["matrix"]

    def test_trunc_override(self, capsys):
        # the table's size sets the series truncation; no option overrides it
        code, out, _ = run(capsys, "hp-table", "--max-i", "2", "--max-j", "2",
                           "--method", "residue")
        assert code == 0 and out == "1 0 0\n2 1 0\n3 4 1\n"

    @pytest.mark.parametrize("sizes", [("-1", "2"), ("2", "-1")])
    def test_negative_size_is_an_error(self, capsys, sizes):
        code, out, err = run(capsys, "hp-table", "--max-i", sizes[0], "--max-j", sizes[1])
        assert (code, out) == (1, "")
        assert err == "error[ValueError]: indices must be nonnegative\n"

    def test_closed_stdout_exits_without_traceback(self):
        # `spinhalg hp-table ... | head -c 10`: the reader is gone before the
        # table is written.  Closing the read end first makes the write fail
        # every time instead of depending on which process runs first.
        env = dict(os.environ, PYTHONPATH=str(Path(spinhalg.__file__).parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "spinhalg.cli", "hp-table", "--max-i", "30",
                 "--max-j", "30", "--method", "binomial"],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_sizes_at_the_cap(self, capsys):
        code, out, err = run(capsys, "hp-table", "--max-i", "60", "--max-j", "60")
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 61)
        assert lines[0] == "1" + " 0" * 60 and lines[-1].endswith(" 1")

    def test_trunc_at_the_cap(self, capsys):
        # --max-j at the cap builds the longest series any table reads, to x^120
        table = ("hp-table", "--max-i", "1", "--max-j", "60")
        code, out, err = run(capsys, *table, "--method", "residue")
        assert (code, err) == (0, "")
        assert out == run(capsys, *table)[1]

    @pytest.mark.parametrize("argv, message", [
        (("hp-table", "--max-i", "61", "--max-j", "1"), "--max-i 61 exceeds the cap 60"),
        (("hp-table", "--max-i", "1", "--max-j", "61"), "--max-j 61 exceeds the cap 60"),
    ])
    def test_above_the_cap_is_an_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error[ValueError]: {message}\n")

    @pytest.mark.parametrize("case", json.loads((GOLDEN / "hp_table.json").read_text()),
                             ids=lambda case: " ".join(case["argv"]))
    def test_golden_output(self, capsys, case):
        code, out, err = run(capsys, *case["argv"])
        assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


class TestTruncOption:
    # every series truncation follows from the table, so no subcommand
    # takes --trunc, before its name or after it
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("classify", "--n", "3"),
        ("hp-table", "--max-i", "2", "--max-j", "2"),
        ("hp-table", "--max-i", "2", "--max-j", "2", "--method", "binomial"),
        ("steenrod", "sq", "--k", "1", "--poly", "w2"),
    ], ids=" ".join)
    @pytest.mark.parametrize("trunc", ["-7", "-1", "5"])
    def test_refused_where_nothing_reads_it(self, capsys, trunc, argv, fmt):
        for call in (["--trunc", trunc, *argv, "--format", fmt],
                     [*argv, "--format", fmt, "--trunc", trunc]):
            code, out, err = run(capsys, *call)
            assert (code, out) == (2, ""), call
            assert err.startswith("usage: spinhalg") and "Traceback" not in err


class TestTokensBeforeTheSubcommand:
    # argparse read the value of an unknown option before the subcommand
    # as the subcommand's name; every such token is named instead
    def test_option_and_value_are_named(self):
        top = run_subprocess("--trunc", "10", "hp-table", "--max-i", "2", "--max-j", "2")
        assert (top.returncode, top.stdout) == (2, "")
        assert top.stderr.startswith("usage: spinhalg [-h]")
        assert top.stderr.endswith("\nspinhalg: error: unrecognized arguments: --trunc 10\n")
        # the same text argparse prints for the option after the subcommand
        after = run_subprocess("hp-table", "--max-i", "2", "--max-j", "2", "--trunc", "10")
        assert after.stderr == top.stderr

    @pytest.mark.parametrize("argv, named", [
        (["--foo", "classify", "--n", "3"], "--foo"),
        (["--foo", "3", "classify", "--n", "3"], "--foo 3"),
        (["--foo", "classify", "--n", "3", "--bar"], "--foo --bar"),
        (["-7", "x", "dims", "--n", "3", "--field", "R"], "-7 x"),
        (["steenrod", "--foo", "3", "sq", "--k", "1", "--poly", "w2"], "--foo 3"),
        # no subcommand follows the option
        (["--trunc", "10"], "--trunc 10"),
        # a bare "--" is not an abbreviation of --help
        (["--", "classify", "--n", "3"], "--"),
    ])
    def test_every_token_is_named(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: spinhalg [-h]")
        assert err.endswith(f"\nspinhalg: error: unrecognized arguments: {named}\n")

    @pytest.mark.parametrize("help_option", ["-h", "--help", "--he"])
    def test_help_before_the_subcommand_still_prints_help(self, capsys, help_option):
        code, out, err = run(capsys, "--foo", help_option, "classify", "--n", "3")
        assert (code, err) == (0, "")
        assert out.startswith("usage: spinhalg [-h]")

    @pytest.mark.parametrize("help_option", ["-h", "--help", "--he"])
    def test_help_alone_prints_help(self, capsys, help_option):
        code, out, err = run(capsys, help_option)
        assert (code, err) == (0, "")
        assert out.startswith("usage: spinhalg [-h]")

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["foo"], "argument command: invalid choice: 'foo' (choose from "),
        (["foo", "--trunc", "10"], "argument command: invalid choice: 'foo' (choose from "),
    ])
    def test_a_missing_or_unknown_subcommand_is_reported_as_such(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: spinhalg [-h]")
        assert f"\nspinhalg: error: {message}" in err


class TestUsageText:
    # argparse wraps to the terminal's width; every parser here wraps to
    # the width output that is not a terminal gets (80 columns)
    @pytest.mark.parametrize("argv", [
        ("dims", "--n", "x", "--field", "R"),
        ("-h",),
        ("steenrod", "sq", "-h"),
    ], ids=" ".join)
    def test_independent_of_columns(self, argv):
        outputs = []
        for columns in ("40", "200", None):
            env = dict(os.environ, PYTHONPATH=str(Path(spinhalg.__file__).parents[1]))
            env.pop("COLUMNS", None)
            if columns:
                env["COLUMNS"] = columns
            done = subprocess.run([sys.executable, "-m", "spinhalg.cli", *argv], env=env,
                                  capture_output=True, timeout=60)
            outputs.append((done.returncode, done.stdout, done.stderr))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][1 if argv[-1] == "-h" else 2].startswith(b"usage: spinhalg")


class TestSteenrodCommands:
    def test_sq(self, capsys):
        code, out, _ = run(capsys, "steenrod", "sq", "--k", "1", "--poly", "w2")
        assert code == 0 and out == "w3\n"

    def test_sq_composite_poly(self, capsys):
        _, out, _ = run(capsys, "steenrod", "sq", "--k", "2", "--poly", "w2*w4+w3^2")
        # deterministic, schema-valid output
        code, json_out, _ = run(capsys, "steenrod", "sq", "--k", "2",
                                "--poly", "w2*w4+w3^2", "--format", "json")
        payload = json.loads(json_out)
        validate(payload, load_schema("steenrod_sq"))
        assert payload["result"] == out.strip()

    def test_sq_wu_generator(self, capsys):
        _, out, _ = run(capsys, "steenrod", "sq", "--k", "1", "--poly", "v4")
        assert out == "w5\n"

    def test_wu(self, capsys):
        code, out, _ = run(capsys, "steenrod", "wu", "--max-degree", "4")
        assert code == 0
        assert out.splitlines() == ["v0 = 1", "v1 = 0", "v2 = w2", "v3 = 0",
                                    "v4 = w2^2+w4"]

    def test_wu_json(self, capsys):
        _, out, _ = run(capsys, "steenrod", "wu", "--max-degree", "6",
                        "--format", "json")
        payload = json.loads(out)
        validate(payload, load_schema("steenrod_wu"))
        assert payload["classes"][4] == "w2^2+w4"

    def test_verify_bspinh(self, capsys):
        code, out, _ = run(capsys, "steenrod", "verify-bspinh", "--max-degree", "10",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, load_schema("verify_bspinh"))
        assert payload["series_match"] is True
        assert payload["sq1_match"] is True
        assert payload["w9_decomposable"] is True

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "steenrod", "sq", "--k", "1", "--poly", "x1")
        assert code == 1 and "error[" in err

    @pytest.mark.parametrize("argv, golden", [
        (("verify-bspinh", "--max-degree", "16", "--format", "json"), "verify_bspinh_16.json"),
        (("verify-bspinh", "--max-degree", "24", "--format", "json"), "verify_bspinh_24.json"),
        (("wu", "--max-degree", "20"), "wu_20.txt"),
        (("verify-bspinh", "--max-degree", "32", "--format", "json"), "verify_bspinh_32.json"),
    ])
    def test_golden_output(self, capsys, argv, golden):
        code, out, _ = run(capsys, "steenrod", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    # the outputs run to megabytes, so the goldens pin the sha256 and byte
    # length of stdout; the last case is Sq^1 of w2*w3*...*w401.  Run in a
    # subprocess, so that the caches of the large calls go with it.
    @pytest.mark.parametrize("case", json.loads((GOLDEN / "steenrod_sq.json").read_text()),
                             ids=lambda case: " ".join(case["argv"][2:4]))
    def test_sq_golden_output(self, case):
        proc = run_subprocess(*case["argv"])
        out = proc.stdout.encode()
        assert (proc.returncode, hashlib.sha256(out).hexdigest(), len(out), proc.stderr) == (
            case["code"], case["stdout_sha256"], case["stdout_bytes"], "")

    def test_wu_at_the_degree_cap(self):
        proc = run_subprocess("steenrod", "wu", "--max-degree", "40", timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1].startswith("v40 = ")

    def test_verify_bspinh_at_the_degree_cap(self):
        # Sq1 homology reads the ideal slices up to degree 41
        proc = run_subprocess("steenrod", "verify-bspinh", "--max-degree", "40",
                              "--format", "json", timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (GOLDEN / "verify_bspinh_40.json").read_text()

    @pytest.mark.parametrize("command", ["wu", "verify-bspinh"])
    def test_max_degree_above_the_cap_is_an_error(self, capsys, command):
        code, out, err = run(capsys, "steenrod", command, "--max-degree", "41")
        assert (code, out) == (1, "")
        assert err == "error[ValueError]: max degree 41 exceeds the cap 40\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["wu", "verify-bspinh"])
    def test_negative_max_degree_is_an_error(self, capsys, command, fmt):
        code, out, err = run(capsys, "steenrod", command, "--max-degree", "-1",
                             "--format", fmt)
        assert (code, out, err) == (1, "", "error[ValueError]: max_degree must be nonnegative\n")

    @pytest.mark.parametrize("k", ["41", "200"])
    def test_wu_factor_above_the_cap_is_an_error(self, capsys, k):
        code, out, err = run(capsys, "steenrod", "sq", "--k", "1", "--poly", f"w2+v{k}")
        assert (code, out) == (1, "")
        assert err == f"error[ValueError]: Wu class v{k} has degree {k}, over the cap 40\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("factor", [
        "w2^",          # an empty exponent is not 1
        "w２",      # fullwidth digit two
        "w2^٣",    # Arabic-Indic digit three
        "v٤",      # Arabic-Indic digit four
        "w2^3_0",       # int() reads the underscore
        "w2^-",         # a sign alone is no exponent
        "w2^--3",
    ])
    def test_malformed_factor_is_an_error(self, capsys, fmt, factor):
        code, out, err = run(capsys, "steenrod", "sq", "--k", "1", "--poly", factor,
                             "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error[ValueError]: cannot parse factor {factor!r}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_negative_exponent_is_an_error(self, capsys, fmt):
        code, out, err = run(capsys, "steenrod", "sq", "--k", "1", "--poly", "w2^-3",
                             "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error[ValueError]: negative exponent\n"

    def test_sq_of_a_high_power(self):
        # the Cartan expansion must not recurse once per unit of exponent
        proc = run_subprocess("steenrod", "sq", "--k", "1", "--poly", "w2^2000")
        assert proc.returncode == 0
        assert proc.stdout == "0\n"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("poly, factor, bound", [
        ("v16^15", "v16^15", 26 ** 4),     # v16 has 26 terms, popcount(15) = 4
        ("v32*v40", "v40", 423 * 1956),    # v32 has 423 terms, v40 1956
    ])
    def test_product_over_the_term_cap_is_an_error(self, capsys, poly, factor, bound):
        code, out, err = run(capsys, "steenrod", "sq", "--k", "1", "--poly", poly)
        assert (code, out) == (1, "")
        assert err == (f"error[ValueError]: the product up to {factor!r} may reach "
                       f"{bound} terms, over the cap 20000\n")

    def test_product_under_the_term_cap(self, capsys):
        code, out, _ = run(capsys, "steenrod", "sq", "--k", "1", "--poly", "v40*v2")
        assert code == 0 and out.startswith("w")

    @pytest.mark.parametrize("k, count", [(60000, 119959), (1000000, 1999959)])
    def test_layout_over_the_generator_cap_is_an_error(self, k, count):
        # Sq^k w_k reaches w_42..w_k and w_k..w_2k past the base
        proc = run_subprocess("steenrod", "sq", "--k", str(k), "--poly", f"w{k}",
                              timeout=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error[ValueError]: the call reaches {count} generators "
                               "past w41, over the cap 100000\n")

    def test_layout_under_the_generator_cap(self, capsys):
        # w_42..w_30000 and w_60000..w_90000: about 60,000 generators
        code, out, _ = run(capsys, "steenrod", "sq", "--k", "30000", "--poly", "w60000")
        assert code == 0 and out.startswith("w")

    def test_cartan_expansion_over_the_cap_is_an_error(self):
        # one monomial of degree 77, under the parse and layout caps; its
        # Cartan expansion would form about 9.4e10 products
        proc = run_subprocess("steenrod", "sq", "--k", "40", "--poly",
                              "w2*w3*w4*w5*w6*w7*w8*w9*w10*w11*w12", timeout=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("error[ValueError]: the Cartan expansion of Sq^40 may "
                               "form more than 1000000 products, over the cap\n")

    def test_monomial_at_the_generator_cap(self, capsys):
        # Sq^1 w_j = w_(j+1) for even j and 0 for odd j (w_1 = 0), so by
        # Leibniz Sq^1(w2*...*w401) has one term per even j, w_(j+1) squared
        gens = range(2, 402)
        ring = StiefelWhitneyRing()
        expected = ring.from_monomials(
            tuple((i, 2 if i == j + 1 else 1) for i in gens if i != j)
            for j in gens[::2])
        code, out, err = run(capsys, "steenrod", "sq", "--k", "1",
                             "--poly", "*".join(f"w{i}" for i in gens))
        assert (code, out, err) == (0, f"{expected}\n", "")

    @pytest.mark.parametrize("count", [401, 494])
    def test_monomial_over_the_generator_cap_is_an_error(self, count):
        # 494 distinct generators met the recursion limit before the cap
        poly = "*".join(f"w{i}" for i in range(2, count + 2))
        proc = run_subprocess("steenrod", "sq", "--k", "1", "--poly", poly, timeout=10)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error[ValueError]: a monomial has {count} distinct "
                               "generators, over the cap 400\n")

    def test_sq_on_a_large_generator(self):
        # Wu's formula Sq^k w_m = sum_t binom(m - k + t - 1, t) w_(k-t) w_(m+t),
        # the parity of binom(M, t) by Kummer: no carry in t + (M - t)
        k, m = 20000, 40000
        ring = StiefelWhitneyRing()
        expected = ring.zero()
        for t in range(k + 1):
            top = m - k + t - 1
            if t & (top - t) == 0:
                expected = expected + ring.w(k - t) * ring.w(m + t)
        proc = run_subprocess("steenrod", "sq", "--k", str(k), "--poly", f"w{m}", timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{expected}\n", "")


class TestKtableCommand:
    def test_integral_text(self, capsys):
        code, out, _ = run(capsys, "ktable", "--theory", "KSp", "--coeff", "Z",
                           "--range", "0..7")
        assert code == 0
        assert [line.split(": ")[1] for line in out.splitlines()] == \
            ["Z", "0", "0", "0", "Z", "Z2", "Z2", "0"]

    def test_qz_json(self, capsys):
        _, out, _ = run(capsys, "ktable", "--theory", "KSp", "--coeff", "Q/Z",
                        "--range", "0..15", "--format", "json")
        payload = json.loads(out)
        validate(payload, load_schema("ktable"))
        groups = [e["group"] for e in payload["entries"]]
        assert groups[0] == "Q/Z" and groups[6] == "Z2" and groups[5] == "0"

    def test_undetermined_entry_is_flagged_not_fatal(self, capsys):
        code, out, _ = run(capsys, "ktable", "--theory", "KO", "--coeff", "Z2",
                           "--range", "2..2")
        assert code == 0
        assert "extension" in out

    def test_range_at_the_cap(self, capsys):
        code, out, err = run(capsys, "ktable", "--theory", "KO", "--range=-5000..4999")
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 10000)
        assert (lines[0], lines[-1]) == ("-5000: Z", "4999: 0")

    def test_range_above_the_cap_is_an_error(self, capsys):
        code, out, err = run(capsys, "ktable", "--theory", "KO", "--range", "0..10000")
        assert (code, out) == (1, "")
        assert err == ("error[ValueError]: range 0..10000 has 10001 degrees, "
                       "more than the cap 10000\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_range_is_an_error(self, capsys, fmt):
        code, out, err = run(capsys, "ktable", "--theory", "KO", "--range", "5..3",
                             "--format", fmt)
        assert (code, out) == (1, "")
        assert err == ("error[ValueError]: range 5..3 is empty: "
                       "the upper end is below the lower\n")

    # a range needs both ends; a bare integer n means n..n
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("text", ["5..", "..5", ".."])
    def test_range_missing_an_end_is_an_error(self, capsys, fmt, text):
        code, out, err = run(capsys, "ktable", "--theory", "KO", "--range", text,
                             "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error[ValueError]: invalid literal for int() with base 10: ''\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_single_degree_range(self, capsys, fmt):
        argv = ("ktable", "--theory", "KO", "--format", fmt)
        code, out, err = run(capsys, *argv, "--range", "5")
        assert (code, err) == (0, "")
        assert out == run(capsys, *argv, "--range", "5..5")[1]

    def test_negative_lower_end_in_the_equals_form(self, capsys):
        # argparse takes "-3..-1" after a space for an option, so the help
        # names the --range=... form
        code, out, err = run(capsys, "ktable", "--theory", "KO", "--range=-3..-1")
        assert (code, out, err) == (0, "-3: 0\n-2: 0\n-1: 0\n", "")
        code, _, err = run(capsys, "ktable", "--theory", "KO", "--range", "-3..-1")
        assert code == 2 and "expected one argument" in err
        _, help_text, _ = run(capsys, "ktable", "--help")
        assert "--range=-3..-1" in help_text

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "ktable", "--theory", "KO", "--coeff", "Z",
                           "--range", "x..y")
        assert code == 1

    # int() and str.isdigit also read the digits of other scripts (U+0663
    # is Arabic-Indic three) and int() reads underscores
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv, message", [
        (["--coeff", "Z\u0663", "--range", "0..1"],
         "cannot parse coefficient ring 'Z\u0663'"),
        (["--range", "\u0663..\u0664"], "invalid literal for int() with base 10: '\u0663'"),
        (["--range", "3..\u0664"], "invalid literal for int() with base 10: '\u0664'"),
        (["--range", "1_0..1_1"], "invalid literal for int() with base 10: '1_0'"),
        (["--range", "1_0"], "invalid literal for int() with base 10: '1_0'"),
    ])
    def test_non_ascii_integer_is_an_error(self, capsys, fmt, argv, message):
        code, out, err = run(capsys, "ktable", "--theory", "KO", *argv, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error[ValueError]: {message}\n"


    # ktable over three theories, five rings and three ranges, the
    # undetermined KO Z2 entry, and zk-index in dimensions 4 to 16, each
    # in text and json
    @pytest.mark.parametrize("case", json.loads((GOLDEN / "ktable.json").read_text()),
                             ids=lambda case: " ".join(case["argv"]))
    def test_golden_output(self, capsys, case):
        code, out, err = run(capsys, *case["argv"])
        assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


class TestZkIndexCommand:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "zk-index", "--n", "8", "--k", "3",
                           "--integral", "6", "--eta", "0")
        assert code == 0 and out == "0 (mod 3)\n"

    def test_rational_inputs(self, capsys):
        code, out, _ = run(capsys, "zk-index", "--n", "4", "--k", "5",
                           "--integral", "7/2", "--eta", "1/2")
        assert code == 0 and out == "3 (mod 5)\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "zk-index", "--n", "8", "--k", "3",
                        "--integral", "6", "--format", "json")
        payload = json.loads(out)
        validate(payload, load_schema("zk_index"))
        assert payload["epsilon"] == 2 and payload["residue"] == 0

    def test_integrality_error(self, capsys):
        code, _, err = run(capsys, "zk-index", "--n", "8", "--k", "5",
                           "--integral", "7")
        assert code == 1 and "error[IntegralityError]" in err

    @pytest.mark.parametrize("value", ["6", "+6", "-6", " 6 ", "12/2", "-12/2", "006/001"])
    def test_ascii_rationals(self, capsys, value):
        code, out, err = run(capsys, "zk-index", "--n", "8", "--k", "3",
                             f"--integral={value}", f"--eta={value}")
        assert (code, out, err) == (0, "0 (mod 3)\n", "")

    # Fraction() also reads other scripts' digits (U+0666 is Arabic-Indic
    # six, U+FF16 fullwidth six), underscores, decimals and exponents
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("flag", ["--integral", "--eta"])
    @pytest.mark.parametrize("value", ["\u0666", "\uff16", "6_0", "12/\u0662", "6.0", "6e0"])
    def test_non_ascii_rational_is_an_error(self, capsys, fmt, flag, value):
        argv = {"--integral": "6", "--eta": "0", flag: value}
        code, out, err = run(capsys, "zk-index", "--n", "8", "--k", "3",
                             *(f"{k}={v}" for k, v in argv.items()), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error[ValueError]: Invalid literal for Fraction: {value!r}\n"

    @pytest.mark.parametrize("value", ["x", "", "1/", "/2", "--6", "6/-2", "1/2/3"])
    def test_ascii_rejects_keep_the_fraction_message(self, capsys, value):
        with pytest.raises(ValueError) as expected:
            Fraction(value)
        code, out, err = run(capsys, "zk-index", "--n", "8", "--k", "3",
                             f"--integral={value}")
        assert (code, out, err) == (1, "", f"error[ValueError]: {expected.value}\n")

    # Fraction() accepts these since Python 3.12, so the message is
    # _parse_fraction's own
    @pytest.mark.parametrize("value", ["6 /2", "6/ 2", "6 / 2"])
    def test_spaces_around_the_slash_are_an_error(self, capsys, value):
        code, out, err = run(capsys, "zk-index", "--n", "8", "--k", "3",
                             f"--integral={value}")
        assert (code, out) == (1, "")
        assert err == f"error[ValueError]: Invalid literal for Fraction: {value!r}\n"

    def test_zero_denominator(self, capsys):
        code, out, err = run(capsys, "zk-index", "--n", "8", "--k", "3", "--integral", "1/0")
        assert (code, out, err) == (1, "", "error[ZeroDivisionError]: Fraction(1, 0)\n")


class TestDualCommand:
    def test_cyclic(self, capsys):
        code, out, _ = run(capsys, "dual", "--torsion", "6")
        assert code == 0 and out == "Z6 -> Z6 [verified]\n"

    def test_normalization(self, capsys):
        code, out, _ = run(capsys, "dual", "--torsion", "4,6")
        assert code == 0 and out == "Z2+Z12 -> Z2+Z12 [verified]\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "dual", "--rank", "1", "--torsion", "6",
                        "--format", "json")
        payload = json.loads(out)
        validate(payload, load_schema("dual"))
        assert payload["verified"] is True
        assert payload["candidates"] == 36 and payload["valid"] == 6

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("torsion, bad", [("\u0663,4", "\u0663"), ("1_2", "1_2"),
                                              ("4,\uff16", "\uff16")])
    def test_non_ascii_integer_is_an_error(self, capsys, fmt, torsion, bad):
        code, out, err = run(capsys, "dual", "--torsion", torsion, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error[ValueError]: invalid literal for int() with base 10: {bad!r}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("torsion", [",", "4,", "4,,6"])
    def test_empty_item_is_an_error(self, capsys, fmt, torsion):
        code, out, err = run(capsys, "dual", "--torsion", torsion, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error[ValueError]: invalid literal for int() with base 10: ''\n"

    def test_failed_verdict_is_printed(self, capsys, monkeypatch):
        from spinhalg import ktheory

        # Z2+Z4 has one element of order 1, three of order 2 and four of
        # order 4; this multiset has no element of order 4
        monkeypatch.setattr(ktheory, "_element_orders", lambda factors: {1: 1, 2: 7})
        report = ktheory.dual_group(ktheory.FGAbelianGroup(0, (2, 4)))
        assert report.verified is False
        assert (report.torsion_candidates, report.torsion_valid) == (64, 8)
        assert run(capsys, "dual", "--torsion", "4,2") == (0, "Z2+Z4 -> Z2+Z4 [FAILED]\n", "")
        code, out, err = run(capsys, "dual", "--torsion", "4,2", "--format", "json")
        payload = json.loads(out)
        validate(payload, load_schema("dual"))
        assert (code, err) == (0, "")
        assert payload == {"group": "Z2+Z4", "dual": "Z2+Z4", "verified": False,
                           "candidates": 64, "valid": 8}
        assert '"verified": false' in out

    def test_empty_list_is_no_torsion(self, capsys):
        assert run(capsys, "dual", "--torsion", "") == (0, "0 -> 0 [verified]\n", "")
        assert (run(capsys, "dual", "--rank", "2", "--torsion", "")
                == (0, "Z+Z -> Z+Z [verified]\n", ""))


class TestSubcommandGolden:
    # classify (both forms), dims, ngroup (with --h and --r/--s), genus,
    # dual and steenrod sq/wu, each in text and json with a domain error
    @pytest.mark.parametrize("case", json.loads((GOLDEN / "cli.json").read_text()),
                             ids=lambda case: " ".join(case["argv"]))
    def test_golden_output(self, capsys, case):
        code, out, err = run(capsys, *case["argv"])
        assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


class TestIntegerOptions:
    # argparse's type=int also reads other scripts' digits (U+0663 is
    # Arabic-Indic three, U+FF14 fullwidth four) and underscores
    @pytest.mark.parametrize("argv, option, value", [
        (["classify", "--n", "\u0663"], "--n", "\u0663"),
        (["classify", "--r", "1_0"], "--r", "1_0"),
        (["classify", "--s", "\uff14"], "--s", "\uff14"),
        (["dims", "--n", "\u0663", "--field", "R"], "--n", "\u0663"),
        (["ngroup", "--r", "1", "--s", "\u0663", "--field", "R"], "--s", "\u0663"),
        (["genus", "--sig=\u0661", "--euler", "1", "--orientation", "+"], "--sig", "\u0661"),
        (["genus", "--sig", "1", "--euler", "1_1", "--orientation", "+"], "--euler", "1_1"),
        (["hp-table", "--max-i", "\u0663", "--max-j", "1"], "--max-i", "\u0663"),
        (["hp-table", "--max-i", "1", "--max-j", "\uff14"], "--max-j", "\uff14"),
        (["ngroup", "--n", "1_0", "--field", "C"], "--n", "1_0"),
        (["steenrod", "sq", "--k", "\u0661", "--poly", "w2"], "--k", "\u0661"),
        (["steenrod", "wu", "--max-degree", "\u0663"], "--max-degree", "\u0663"),
        (["steenrod", "verify-bspinh", "--max-degree", "1_0"], "--max-degree", "1_0"),
        (["zk-index", "--n", "\u0668", "--k", "3", "--integral", "6"], "--n", "\u0668"),
        (["zk-index", "--n", "8", "--k", "\u0663", "--integral", "6"], "--k", "\u0663"),
        (["dual", "--rank", "\u0661"], "--rank", "\u0661"),
    ])
    def test_non_ascii_integer_is_a_usage_error(self, capsys, argv, option, value):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: spinhalg")
        assert err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")

    @pytest.mark.parametrize("value", ["x", "", "3.0", "0x3", "--3"])
    def test_ascii_usage_errors_keep_argparse_wording(self, capsys, value):
        code, out, err = run(capsys, "dims", f"--n={value}", "--field", "R")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --n: invalid int value: {value!r}\n")

    @pytest.mark.parametrize("value", ["3", "+3", " 3 ", "003"])
    def test_ascii_integers(self, capsys, value):
        code, out, err = run(capsys, "dims", f"--n={value}", "--field", "H")
        assert (code, out, err) == (0, "8\n", "")


# a valid call of every subcommand, as {option: value}
VALID_CALLS = {
    ("classify",): {"--n": "3"},
    ("dims",): {"--n": "3", "--field": "R"},
    ("ngroup",): {"--n": "3", "--field": "R"},
    ("genus",): {"--sig": "1", "--euler": "3", "--orientation": "+"},
    ("hp-table",): {"--max-i": "2", "--max-j": "2"},
    ("steenrod", "sq"): {"--k": "1", "--poly": "w2"},
    ("steenrod", "wu"): {"--max-degree": "4"},
    ("steenrod", "verify-bspinh"): {"--max-degree": "4"},
    ("ktable",): {"--theory": "KO", "--range": "0..2"},
    ("zk-index",): {"--n": "8", "--k": "3", "--integral": "6"},
    ("dual",): {"--torsion": "4"},
}


def value_options(parser):
    """The options of a parser that take a value."""
    return sorted(a.option_strings[0] for a in parser._actions
                  if a.option_strings and a.nargs is None)


def subcommand_parsers(parser, prefix=()):
    """(command path, parser) for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subcommand_parsers(sub, prefix + (name,))
    if prefix and not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions):
        yield prefix, parser


def dash_dash_calls():
    """Every value option of every subcommand, given as --opt=-- in an
    otherwise valid call."""
    calls = []
    for command, sub in subcommand_parsers(build_parser()):
        for opt in value_options(sub):
            rest = [t for o, v in VALID_CALLS[command].items() if o != opt for t in (o, v)]
            calls.append((opt, [*command, f"{opt}=--", *rest]))
    return calls


class TestDashDashValue:
    def test_valid_calls_cover_every_subcommand(self, capsys):
        commands = [command for command, _ in subcommand_parsers(build_parser())]
        assert sorted(commands) == sorted(VALID_CALLS)
        for command, options in VALID_CALLS.items():
            code, out, _ = run(capsys, *command, *[t for o, v in options.items() for t in (o, v)])
            assert code == 0 and out, command

    @pytest.mark.parametrize("option, argv", dash_dash_calls(),
                             ids=lambda x: " ".join(x) if isinstance(x, list) else x)
    def test_is_a_usage_error(self, capsys, option, argv):
        # argparse (3.11) stores --opt=-- as [] without running type= or
        # choices; the value must still end in a usage error
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert f"error: argument {option}:" in err


# tokens no option accepts: a bare --, other scripts' digits, an
# underscore, the empty string, a number past every cap, an empty range
# and a factor with an empty exponent
MALFORMED = ["--", "\u0663", "\uff14", "1_0", "", "9" * 40, "5..3", "w2^"]
SMALL = st.integers(-3, 24).map(str)
# well-formed values of the options without choices; the others draw
# from their choices
FUZZ_VALUES = {
    "--n": SMALL, "--r": SMALL, "--s": SMALL, "--k": SMALL, "--sig": SMALL,
    "--euler": SMALL, "--max-i": SMALL, "--max-j": SMALL, "--max-degree": SMALL,
    "--rank": SMALL,
    "--coeff": st.sampled_from(["Z", "Q", "Q/Z", "Z3", "Z/4"]),
    "--poly": st.sampled_from(["w2", "v4", "w2^2+w4", "w3*w5", "v8*w2", "0", "1"]),
    "--range": st.builds("{}..{}".format, SMALL, SMALL) | SMALL,
    "--integral": SMALL | st.sampled_from(["9/2", "-3/2"]),
    "--eta": SMALL | st.sampled_from(["1/2", "-5/2"]),
    "--torsion": st.lists(st.integers(1, 24).map(str), max_size=3).map(",".join),
}


def one_in(draw, n):
    return draw(st.integers(0, n - 1)) == 0


@st.composite
def fuzz_argv(draw):
    """A call of one subcommand: the options of a valid call are each left
    out one time in eight, the others given half the time; a value is
    malformed one time in eight, and joined by = half the time."""
    command = draw(st.sampled_from(sorted(VALID_CALLS)))
    parser = dict(subcommand_parsers(build_parser()))[command]
    argv = list(command)
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        opt = action.option_strings[0]
        if one_in(draw, 8) if opt in VALID_CALLS[command] else draw(st.booleans()):
            continue
        if action.nargs == 0:
            argv.append(opt)
            continue
        if one_in(draw, 8):
            value = draw(st.sampled_from(MALFORMED))
        elif action.choices:
            value = draw(st.sampled_from(action.choices))
        else:
            value = draw(FUZZ_VALUES[opt])
        argv += [f"{opt}={value}"] if draw(st.booleans()) else [opt, value]
    return argv


class TestArgvFuzz:
    @settings(max_examples=300, deadline=timedelta(seconds=10), derandomize=True,
              database=None)
    @given(fuzz_argv())
    def test_exit_codes_and_output(self, argv):
        # in process: no thread or subprocess is started
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        assert bool(out.getvalue()) == (code == 0), argv


class TestHarness:
    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["dims", "--n", "3"]) == 2
        capsys.readouterr()

    def test_determinism(self, capsys):
        argv = ["ktable", "--theory", "KO", "--coeff", "Q/Z", "--range", "0..8",
                "--format", "json"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_validator_rejects_bad_payload(self):
        with pytest.raises(SchemaError):
            validate({"field": "X", "size": 1, "simple": True},
                     load_schema("classify"))
        with pytest.raises(SchemaError):
            validate({"field": "R", "size": 1}, load_schema("classify"))

    @pytest.mark.parametrize("field, value", [("dimension", 8.0), ("n", True)])
    def test_validator_integer_is_a_json_integer(self, field, value):
        payload = {"n": 7, "field": "C", "dimension": 32}
        validate(payload, load_schema("dims"))
        with pytest.raises(SchemaError):
            validate({**payload, field: value}, load_schema("dims"))
