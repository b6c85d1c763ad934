"""Command-line contract: exit codes, determinism, file round trips."""

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import quivercalc
from quivercalc import algebra, cli
from quivercalc.cli import build_parser, main
from quivercalc.dt import DTEntry, DTResult
from quivercalc.quiver import Quiver
from quivercalc.series import iter_multidegrees

A2_OBJ = {"vertices": ["a", "b"], "matrix": [[0, 1], [1, 0]]}


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write_a2(tmp_path, name="A2.json"):
    path = tmp_path / name
    path.write_text(json.dumps(A2_OBJ))
    return str(path)


# -- exit-status contract ---------------------------------------------------------

def test_verify_unlinking_passes(tmp_path):
    a2 = write_a2(tmp_path)
    code, out, err = run_cli("verify", "unlinking", a2, "a", "b", "--order", "4")
    assert code == 0
    assert "PASS" in out and err == ""


def test_verify_all_targets(tmp_path):
    a2 = write_a2(tmp_path)
    for argv in (
        ("verify", "linking", a2, "a", "b", "--order", "3"),
        ("verify", "unlinking", a2, "a", "b", "--order", "3"),
        ("verify", "diagonalization", a2, "--order", "3"),
        ("verify", "poincare", a2, "--order", "3"),
        ("verify", "gr", a2, "a", "b", "--order", "2"),
        ("verify", "homology", a2, "a", "b", "--order", "2"),
    ):
        code, out, _ = run_cli(*argv)
        assert code == 0, (argv, out)
        assert "PASS" in out


def test_verified_failure_exits_one(tmp_path):
    a2 = write_a2(tmp_path)
    config = tmp_path / "printed.json"
    config.write_text(json.dumps({"preset": "printed"}))
    code, out, _ = run_cli("verify", "linking", a2, "a", "b",
                           "--order", "3", "--config", str(config))
    assert code == 1
    assert "FAIL" in out


def test_missing_file_exits_two():
    code, out, err = run_cli("series", "missing.json")
    assert code == 2
    assert "missing.json" in err and "no such file" in err


def test_unknown_vertex_exits_two(tmp_path):
    a2 = write_a2(tmp_path)
    code, _, err = run_cli("verify", "linking", a2, "a", "z", "--order", "2")
    assert code == 2
    assert "'z'" in err


def test_malformed_quiver_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a", "b"], "matrix": [[0, 2], [1, 0]]}))
    code, _, err = run_cli("info", str(bad))
    assert code == 2
    assert "matrix[0][1]" in err


def test_empty_window_exits_two(tmp_path):
    a2 = write_a2(tmp_path)
    code, _, err = run_cli("series", a2, "--qmin", "5", "--qmax", "-5")
    assert code == 2
    assert "empty window" in err


# The options each verify target reads, beside --order and --output.
VERIFY_READS = {"linking": {"window", "--calibrate", "--config"},
                "unlinking": {"window", "--calibrate", "--config"},
                "diagonalization": {"window", "--config"},
                "poincare": {"window"},
                "gr": {"--smax"}, "homology": {"--smax"}}
PAIR_TARGETS = ("linking", "unlinking", "gr", "homology")


@pytest.mark.parametrize("target", sorted(VERIFY_READS))
@pytest.mark.parametrize("flag", ["--qmin", "--qmax"])
def test_verify_one_window_flag_exits_two(tmp_path, target, flag):
    labels = ("a", "b") if target in PAIR_TARGETS else ()
    code, out, err = run_cli("verify", target, write_a2(tmp_path), *labels,
                             flag, "10")
    assert (code, out) == (2, "")
    if "window" in VERIFY_READS[target]:
        assert err == "error: --qmin and --qmax must be given together\n"
    else:
        assert f"error: unrecognized arguments: {flag} 10\n" in err


def test_verify_gr_empty_window_exits_two(tmp_path):
    code, out, err = run_cli("verify", "gr", write_a2(tmp_path), "a", "b",
                             "--qmin", "5", "--qmax", "-5")
    assert (code, out) == (2, "")
    assert "error: unrecognized arguments: --qmin 5 --qmax -5\n" in err


@pytest.mark.parametrize("target", sorted(VERIFY_READS))
@pytest.mark.parametrize("option", ["window", "--calibrate", "--config", "--smax"])
def test_verify_rejects_options_its_target_does_not_read(tmp_path, target, option):
    config = tmp_path / "calibrated.json"
    config.write_text(json.dumps({"preset": "calibrated"}))
    flags = {"window": ("--qmin", "-10", "--qmax", "30"), "--calibrate": ("--calibrate",),
             "--config": ("--config", str(config)), "--smax": ("--smax", "3")}[option]
    labels = ("a", "b") if target in PAIR_TARGETS else ()
    code, out, err = run_cli("verify", target, write_a2(tmp_path), *labels,
                             "--order", "2", *flags)
    if option in VERIFY_READS[target]:
        assert (code, err) == (0, ""), out
        assert "PASS" in out
    else:
        assert (code, out) == (2, "")
        assert f"error: unrecognized arguments: {' '.join(flags)}\n" in err


@pytest.mark.parametrize("target", ["diagonalization", "poincare"])
@pytest.mark.parametrize("labels", [("zz", "yy"), ("a", "b"), ("a",)])
def test_verify_rejects_labels_its_target_does_not_read(tmp_path, target, labels):
    code, out, err = run_cli("verify", target, write_a2(tmp_path), *labels,
                             "--order", "2")
    assert (code, out) == (2, "")
    assert f"error: unrecognized arguments: {' '.join(labels)}\n" in err


# Every leaf sub-parser, by its last word: its command words, the options
# its --help lists, in declaration order, and its positionals.
HELP_TABLE = {
    "info": ("info", "--output", "quiver"),
    "series": ("series", "--order --qmin --qmax --output", "quiver"),
    "dt": ("dt", "--order --output", "quiver"),
    "link": ("link", "-o --outfile --output", "quiver a b"),
    "unlink": ("unlink", "-o --outfile --output", "quiver a b"),
    "diagonalize": ("diagonalize", "--order --output --config -o --outfile", "quiver"),
    "algebra-dims": ("algebra-dims", "--output --degree --smax", "quiver"),
    "linking": ("verify linking",
                "--order --qmin --qmax --output --config --calibrate", "quiver a b"),
    "unlinking": ("verify unlinking",
                  "--order --qmin --qmax --output --config --calibrate", "quiver a b"),
    "diagonalization": ("verify diagonalization", "--order --qmin --qmax --output --config",
                        "quiver"),
    "poincare": ("verify poincare", "--order --qmin --qmax --output", "quiver"),
    "gr": ("verify gr", "--order --output --smax", "quiver a b"),
    "homology": ("verify homology", "--order --output --smax", "quiver a b"),
}


def _help_section(out, title):
    """The first word of each entry under `title` in a --help text, or of
    each of its flags where the entry lists several."""
    section = next(part for part in out.split("\n\n") if part.startswith(title))
    entries = [re.split(r"\s{2,}", line.strip())[0]
               for line in section.splitlines()[1:] if re.match(r"  \S", line)]
    return [flag.split()[0] for entry in entries for flag in entry.split(", ")]


@pytest.mark.parametrize("leaf", HELP_TABLE)
def test_verify_help_lists_only_the_options_its_target_reads(leaf):
    # every leaf sub-parser, not only the verify targets, declares just the
    # options and positionals its handler reads
    command, options, positionals = HELP_TABLE[leaf]
    code, out, err = run_cli(*command.split(), "--help")
    assert (code, err) == (0, "")
    usage = out.split("\n\n")[0]
    assert usage.startswith(f"usage: quivercalc {command} [-h] ")
    assert usage.split()[-len(positionals.split()):] == positionals.split()
    assert _help_section(out, "options:") == ["-h", "--help", *options.split()]
    assert _help_section(out, "positional arguments:") == positionals.split()


def test_verify_pair_target_without_labels_exits_two(tmp_path):
    code, out, err = run_cli("verify", "linking", write_a2(tmp_path))
    assert (code, out) == (2, "")
    assert "the following arguments are required: a, b" in err
    # usage errors come before the quiver file is read
    for argv in (("linking", "missing.json"), ("gr", "missing.json", "a", "b", "--calibrate")):
        code, out, err = run_cli("verify", *argv)
        assert (code, out) == (2, "")
        assert "usage:" in err and "no such file" not in err


@pytest.mark.parametrize("command", [("link",), ("unlink",),
                                     *(("verify", target) for target in PAIR_TARGETS)])
@pytest.mark.parametrize("labels", [("z", "b"), ("a", "z"), ("z", "z")])
def test_unknown_pair_label_exits_two(tmp_path, command, labels):
    # the labels are checked before the pair is tested for distinctness
    outfile = tmp_path / "out.json"
    written = ("-o", str(outfile)) if command[0] != "verify" else ()
    code, out, err = run_cli(*command, write_a2(tmp_path), *labels, *written)
    assert (code, out) == (2, "")
    assert err == "error: unknown vertex 'z'; quiver has ['a', 'b']\n"
    assert not outfile.exists()


@pytest.mark.parametrize("command", [("link",), ("unlink",),
                                     *(("verify", target) for target in PAIR_TARGETS)])
def test_repeated_pair_label_exits_two(tmp_path, command):
    # main checks every pair once, with one message for every command
    outfile = tmp_path / "out.json"
    written = ("-o", str(outfile)) if command[0] != "verify" else ()
    code, out, err = run_cli(*command, write_a2(tmp_path), "a", "a", *written)
    assert (code, out) == (2, "")
    assert err == "error: vertex pair must be distinct, got 'a' twice\n"
    assert not outfile.exists()


DEEP_JSON = "[" * 100_000 + "]" * 100_000


# Input files the loaders reject, and a check that rejects its pair: the
# text of the file {bad}, the argv, and the start of the one stderr line
# after "error: ", which names {bad} once; a start that ends in "(" is
# followed by the JSON parser's own words and ")".
@pytest.mark.parametrize("text, argv, message", [
    ('{"vertices": ["a"]}', ("info", "{bad}"), "{bad}: quiver JSON is missing 'matrix'"),
    ('{"vertices": "a", "matrix": [[0]]}', ("info", "{bad}"),
     "{bad}: 'vertices' must be a list of labels"),
    ('{"vertices": ["a"], "matrix": [0]}', ("info", "{bad}"),
     "{bad}: 'matrix' must be a list of rows"),
    ('{"vertices": ["a", "b"], "matr', ("info", "{bad}"), "{bad}: invalid JSON ("),
    (DEEP_JSON, ("info", "{bad}"), "{bad}: invalid JSON ("),
    ("[1]", ("verify", "linking", "{A2}", "a", "b", "--config", "{bad}"),
     "{bad}: conventions config must be a JSON object"),
    (DEEP_JSON, ("verify", "linking", "{A2}", "a", "b", "--config", "{bad}"),
     "{bad}: invalid JSON ("),
    ('{"preset": ["printed"]}', ("verify", "linking", "{A2}", "a", "b", "--config", "{bad}"),
     "{bad}: unknown conventions preset ['printed']"),
    ('{"preset": {}}', ("verify", "linking", "{A2}", "a", "b", "--config", "{bad}"),
     "{bad}: unknown conventions preset {{}}"),
    ("{}", ("verify", "unlinking", "{MIX3}", "a", "c"),
     "unlink requires at least one arrow between 'a' and 'c'"),
    ("{}", ("verify", "homology", "{MIX3}", "a", "c"),
     "unlink requires at least one arrow between 'a' and 'c'"),
], ids=["no-matrix", "vertices-not-list", "row-not-list", "truncated", "deep-quiver",
        "config-not-object", "deep-config", "preset-list", "preset-object",
        "unlink-without-arrow",
        "homology-without-arrow"])
def test_bad_input_exits_two_with_one_line(tmp_path, text, argv, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    mix3 = tmp_path / "MIX3.json"
    mix3.write_text(json.dumps({"vertices": ["a", "b", "c"],
                                "matrix": [[1, 1, 0], [1, 0, 2], [0, 2, 1]]}))
    paths = {"bad": bad, "A2": write_a2(tmp_path), "MIX3": mix3}
    code, out, err = run_cli(*(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    message = "error: " + message.format(**paths)
    if message.endswith("("):
        assert err.startswith(message) and err.endswith(")\n")
    else:
        assert err == message + "\n"
    assert err.count("\n") == 1 and err.count(str(bad)) == ("{bad}" in argv)


def test_bounds_are_checked_before_the_quiver_file_is_read(tmp_path):
    missing = str(tmp_path / "missing.json")
    for argv, bound in ((("series", missing, "--order", "-1"), "--order must be >= 0, got -1"),
                        (("verify", "homology", missing, "a", "b", "--smax", "-3"),
                         "--smax must be >= 0, got -3")):
        assert run_cli(*argv) == (2, "", f"error: {bound}\n"), argv


def test_directory_as_input_file_exits_two(tmp_path):
    folder = tmp_path / "folder"
    folder.mkdir()
    for argv in (("info", str(folder)),
                 ("verify", "linking", write_a2(tmp_path), "a", "b", "--config",
                  str(folder))):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {folder}: Is a directory\n"


def test_dt_window_without_constant_term_exits_two(tmp_path, monkeypatch):
    # no argv reaches a window without t^0 any more; main still turns the
    # SeriesError its handler raises there (the constant term of A_Q is not 1
    # on it) into exit 2 with one line
    monkeypatch.setattr("quivercalc.cli.dt_window", lambda quiver, order: (-5, -1))
    code, out, err = run_cli("dt", write_a2(tmp_path), "--order", "2")
    assert (code, out) == (2, "")
    assert err == "error: pleth_log: series must have constant term 1\n"


@pytest.mark.parametrize("flags", [("--qmin", "-6", "--qmax", "0"), ("--qmin", "-6"),
                                   ("--qmax", "0")])
def test_dt_rejects_a_window(tmp_path, flags):
    # dt always runs on dt_window: a lower --qmin widens the window enough for
    # an all-zero entry to read as a stable zero, e.g. Omega_1 = 0 instead of 1
    # on the 0-loop vertex
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"vertices": ["v"], "matrix": [[0]]}))
    code, out, err = run_cli("dt", str(zero), "--order", "1", *flags)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("command, argv, leftover", [
    ("verify gr", ("a", "b", "--calibrate"), "--calibrate"),
    ("dt", ("--qmin", "1", "--qmax", "2"), "--qmin 1 --qmax 2"),
    ("dt", ("--guard", "5"), "--guard 5"),
])
def test_leftover_arguments_print_the_leaf_usage(tmp_path, command, argv, leftover):
    # an option the leaf sub-parser does not declare is rejected with that
    # sub-parser's usage, not the root's
    code, out, err = run_cli(*command.split(), write_a2(tmp_path), *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: quivercalc {command} [-h] ")
    assert err.endswith(f"quivercalc {command}: error: unrecognized arguments: {leftover}\n")


def test_usage_error_exits_two(tmp_path, capsys):
    # argparse's usage errors go to the err stream main was given, and main
    # returns 2 instead of raising SystemExit
    code, out, err = run_cli("verify", "bogus-target", write_a2(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("usage:")
    code, _, err = run_cli("verify", "homology", write_a2(tmp_path))
    assert code == 2
    code, out, err = run_cli("verify", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage:")
    assert capsys.readouterr() == ("", "")


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch):
    # one process runs a usage error and then each option with and without
    # its neighbour's; every call prints what a fresh process prints, so no
    # default or parsed value leaks from one call into the next
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(quivercalc.__file__)),
        os.environ.get("PYTHONPATH")))))
    a2 = write_a2(tmp_path)
    build_parser.cache_clear()
    for argv in (("verify", "bogus-target", a2),
                 ("verify", "gr", a2, "a", "b", "--order", "2", "--smax", "3",
                  "--output", "json"),
                 ("verify", "gr", a2, "a", "b", "--order", "2", "--output", "json"),
                 ("verify", "linking", a2, "a", "b", "--calibrate", "--output", "json"),
                 ("verify", "linking", a2, "a", "b", "--output", "json")):
        fresh = subprocess.run([sys.executable, "-m", "quivercalc", *argv], env=env,
                               capture_output=True, text=True, check=False)
        assert run_cli(*argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert build_parser.cache_info().misses == 1
    assert build_parser() is build_parser()


def test_negative_series_order_exits_two(tmp_path):
    code, out, err = run_cli("series", write_a2(tmp_path), "--order", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --order must be >= 0, got -1\n"


def test_zero_dt_guard_exits_two(tmp_path):
    # dt has no --guard: a guard, valid or not, is a usage error
    code, out, err = run_cli("dt", write_a2(tmp_path), "--guard", "0", "--output", "json")
    assert (code, out) == (2, "")
    assert err.endswith("quivercalc dt: error: unrecognized arguments: --guard 0\n")


def test_zero_diagonalize_order_exits_two(tmp_path):
    a2 = write_a2(tmp_path)
    for argv in (("diagonalize", a2), ("verify", "diagonalization", a2)):
        code, out, err = run_cli(*argv, "--order", "0")
        assert (code, out) == (2, ""), argv
        assert err == "error: --order must be >= 1, got 0\n"


def test_negative_verify_order_and_smax_exit_two(tmp_path):
    a2 = write_a2(tmp_path)
    code, out, err = run_cli("verify", "gr", a2, "a", "b", "--order", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --order must be >= 0, got -1\n"
    code, out, err = run_cli("verify", "homology", a2, "a", "b", "--smax", "-3")
    assert (code, out) == (2, "")
    assert err == "error: --smax must be >= 0, got -3\n"


def test_negative_algebra_dims_smax_exits_two(tmp_path):
    code, out, err = run_cli("algebra-dims", write_a2(tmp_path), "--degree", "1,1",
                             "--smax", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --smax must be >= 0, got -1\n"


def test_empty_window_identity_is_inconclusive(tmp_path):
    # the window lies below all support, so both sides are zero there
    a2 = write_a2(tmp_path)
    config = tmp_path / "printed.json"
    config.write_text(json.dumps({"preset": "printed"}))
    for argv in (("verify", "unlinking", a2, "a", "b", "--qmin", "-200",
                  "--qmax", "-190", "--config", str(config), "--output", "json"),
                 ("verify", "linking", a2, "a", "b", "--qmin", "-200",
                  "--qmax", "-190", "--output", "json")):
        code, out, err = run_cli(*argv)
        assert (code, err) == (1, ""), argv
        payload = json.loads(out)
        assert payload["passed"] is False
        assert [m["kind"] for m in payload["mismatches"]] == ["inconclusive"]
    # the constant term 1 = 1 alone gives no verdict either
    code, out, err = run_cli("verify", "unlinking", a2, "a", "b", "--qmin", "-4",
                             "--qmax", "0", "--output", "json")
    assert (code, err) == (1, "")
    assert [m["kind"] for m in json.loads(out)["mismatches"]] == ["inconclusive"]


def test_poincare_below_support_is_inconclusive(tmp_path):
    # every term of A_Q sits at t^(d.M.d + |d|) >= 0, so --qmax < 0 compares nothing
    code, out, err = run_cli("verify", "poincare", write_a2(tmp_path), "--qmin", "-200",
                             "--qmax", "-190", "--output", "json")
    assert (code, err) == (1, "")
    assert [m["kind"] for m in json.loads(out)["mismatches"]] == ["inconclusive"]


def test_diagonalization_below_support_is_inconclusive(tmp_path):
    code, out, err = run_cli("verify", "diagonalization", write_a2(tmp_path), "--qmin",
                             "-200", "--qmax", "-190", "--output", "json")
    assert (code, err) == (1, "")
    assert [m["kind"] for m in json.loads(out)["mismatches"]] == ["inconclusive"]


@pytest.mark.parametrize("argv", [("linking", "a", "b", "--order", "0"),
                                  ("poincare", "--order", "0")])
def test_series_check_at_order_zero_is_inconclusive(tmp_path, argv):
    # order 0 compares only the constant term 1 = 1
    code, out, err = run_cli("verify", argv[0], write_a2(tmp_path), *argv[1:],
                             "--output", "json")
    assert (code, err) == (1, "")
    assert [m["kind"] for m in json.loads(out)["mismatches"]] == ["inconclusive"]


def test_empty_quiver_diagonalization_is_inconclusive(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": [], "matrix": []}))
    code, out, err = run_cli("verify", "diagonalization", str(empty), "--output",
                             "json")
    assert (code, err) == (1, "")
    assert [m["kind"] for m in json.loads(out)["mismatches"]] == ["inconclusive"]


@pytest.mark.parametrize("target", ["gr", "homology"])
def test_unit_component_alone_is_inconclusive(tmp_path, target):
    # --order 0 reaches only d = 0, whose single component is the unit
    a2 = write_a2(tmp_path)
    code, out, err = run_cli("verify", target, a2, "a", "b", "--order", "0",
                             "--output", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["passed"] is False
    assert [m["kind"] for m in payload["mismatches"]] == ["inconclusive"]
    code, out, err = run_cli("verify", target, a2, "a", "b", "--order", "1")
    assert (code, err) == (0, "")
    assert "PASS" in out


def test_unlink_without_edge_exits_two(tmp_path):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"vertices": ["a", "b"], "matrix": [[0, 0], [0, 0]]}))
    code, _, err = run_cli("unlink", str(bare), "a", "b")
    assert code == 2
    assert "arrow" in err


# -- transforms and round trips ------------------------------------------------------

def test_link_writes_expected_matrix(tmp_path):
    a2 = write_a2(tmp_path)
    outfile = tmp_path / "out.json"
    code, _, _ = run_cli("link", a2, "a", "b", "-o", str(outfile))
    assert code == 0
    reloaded = json.loads(outfile.read_text())
    assert reloaded["matrix"] == [[0, 2, 1], [2, 0, 1], [1, 1, 2]]
    assert Quiver.load(outfile) == Quiver(
        ("a", "b", "a+b#1"), ((0, 2, 1), (2, 0, 1), (1, 1, 2)))


def test_unlink_round_trip(tmp_path):
    a2 = write_a2(tmp_path)
    outfile = tmp_path / "u.json"
    code, out, _ = run_cli("unlink", a2, "a", "b", "-o", str(outfile),
                           "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["new_vertex"] == "a*b#1"
    assert Quiver.load(outfile).to_json() == payload["quiver"]


def test_diagonalize_outfile_is_diagonal(tmp_path):
    m2 = tmp_path / "m2.json"
    m2.write_text(json.dumps({"vertices": ["a", "b"], "matrix": [[0, 2], [2, 0]]}))
    outfile = tmp_path / "diag.json"
    code, out, _ = run_cli("diagonalize", str(m2), "--order", "2",
                           "-o", str(outfile), "--output", "json")
    assert code == 0
    diag = Quiver.load(outfile)
    n = len(diag)
    assert all(diag.matrix[i][j] == 0
               for i in range(n) for j in range(n) if i != j)
    payload = json.loads(out)
    assert payload["pruned"] >= 0
    assert all(f["loops"] >= 0 for f in payload["factors"])


@pytest.mark.parametrize("argv", [("link", "a", "b"), ("unlink", "a", "b"),
                                  ("diagonalize", "--order", "2")])
@pytest.mark.parametrize("output", ["text", "json"])
def test_outfile_write_failure_exits_two(tmp_path, argv, output):
    a2 = write_a2(tmp_path)
    target = tmp_path / "missing" / "q.json"
    code, out, err = run_cli(argv[0], a2, *argv[1:], "-o", str(target),
                             "--output", output)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {target}: ") and err.count("\n") == 1


# -- output determinism ----------------------------------------------------------------

def test_json_output_byte_identical(tmp_path):
    a2 = write_a2(tmp_path)
    for argv in (
        ("series", a2, "--order", "3", "--output", "json"),
        ("dt", a2, "--order", "3", "--output", "json"),
        ("verify", "unlinking", a2, "a", "b", "--order", "3",
         "--output", "json", "--calibrate"),
        ("algebra-dims", a2, "--degree", "1,1", "--output", "json"),
        ("info", a2, "--output", "json"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0
        json.loads(first[1])  # every payload is valid JSON


def random_json_value(rng, depth=0):
    """A nested value of the kinds the JSON writer encodes: str, int, bool and
    None leaves, str-keyed dicts, lists and tuples."""
    pick = rng.random()
    if depth > 4 or pick < 0.3:
        return rng.choice([0, -7, 10 ** 40, True, False, None, "", "plain",
                           "quote \" slash \\ tab \t nl \n nul \x00 del \x7f",
                           "caf\u00e9 \u2603 \U0001f600 \ud800"])
    if pick < 0.45:
        return [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(0, 6))]
    if pick < 0.55:
        return [rng.choice([0, 1, True, False]) for _ in range(rng.randint(1, 4))]
    if pick < 0.7:
        return [random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if pick < 0.8:
        return tuple(random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4)))
    return {rng.choice(["k", "\u00e9", "\"", "a b", "", "\n"]) + str(rng.randint(0, 9)):
            random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def test_json_writer_matches_json_dumps():
    # the conftest fixture compares every payload main encodes; this adds
    # values no payload holds
    rng = random.Random(27)
    deep = list(range(5))
    for _ in range(40):
        deep = [deep, [1, 2], {}]
    values = [random_json_value(rng) for _ in range(2000)]
    values += [deep, [], {}, (), [[]], {"a": []}, {"b": {}, "a": ()}, [True, 1, 0, False]]
    for value in values:
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2), value
    # json.dumps encodes these, the writer does not: no payload holds them
    for bad, message in (([1, 1.5], "Object of type float is not JSON serializable"),
                         ({"x": [-0.0]}, "Object of type float is not JSON serializable"),
                         ({"x": float("nan")}, "Object of type float is not JSON serializable"),
                         ([float("inf")], "Object of type float is not JSON serializable"),
                         ({1: "int key"}, "keys must be str, not int"),
                         ({None: 1}, "keys must be str, not NoneType")):
        with pytest.raises(TypeError, match=f"^{message}$"):
            cli._json_text(bad)
    for bad in ({1: 0, "a": 0}, {"a": object()}, [Fraction(1, 2)]):
        with pytest.raises(TypeError) as got:
            cli._json_text(bad)
        with pytest.raises(TypeError) as want:
            json.dumps(bad, sort_keys=True, indent=2)
        assert str(got.value) == str(want.value)


def test_report_json_excludes_timing(tmp_path):
    a2 = write_a2(tmp_path)
    _, out, _ = run_cli("verify", "linking", a2, "a", "b", "--order", "2",
                        "--output", "json")
    payload = json.loads(out)
    assert payload["passed"] is True
    assert "seconds" not in json.dumps(payload)
    assert payload["conventions"]["link_qpow"] == 1


# -- computations -----------------------------------------------------------------------

def test_dt_text_output(tmp_path):
    a2 = write_a2(tmp_path)
    code, out, _ = run_cli("dt", a2, "--order", "2")
    assert code == 0
    assert "Omega(1, 1): {1: 1}" in out


def test_dt_unstable_window_exits_one(tmp_path, monkeypatch):
    monkeypatch.setattr("quivercalc.cli.dt_window", lambda quiver, order: (-6, 6))
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"vertices": ["v"], "matrix": [[2]]}))
    code, out, err = run_cli("dt", str(two), "--order", "2")
    assert code == 1
    assert "UNSTABLE" in out
    assert err.startswith("dt: dt_check requires a stabilized result; unstable degrees: [")
    assert err.count("\n") == 1


@pytest.mark.parametrize("quiver, order", [({"vertices": [], "matrix": []}, "3"),
                                           (A2_OBJ, "0")])
@pytest.mark.parametrize("output", ["text", "json"])
def test_dt_with_no_invariant_exits_one(tmp_path, quiver, order, output):
    # the empty quiver and --order 0 have no degree 1 <= |d| <= order, so dt
    # checked nothing: inconclusive, as on the verify targets
    path = tmp_path / "q.json"
    path.write_text(json.dumps(quiver))
    code, out, err = run_cli("dt", str(path), "--order", order, "--output", output)
    assert (code, err) == (1, "dt: inconclusive: no degree 1 <= |d| <= order has a "
                              "nonzero invariant; nothing was checked\n")
    if output == "json":
        assert json.loads(out)["invariants"] == []
    else:
        assert out == ""


def test_dt_default_window_is_stable(tmp_path):
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"vertices": ["v"], "matrix": [[2]]}))
    code, out, _ = run_cli("dt", str(two), "--order", "3", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(entry["stable"] for entry in payload["invariants"])


@pytest.mark.parametrize("matrix, order", [([[1, 1, 0], [1, 0, 2], [0, 2, 1]], 12),
                                           ([[3]], 20)])
def test_dt_euler_form_window_is_stable_at_high_order(tmp_path, matrix, order):
    # MIX3 at order 12 and the 3-loop vertex at order 20 left degrees unstable
    # on a window linear in the order, even after doubling it
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": list("abc"[:len(matrix)]), "matrix": matrix}))
    code, out, err = run_cli("dt", str(path), "--order", str(order), "--output", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert "window_widened" not in payload
    assert all(entry["stable"] and entry["positive"] for entry in payload["invariants"])


@pytest.mark.parametrize("bad", [-1, Fraction(1, 2)])
def test_dt_stable_but_not_positive_exits_one(tmp_path, monkeypatch, bad):
    # a stable result with a negative or non-integral coefficient fails the
    # positivity check, in text and in JSON
    def fake_extract(series):
        return DTResult(series.vertices, series.cap, [
            DTEntry((1, 0), {0: 1}, (-6, 6), True),
            DTEntry((0, 1), {0: bad}, (-6, 6), True)])

    monkeypatch.setattr("quivercalc.cli.dt_extract", fake_extract)
    a2 = write_a2(tmp_path)
    reason = "dt: non-integral or negative invariants in degrees [(0, 1)]\n"
    code, out, err = run_cli("dt", a2, "--order", "1")
    assert (code, err) == (1, reason)
    # exact values, as in the JSON: 1/2, not Fraction(1, 2)
    shown = {-1: "-1", Fraction(1, 2): "1/2"}[bad]
    assert out.splitlines() == ["Omega(1, 0): {0: 1}",
                                f"Omega(0, 1): {{0: {shown}}}  NOT POSITIVE"]
    assert "Fraction(" not in out
    code, out, err = run_cli("dt", a2, "--order", "1", "--output", "json")
    assert (code, err) == (1, reason)
    assert [e["positive"] for e in json.loads(out)["invariants"]] == [True, False]


def test_algebra_dims_table(tmp_path):
    a2 = write_a2(tmp_path)
    code, out, _ = run_cli("algebra-dims", a2, "--degree", "1,1",
                           "--smax", "3", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    dims = [row["dimension"] for row in payload["components"]]
    assert dims == [0, 1, 2, 3]
    assert dims == [row["functional_dimension"] for row in payload["components"]]


def test_algebra_dims_disagreement_exits_one(tmp_path, monkeypatch):
    # a rank dimension that differs from the functional one is a failure
    a2 = write_a2(tmp_path)
    monkeypatch.setattr("quivercalc.cli.functional_dimension",
                        lambda quiver, degree, hdeg: 1 if hdeg == -4 else 0)
    code, out, err = run_cli("algebra-dims", a2, "--degree", "1,1",
                             "--smax", "3", "--output", "json")
    assert (code, err) == (1, "")
    rows = json.loads(out)["components"]
    assert [(r["dimension"], r["functional_dimension"]) for r in rows] == [
        (0, 0), (1, 0), (2, 1), (3, 0)]
    code, out, _ = run_cli("algebra-dims", a2, "--degree", "1,1", "--smax", "0")
    assert code == 0 and "dim=0 functional=0" in out


# The component cells of the algebra-rank benchmark workload, with fixed
# vertex labels.  The digest pins every dimension those requests print.
RANK_MATRICES = {"A2": [[0, 1], [1, 0]], "M2": [[0, 2], [2, 0]],
                 "M2L": [[1, 2], [2, 0]], "MIX3": [[1, 1, 0], [1, 0, 2], [0, 2, 1]],
                 **{f"L{m}": [[m]] for m in range(4)}}
RANK_CELLS = ([("A2", (3, 3), 13), ("A2", (4, 4), 12), ("M2L", (2, 3), 12),
               ("M2L", (2, 2), 16), ("MIX3", (1, 2, 2), 10), ("M2", (3, 3), 14)]
              + [(f"L{m}", (d,), 14) for m in range(4) for d in range(2, 9)])
RANK_CELLS_SHA256 = "52a47613d3645c6d5dcd3daad2a480ec49235a545e03fd877fc59a41d4fc9d0a"


def test_algebra_dims_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for name, degree, smax in RANK_CELLS:
        matrix = RANK_MATRICES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"vertices": list("abc"[:len(matrix)]),
                                    "matrix": matrix}))
        code, out, err = run_cli("algebra-dims", str(path), "--degree",
                                 ",".join(map(str, degree)), "--smax", str(smax),
                                 "--output", "json")
        assert (code, err) == (0, ""), (name, degree)
        digest.update(out.encode())
    assert digest.hexdigest() == RANK_CELLS_SHA256


# The cells of the series-dt benchmark workload, with fixed vertex labels.  The
# first digest pins everything they print; the second pins only the
# (degree, omega, stable) triples, which no choice of window may move.
DT_CELLS = ([("MIX3", 8), ("MIX3", 10)]
            + [(name, order) for name in ("A2", "M2", "M2L") for order in (7, 8)]
            + [(f"L{m}", order) for m in range(4) for order in range(7, 13)])
DT_CELLS_SHA256 = "ce684aecbbfad3d4ac90753b8059bc5edafc3396b2bfc22be5ee4d5992b1ab16"
DT_INVARIANTS_SHA256 = "5d685e24b999e71ce692eda8d226e7222f514104f498134b23291e0329cd2c80"


def test_dt_golden_digest(tmp_path):
    digest = hashlib.sha256()
    invariants = hashlib.sha256()
    for name, order in DT_CELLS:
        matrix = RANK_MATRICES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"vertices": list("abc"[:len(matrix)]),
                                    "matrix": matrix}))
        code, out, err = run_cli("dt", str(path), "--order", str(order),
                                 "--output", "json")
        assert (code, err) == (0, ""), (name, order)
        digest.update(out.encode())
        invariants.update(json.dumps([[e["degree"], e["omega"], e["stable"]]
                                      for e in json.loads(out)["invariants"]]).encode())
    assert invariants.hexdigest() == DT_INVARIANTS_SHA256
    assert digest.hexdigest() == DT_CELLS_SHA256


# One homology cell and the order-5 gr cell per quiver of the algebra-homology
# benchmark workload, with fixed vertex labels.  The digest pins the verdicts
# and the component, nonzero component and composition counts they print.
HOMOLOGY_CELLS = [("homology", "A2", "a", "b", 4, 10),
                  ("homology", "M2", "a", "b", 4, 10),
                  ("homology", "M2L", "a", "b", 4, 10),
                  ("homology", "MIX3", "b", "c", 4, 8)]
GR_CELLS = [("gr", name, a, b, 5, 8) for _, name, a, b, _, _ in HOMOLOGY_CELLS]
HOMOLOGY_GR_SHA256 = "2ba0bd9db5f8bde475fb006c6794ba3f9212fe8154a0cfcf7827d59ebd503982"


def test_homology_and_gr_golden_digest(tmp_path):
    digest = hashlib.sha256()
    for target, name, a, b, order, smax in HOMOLOGY_CELLS + GR_CELLS:
        matrix = RANK_MATRICES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"vertices": list("abc"[:len(matrix)]),
                                    "matrix": matrix}))
        code, out, err = run_cli("verify", target, str(path), a, b, "--order",
                                 str(order), "--smax", str(smax), "--output", "json")
        assert (code, err) == (0, ""), (target, name)
        digest.update(out.encode())
    assert digest.hexdigest() == HOMOLOGY_GR_SHA256


# Link and unlink checks of the identity-verify benchmark workload, with fixed
# vertex labels, once with --calibrate and once under the printed constants.
# The digests pin the verdicts, the calibration scans, the coverage counts
# and the refutations' mismatch payloads with their windows.
LINK_CELLS = [(kind, name, order) for kind in ("linking", "unlinking")
              for name in ("A2", "M2", "M2L", "MIX3") for order in (6, 10)]
LINK_CALIBRATE_SHA256 = "2b2d89bbad3cfe375095e209b415c807c88d1d24ba74ad22126868a805be29f5"
LINK_PRINTED_SHA256 = "1de951effc7731d858e9319c49276a8529ca864326d757bcf89f93b49ced0802"


def test_link_and_unlink_golden_digests(tmp_path):
    printed = tmp_path / "printed.json"
    printed.write_text(json.dumps({"preset": "printed"}))
    for flags, exit_code, expected in ((("--calibrate",), 0, LINK_CALIBRATE_SHA256),
                                       (("--config", str(printed)), 1, LINK_PRINTED_SHA256)):
        digest = hashlib.sha256()
        for kind, name, order in LINK_CELLS:
            matrix = RANK_MATRICES[name]
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"vertices": list("abc"[:len(matrix)]),
                                        "matrix": matrix}))
            code, out, err = run_cli("verify", kind, str(path), "a", "b", "--order",
                                     str(order), *flags, "--output", "json")
            assert (code, err) == (exit_code, ""), (kind, name, order, flags)
            digest.update(out.encode())
        assert digest.hexdigest() == expected, flags


# The diagonalization identity under the printed constants: M2 at order 6
# fails on 15 degrees.  The digest pins the payload on the default
# valuation_window, the right-hand windows of every mismatch among it.
DIAGONALIZATION_PRINTED_SHA256 = (
    "d8067ec2d6af1ca9a8c5a6e93686a66a13309e77d378dc081171de349145cebb")


def test_diagonalization_refuted_by_printed_constants(tmp_path):
    path = tmp_path / "M2.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "matrix": RANK_MATRICES["M2"]}))
    printed = tmp_path / "printed.json"
    printed.write_text(json.dumps({"preset": "printed"}))
    code, out, err = run_cli("verify", "diagonalization", str(path), "--order", "6",
                             "--config", str(printed), "--output", "json")
    assert (code, err) == (1, "")
    assert len(json.loads(out)["mismatches"]) == 15
    assert hashlib.sha256(out.encode()).hexdigest() == DIAGONALIZATION_PRINTED_SHA256


@pytest.mark.parametrize("name, order, mismatches", [
    ("M2", 6, 15), ("M2", 7, 21), ("MIX3", 5, 30), ("A2", 7, 21), ("M2L", 5, 10)])
def test_diagonalization_default_window_refutes_printed_constants(tmp_path, name,
                                                                  order, mismatches):
    # the default window is valuation_window, which reaches every degree, so
    # the text summary shows all of them nonzero beside the mismatch count;
    # the digest above pins the M2 order 6 payload itself
    matrix = RANK_MATRICES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"vertices": list("abc"[:len(matrix)]), "matrix": matrix}))
    printed = tmp_path / "printed.json"
    printed.write_text(json.dumps({"preset": "printed"}))
    code, out, err = run_cli("verify", "diagonalization", str(path), "--order", str(order),
                             "--config", str(printed), "--output", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert len(report["mismatches"]) == mismatches
    assert report["details"]["degrees_nonzero"] == report["details"]["degrees_compared"]
    code, out, _ = run_cli("verify", "diagonalization", str(path), "--order", str(order),
                           "--config", str(printed))
    compared = report["details"]["degrees_compared"]
    assert code == 1
    assert out.splitlines()[0] == (
        f"FAIL diagonalization-identity ({mismatches} mismatching components; "
        f"{compared} of {compared} degrees nonzero on the window)")


def test_homology_summary_shows_compositions_checked(tmp_path):
    # below order 4 no degree has two consecutive blocks to compose
    a2 = str(write_a2(tmp_path))
    code, out, _ = run_cli("verify", "homology", a2, "a", "b", "--order", "3")
    assert (code, out) == (0, "PASS unlinking-homology (108 of 117 components "
                              "nonzero; 0 compositions checked)\n")
    code, out, _ = run_cli("verify", "homology", a2, "a", "b", "--order", "4", "--smax", "2")
    assert code == 0 and out.startswith("PASS unlinking-homology (") and "(0 " not in out


@pytest.mark.parametrize("target", ["gr", "homology"])
def test_algebra_checks_count_nonzero_components(tmp_path, target):
    # components_nonzero counts the compared components with |d| >= 1
    # where some side is nonzero: none at order 0, where only the unit is
    # compared and the check is inconclusive
    a2 = write_a2(tmp_path)
    for order in (0, 2):
        code, out, _ = run_cli("verify", target, a2, "a", "b", "--order", str(order),
                               "--output", "json")
        details = json.loads(out)["details"]
        nonzero, checked = details["components_nonzero"], details["components_checked"]
        assert (code, nonzero > 0) == ((0, True) if order else (1, False))
        assert nonzero < checked
        code, out, _ = run_cli("verify", target, a2, "a", "b", "--order", str(order))
        assert f"{nonzero} of {checked} components nonzero" in out
    if target == "gr":
        # a passing gr check has equal sides, so its count is the number of
        # nonzero functional dimensions with 1 <= |d| <= 2 and s <= 8
        quiver = Quiver.from_json(A2_OBJ)
        assert nonzero == sum(
            algebra.functional_dimension(quiver, d, -algebra.loop_weight(quiver, d) - 2 * s) != 0
            for d in iter_multidegrees(2, 2) if sum(d) for s in range(9))


def write_fleet(tmp_path):
    """A2, M2 and MIX3 over the labels a, b, c; returns name -> path."""
    paths = {}
    for name in ("A2", "M2", "MIX3"):
        matrix = RANK_MATRICES[name]
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"vertices": list("abc"[:len(matrix)]),
                                           "matrix": matrix}))
    return paths


def verify_mismatches(*argv):
    """Exit code and mismatch list of one `verify ... --output json` run."""
    code, out, err = run_cli("verify", *argv, "--output", "json")
    assert err == ""
    return code, json.loads(out)["mismatches"]


def shifted_functional_layout(monkeypatch):
    """Plant deg F_d + 1 for |d| >= 2 in the functional realization."""
    real = algebra._functional_layout

    def shifted(quiver, degree):
        parts, deg_f = real(quiver, degree)
        return parts, deg_f + (sum(degree) >= 2)

    monkeypatch.setattr(algebra, "_functional_layout", shifted)


def test_verify_gr_refuted_by_a_wrong_linked_quiver(tmp_path, monkeypatch):
    paths = write_fleet(tmp_path)
    for path in paths.values():
        assert verify_mismatches("gr", str(path), "a", "b", "--order", "3") == (0, [])
    real_link = algebra.link

    def link_with_one_loop_too_many(quiver, a, b):
        linked = real_link(quiver, a, b)
        matrix = [list(row) for row in linked.matrix]
        matrix[-1][-1] += 1
        return Quiver(linked.vertices, tuple(map(tuple, matrix)))

    with monkeypatch.context() as patch:
        patch.setattr(algebra, "link", link_with_one_loop_too_many)
        counts = {}
        for name, path in paths.items():
            code, mismatches = verify_mismatches("gr", str(path), "a", "b", "--order", "3")
            assert code == 1
            counts[name] = len(mismatches)
    assert counts == {"A2": 22, "M2": 17, "MIX3": 27}
    # a wrong functional dimension is caught by the relation-rank oracle
    shifted_functional_layout(monkeypatch)
    oracle = {}
    for name, path in paths.items():
        code, mismatches = verify_mismatches("gr", str(path), "a", "b", "--order", "3")
        assert code == 1
        oracle[name] = sum(m.get("kind") == "oracle" for m in mismatches)
    assert oracle == {"A2": 7, "M2": 6, "MIX3": 15}


def test_verify_poincare_refuted_by_a_shifted_functional_degree(tmp_path, monkeypatch):
    paths = write_fleet(tmp_path)
    for path in paths.values():
        assert verify_mismatches("poincare", str(path), "--order", "3") == (0, [])
    shifted_functional_layout(monkeypatch)
    counts = {}
    for name, path in paths.items():
        code, mismatches = verify_mismatches("poincare", str(path), "--order", "3")
        assert code == 1
        counts[name] = len(mismatches)
    assert counts == {"A2": 7, "M2": 7, "MIX3": 16}


def test_series_of_a_quiver_with_a_thousand_vertices(tmp_path):
    # one vertex per input vector entry, as a diagonalization at high order
    # writes; enumerating its multidegrees must not recurse per vertex
    n = 1050
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps({"vertices": [f"v{i}" for i in range(n)],
                                "matrix": [[i % 3 if i == j else 0 for j in range(n)]
                                           for i in range(n)]}))
    code, out, err = run_cli("series", str(path), "--order", "1", "--output", "json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["terms"]) == n + 1


def test_verify_poincare_on_a_quiver_with_a_thousand_vertices(tmp_path):
    # each multidegree's functional layout visits only the vertices it uses,
    # not every vertex pair
    n = 1000
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps({"vertices": [f"v{i}" for i in range(n)],
                                "matrix": [[i % 3 if i == j else 0 for j in range(n)]
                                           for i in range(n)]}))
    code, out, err = run_cli("verify", "poincare", str(path), "--order", "1")
    assert (code, err) == (0, "")
    assert out.startswith("PASS poincare-series-identity")


def test_algebra_dims_of_a_thousand_generators(tmp_path):
    code, out, err = run_cli("algebra-dims", write_a2(tmp_path), "--degree", "1000,0",
                             "--smax", "2", "--output", "json")
    assert (code, err) == (0, "")
    assert [c["dimension"] for c in json.loads(out)["components"]] == [1, 1, 2]


def test_module_entry_point_passes_the_exit_status_through(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(quivercalc.__file__)),
        os.environ.get("PYTHONPATH")))))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": [], "matrix": []}))

    def module(*argv):
        done = subprocess.run([sys.executable, "-m", "quivercalc", *argv], env=env,
                              capture_output=True, text=True, check=False)
        return done.returncode, done.stdout, done.stderr

    a2 = write_a2(tmp_path)
    info = module("info", a2)
    assert info == run_cli("info", a2)
    assert info[0] == 0
    code, out, err = module("dt", str(empty))
    assert code == 1
    assert err.startswith("dt: inconclusive")
    code, out, err = module("info", str(tmp_path / "missing.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    # a file nested too deeply for the JSON parser is an input error, not a
    # RecursionError traceback, in a fresh interpreter too
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    code, out, err = module("info", str(deep))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {deep}: invalid JSON (") and err.count("\n") == 1


def test_algebra_dims_bad_degree(tmp_path):
    a2 = write_a2(tmp_path)
    assert run_cli("algebra-dims", a2, "--degree", "1,x")[0] == 2
    assert run_cli("algebra-dims", a2, "--degree", "1")[0] == 2
    assert run_cli("algebra-dims", a2, "--degree", "1,-1")[0] == 2


def test_algebra_dims_of_the_empty_quiver(tmp_path):
    # an empty --degree is the empty vector: the unit component alone, as
    # functional_dimension counts it, where info, series and dt also take
    # this quiver; on a quiver with vertices it is a vector of the wrong length
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": [], "matrix": []}))
    code, out, err = run_cli("algebra-dims", str(empty), "--degree", "", "--smax", "2",
                             "--output", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["degree"] == []
    assert [(r["hdeg"], r["dimension"], r["functional_dimension"])
            for r in payload["components"]] == [(0, 1, 1), (-2, 0, 0), (-4, 0, 0)]
    assert run_cli("algebra-dims", str(empty), "--degree", "")[1].startswith("degree ():")
    assert run_cli("algebra-dims", str(empty), "--degree", "0")[0] == 2
    assert run_cli("algebra-dims", str(empty), "--degree", ",")[0] == 2
    code, out, err = run_cli("algebra-dims", write_a2(tmp_path), "--degree", "")
    assert (code, out) == (2, "")
    assert err == "error: --degree needs 2 nonnegative entries, got ''\n"


def test_series_text_mentions_window(tmp_path):
    a2 = write_a2(tmp_path)
    code, out, _ = run_cli("series", a2, "--order", "2")
    assert code == 0
    assert "window" in out and "x^(1, 1)" in out


@pytest.mark.parametrize("matrix, argv, line", [
    # a coefficient that is zero on the window prints as 0
    ([[0, 2], [2, 0]], ("--order", "2", "--qmin", "1", "--qmax", "3"), "x^(1, 1): 0"),
    # a leading monomial of coefficient -1 prints as -q
    ([[1]], ("--order", "1", "--qmin", "-2", "--qmax", "6"), "x^(1,): -q - q^2 - q^3"),
])
def test_series_text_prints_zero_and_negative_terms(tmp_path, matrix, argv, line):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"vertices": [chr(97 + i) for i in range(len(matrix))],
                                "matrix": matrix}))
    code, out, err = run_cli("series", str(path), *argv)
    assert (code, err) == (0, "")
    assert line in out.splitlines()


def test_config_calibrated_override(tmp_path):
    a2 = write_a2(tmp_path)
    config = tmp_path / "conv.json"
    config.write_text(json.dumps({"link_qpow": 1, "unlink_qpow": 0}))
    code, _, _ = run_cli("verify", "linking", a2, "a", "b", "--order", "3",
                         "--config", str(config))
    assert code == 0
    config.write_text("not json")
    code, _, err = run_cli("verify", "linking", a2, "a", "b", "--order", "3",
                           "--config", str(config))
    assert code == 2


# Every command in --output text, over A2 unless named: the digest pins
# (argv, exit code, stdout, stderr) of each.  The 2-loop vertex runs on the
# too-narrow window of test_dt_unstable_window_exits_one, so it exits 1 and
# names its unstable degrees on stderr; MIX3 under the printed constants
# exits 1 with 10 mismatches, past the five that the summary lists.  The
# linking, unlinking, diagonalization, poincare, gr and homology summaries
# carry their coverage counts.
TEXT_CASES = [("info", "{A2}"), ("series", "{A2}", "--order", "2"),
              ("dt", "{A2}", "--order", "3"), ("dt", "{EMPTY}"),
              ("link", "{A2}", "a", "b"), ("unlink", "{A2}", "a", "b"),
              ("diagonalize", "{A2}", "--order", "3"),
              ("algebra-dims", "{A2}", "--degree", "1,1", "--smax", "4"),
              ("verify", "linking", "{A2}", "a", "b", "--order", "3"),
              ("verify", "unlinking", "{A2}", "a", "b", "--order", "3", "--calibrate"),
              ("verify", "diagonalization", "{A2}", "--order", "3"),
              ("verify", "poincare", "{A2}", "--order", "3"),
              ("verify", "gr", "{A2}", "a", "b", "--order", "2"),
              ("verify", "homology", "{A2}", "a", "b", "--order", "2"),
              ("verify", "linking", "{MIX3}", "a", "b", "--order", "4",
               "--config", "{PRINTED}"),
              ("dt", "{L2}", "--order", "2")]
TEXT_SHA256 = "162340c3a306e121c8811a06e88047f49083352f86de427b040531153a91848d"


def test_text_output_golden_digest(tmp_path, monkeypatch):
    paths = {}
    for name, obj in (("A2", A2_OBJ), ("EMPTY", {"vertices": [], "matrix": []}),
                      ("L2", {"vertices": ["v"], "matrix": [[2]]}),
                      ("MIX3", {"vertices": ["a", "b", "c"], "matrix": RANK_MATRICES["MIX3"]}),
                      ("PRINTED", {"preset": "printed"})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    digest = hashlib.sha256()
    exits = []
    for case in TEXT_CASES:
        if case[1] == "{L2}":
            monkeypatch.setattr("quivercalc.cli.dt_window",
                                lambda quiver, order: (-6, 6))
        argv = [arg.format(**paths) for arg in case]
        code, out, err = run_cli(*argv, "--output", "text")
        exits.append(code)
        digest.update(json.dumps([list(case), code, out, err]).encode())
    assert exits == [0] * 3 + [1] + [0] * 10 + [1, 1]
    assert digest.hexdigest() == TEXT_SHA256
