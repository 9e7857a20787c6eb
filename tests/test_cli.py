"""End-to-end runs of the command-line front end (in-process, but for
the `python -m` forms)."""

import contextlib
import errno
import io
import os
import subprocess
import sys

import pytest

from _fixtures import (
    CONFIG_BOWTIE,
    CONFIG_LONG_PATH,
    CONFIGS_EMPTY,
    CONFIGS_SMALL,
    OUTLETS_DEMO_7,
    PRESENT_ESCALATE_7,
    PRESENT_EVICTED_7,
    PRESENT_REDUCE_7,
    PRESENT_REFLECT_7,
    PRESENT_RULES_7,
    PRESENT_SYMMETRY_7,
    PRESENT_ZERO_7,
    RULES_DEMO,
    RULES_EMPTY,
    RULES_TINY,
    ZERO_TRIPLES_7,
    run_cli,
    write,
)
from cartwheel_discharge import cli


@pytest.fixture()
def files(tmp_path):
    return {
        "rules_empty": write(tmp_path, "empty.rules", RULES_EMPTY),
        "rules_tiny": write(tmp_path, "tiny.rules", RULES_TINY),
        "rules_demo": write(tmp_path, "demo.rules", RULES_DEMO),
        "configs_empty": write(tmp_path, "empty.confs", CONFIGS_EMPTY),
        "configs_small": write(tmp_path, "small.confs", CONFIGS_SMALL),
        "zero": write(tmp_path, "zero.pres", PRESENT_ZERO_7),
        "rules_pres": write(tmp_path, "rules.pres", PRESENT_RULES_7),
        "reduce": write(tmp_path, "reduce.pres", PRESENT_REDUCE_7),
        "symmetry": write(tmp_path, "symmetry.pres", PRESENT_SYMMETRY_7),
        "evicted": write(tmp_path, "evicted.pres", PRESENT_EVICTED_7),
        "outlets7": write(tmp_path, "demo7.outlets", OUTLETS_DEMO_7),
    }


def verify(files, pres, rules="rules_empty", configs="configs_empty", *extra):
    return run_cli(["verify", "-d", "7", "-r", files[rules],
                    "-p", files[pres], "-c", files[configs], *extra])


# ---------------------------------------------------------------- verify

def test_verify_zero_presentation(files):
    code, out, err = verify(files, "zero")
    assert (code, err) == (0, "")
    assert out == ("verified: degree 7, 1 steps, 0 branches, "
                   "dispositions H=1\n")


def test_verify_with_rules(files):
    code, out, _ = verify(files, "rules_pres", "rules_tiny", "configs_small")
    assert code == 0
    assert "dispositions H=1" in out


def test_verify_with_reduction(files):
    code, out, _ = verify(files, "reduce", "rules_empty", "configs_small")
    assert code == 0
    assert out == ("verified: degree 7, 5 steps, 2 branches, "
                   "dispositions H=2 R=1\n")


def test_verify_with_symmetry(files):
    code, out, _ = verify(files, "symmetry")
    assert code == 0
    assert "dispositions H=2 S=1" in out


def test_verify_golden_table_match(files, tmp_path):
    code, out, _ = run_cli(["derive-outlets", "-d", "7",
                            "-r", files["rules_tiny"]])
    assert code == 0
    golden = write(tmp_path, "tiny7.outlets", out)
    code, out, err = verify(files, "rules_pres", "rules_tiny",
                            "configs_small", "--golden", golden)
    assert (code, err) == (0, "")
    assert out.startswith("verified: degree 7")


def test_verify_golden_table_mismatch(files):
    code, out, _ = verify(files, "zero", "rules_tiny", "configs_empty",
                          "--golden", files["outlets7"])
    assert code == 1
    assert "row 1: derived" in out
    assert f"disagrees with {files['outlets7']}" in out
    assert "verified" not in out


def test_verify_rejects_degree_out_of_range(files):
    code, _, err = run_cli(["verify", "-d", "6", "-r", files["rules_empty"],
                            "-p", files["zero"], "-c", files["configs_empty"]])
    assert code == 2
    assert err == "error: degree 6 out of range 7..11\n"


def test_verify_reports_missing_files(files):
    code, _, err = run_cli(["verify", "-d", "7", "-r", "/no/such.rules",
                            "-p", files["zero"], "-c", files["configs_empty"]])
    assert code == 2
    assert err.startswith("error: /no/such.rules:")


@pytest.mark.parametrize("flag", ["-r", "-p", "-c"])
def test_verify_rejects_undecodable_files(files, tmp_path, flag):
    bad = tmp_path / "binary.txt"
    bad.write_bytes(b"\xff\xfe")
    argv = ["verify", "-d", "7"]
    for f, path in (("-r", files["rules_empty"]), ("-p", files["zero"]),
                    ("-c", files["configs_empty"])):
        argv += [f, str(bad) if f == flag else path]
    code, _, err = run_cli(argv)
    assert code == 2
    assert err.startswith(f"error: {bad}: cannot decode byte 0 as UTF-8")


def test_uncaught_exceptions_exit_three(files, monkeypatch):
    from cartwheel_discharge import cli

    def broken(*args, **kw):
        raise KeyError("boom")
    monkeypatch.setattr(cli, "run_presentation", broken)
    code, out, err = verify(files, "zero")
    assert code == 3
    assert err.endswith("internal error: KeyError: 'boom'\n")
    assert "verified" not in out


def test_symmetry_self_check_exits_three(files, monkeypatch):
    # the S step checks a pure rotation's containment against the
    # interval kernel; a kernel that answers wrong is an engine bug
    from cartwheel_discharge import presentation

    real = presentation.enforced
    monkeypatch.setattr(presentation, "enforced",
                        lambda *args: not real(*args))
    code, out, err = verify(files, "symmetry")
    assert (code, out) == (3, "")
    assert err == ("internal error: rotation containment disagrees with "
                   "the interval kernel\n")


def test_verify_rejects_degree_mismatch(files):
    code, _, err = run_cli(["verify", "-d", "8", "-r", files["rules_empty"],
                            "-p", files["zero"], "-c", files["configs_empty"]])
    assert code == 2
    assert err == (f"error: {files['zero']}:1: presentation is for "
                   f"degree 7, requested 8\n")


@pytest.mark.parametrize("text, said", [
    ("# c\n\ndegree 8\n0 H 1 1 0\n",
     "3: presentation is for degree 8, requested 7"),
    ("# c\n\ndegree 7\n", "3: no steps after the degree header"),
], ids=["degree-mismatch", "no-steps"])
def test_verify_header_errors_name_the_header_line(files, tmp_path, text,
                                                  said):
    pres = write(tmp_path, "head.pres", text)
    code, _, err = run_cli(["verify", "-d", "7", "-r", files["rules_empty"],
                            "-p", pres, "-c", files["configs_empty"]])
    assert (code, err) == (2, f"error: {pres}:{said}\n")


# v8 needs spoke 2 pinned; (5,8) leaves it loose
RULES_LOOSE_V8 = "rule 6 6 5 12\nrule 5 12 5 12 2 5 8 4 5 12 8 5 7\n"


@pytest.mark.parametrize("command", ["verify", "derive-outlets"])
def test_rule_errors_name_the_rules_file_and_line(files, tmp_path, command):
    rules = write(tmp_path, "loose.rules", RULES_LOOSE_V8)
    argv = [command, "-d", "7", "-r", rules]
    if command == "verify":
        argv += ["-p", files["zero"], "-c", files["configs_empty"]]
    code, _, err = run_cli(argv)
    assert (code, err) == (
        2, f"error: {rules}:2: v8 does not embed at degree 7\n")


def test_configuration_errors_name_the_configurations_file(files, tmp_path):
    # the error names the file and the bad record's 'config' line
    confs = write(tmp_path, "bow.confs", CONFIGS_SMALL
                  + CONFIG_BOWTIE.replace("v 1 6 :", "v 1 7 :"))
    line = CONFIGS_SMALL.count("\n") + 1
    code, _, err = run_cli(["verify", "-d", "7", "-r", files["rules_empty"],
                            "-p", files["zero"], "-c", confs])
    message = "bowtie: vertex 1 splits the boundary but is labeled 7 " \
              "with degree 4"
    assert (code, err) == (2, f"error: {confs}:{line}: {message}\n")
    code, out, _ = run_cli(["lint", "-c", confs])
    assert (code, out) == (1, f"{confs}:{line}: {message}\n")


def test_verify_rejects_malformed_presentation(files, tmp_path):
    bad = write(tmp_path, "bad.pres", "degree 7\n0 C 1\n")
    code, _, err = run_cli(["verify", "-d", "7", "-r", files["rules_empty"],
                            "-p", bad, "-c", files["configs_empty"]])
    assert code == 2
    assert err == f"error: {bad}:2: condition takes exactly 'n m'\n"


def test_verify_failure_names_the_line(files, tmp_path):
    bad = write(tmp_path, "negative.pres",
                f"degree 7\n0 H {ZERO_TRIPLES_7.replace('1 1 0', '1 1 -1')}\n")
    code, out, err = run_cli(["verify", "-d", "7", "-r", files["rules_empty"],
                              "-p", bad, "-c", files["configs_empty"]])
    assert code == 1
    assert err.startswith("verification failed: line 2:")
    assert "verified" not in out


def test_verify_failure_on_evicted_symmetry(files):
    code, _, err = verify(files, "evicted")
    assert code == 1
    assert err.startswith(
        "verification failed: line 6: symmetry appeal does not cover")


def _appeal_to_its_own_split():
    """Seven splits whose taking side each closes by citing the split's
    own line; the first such appeal is on line 3."""
    lines = ["degree 7"]
    for i in range(1, 8):
        lines.append(f"0 C {i} -6")
        lines.append(f"1 S 0 0 0 {len(lines)}")
    return "\n".join(lines + [f"0 H {ZERO_TRIPLES_7}", ""])


@pytest.mark.parametrize("text, line", [
    (_appeal_to_its_own_split(), 3),
    ("degree 7\n0 C 1 -6\n1 C 2 -6\n2 S 0 0 0 2\n", 4),
], ids=["own-split", "open-grandparent"])
def test_verify_rejects_an_appeal_to_an_open_branch(files, tmp_path, text,
                                                    line):
    # an S step may cite only a branch already disposed of; a branch
    # still open covers itself and proves nothing
    pres = write(tmp_path, "open.pres", text)
    code, out, err = run_cli(["verify", "-d", "7", "-r", files["rules_tiny"],
                              "-p", pres, "-c", files["configs_empty"]])
    assert code == 1
    assert err == (f"verification failed: line {line}: symmetry appeal "
                   f"does not cover the branch\n")
    assert out == ""
    # lint sees it from the levels alone: the cited split is still open
    code, out, err = run_cli(["lint", "-p", pres])
    assert (code, err) == (1, "")
    assert (f"{pres}:{line}: symmetry appeal cites line 2, whose branch is "
            f"still open") in out.splitlines()


@pytest.mark.parametrize("module", ["cartwheel_discharge",
                                    "cartwheel_discharge.cli"])
def test_module_forms_match_the_entry_point(files, tmp_path, module):
    # `python -m` must verify, not merely import the CLI and exit 0
    bad = write(tmp_path, "negative.pres",
                f"degree 7\n0 H {ZERO_TRIPLES_7.replace('1 1 0', '1 1 -1')}\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for pres, want in ((files["zero"], 0), (bad, 1)):
        argv = ["verify", "-d", "7", "-r", files["rules_empty"],
                "-p", pres, "-c", files["configs_empty"]]
        code, out, err = run_cli(argv)
        assert code == want
        got = subprocess.run([sys.executable, "-m", module, *argv],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        assert (got.returncode, got.stdout, got.stderr) == (code, out, err)


# ----------------------------------------------------------------- trace

def test_trace_prints_to_stdout(files, monkeypatch):
    monkeypatch.delenv("CARTWHEEL_TRACE_DIR", raising=False)
    code, out, _ = verify(files, "zero", "rules_empty", "configs_empty",
                          "--trace")
    assert code == 0
    assert "hubcap triple 1 1 0" in out
    assert "line 2 level 0 H" in out
    assert out.index("hubcap triple") < out.index("verified:")


class _FullStream(io.StringIO):
    """A stream on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_trace_to_an_unwritable_stdout_is_bad_input(files, monkeypatch):
    # the stdout trace fails as the directory one does: exit 2, no
    # traceback
    monkeypatch.delenv("CARTWHEEL_TRACE_DIR", raising=False)
    err = io.StringIO()
    with contextlib.redirect_stdout(_FullStream()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["verify", "-d", "7", "-r", files["rules_empty"],
                         "-p", files["zero"], "-c", files["configs_empty"],
                         "--trace"])
    assert (code, err.getvalue()) == (
        2, f"error: <stdout>: cannot write the trace: "
           f"{os.strerror(errno.ENOSPC)}\n")


def test_trace_writes_to_the_env_directory(files, monkeypatch, tmp_path):
    target = tmp_path / "traces"
    target.mkdir()
    monkeypatch.setenv("CARTWHEEL_TRACE_DIR", str(target))
    code, out, _ = verify(files, "reduce", "rules_empty", "configs_small",
                          "--trace")
    assert code == 0
    path = target / "trace-verify-d7.txt"
    assert f"trace written to {path}" in out
    body = path.read_text()
    assert "reduce axle=" in body
    assert "line 6 level 0 H" in body


def test_trace_to_a_missing_directory_is_bad_input(files, monkeypatch,
                                                   tmp_path):
    target = tmp_path / "missing"
    monkeypatch.setenv("CARTWHEEL_TRACE_DIR", str(target))
    code, out, err = verify(files, "zero", "rules_empty", "configs_empty",
                            "--trace")
    assert code == 2
    path = target / "trace-verify-d7.txt"
    assert err == f"error: {path}: cannot write the trace: " \
                  f"No such file or directory\n"
    assert "verified" not in out


def test_trace_directory_is_checked_before_verifying(files, monkeypatch,
                                                     tmp_path):
    # the script fails at its first step, before any trace line exists
    pres = write(tmp_path, "first.pres", "degree 7\n0 C 15 -6\n")
    target = tmp_path / "missing"
    monkeypatch.setenv("CARTWHEEL_TRACE_DIR", str(target))
    code, out, err = run_cli(["verify", "-d", "7", "-r", files["rules_empty"],
                              "-p", pres, "-c", files["configs_empty"],
                              "--trace"])
    assert code == 2
    path = target / "trace-verify-d7.txt"
    assert err == f"error: {path}: cannot write the trace: " \
                  f"No such file or directory\n"
    assert out == ""


def test_trace_survives_a_failure(files, monkeypatch, tmp_path):
    monkeypatch.setenv("CARTWHEEL_TRACE_DIR", str(tmp_path))
    code, out, err = verify(files, "evicted", "rules_empty", "configs_empty",
                            "--trace")
    assert code == 1
    assert "trace written to" in out
    assert (tmp_path / "trace-verify-d7.txt").exists()
    assert "verification failed" in err


# ---------------------------------------------------------------- derive

def test_derive_outlets_prints_the_table(files):
    code, out, err = run_cli(["derive-outlets", "-d", "7",
                              "-r", files["rules_tiny"]])
    assert (code, err) == (0, "")
    assert out == "outlet 1 T 1 1 6 6\n"


def test_derive_outlets_golden_match(files):
    code, out, _ = run_cli(["derive-outlets", "-d", "7",
                            "-r", files["rules_demo"],
                            "--golden", files["outlets7"]])
    assert code == 0
    assert "outlet table matches" in out
    assert "(6 outlets at degree 7)" in out


def test_derive_outlets_golden_mismatch(files):
    code, out, _ = run_cli(["derive-outlets", "-d", "7",
                            "-r", files["rules_tiny"],
                            "--golden", files["outlets7"]])
    assert code == 1
    assert "row 1: derived" in out
    assert "extra rows" in out


def test_derive_outlets_degree_gate(files):
    code, _, err = run_cli(["derive-outlets", "-d", "4",
                            "-r", files["rules_tiny"]])
    assert code == 2
    assert "degree 4 out of range 5..11" in err
    code, _, _ = run_cli(["derive-outlets", "-d", "5",
                          "-r", files["rules_tiny"]])
    assert code == 0


# ------------------------------------------------------------------ lint

def test_lint_requires_a_target():
    code, _, err = run_cli(["lint"])
    assert code == 2
    assert "nothing to lint" in err


def test_lint_clean_inputs(files):
    code, out, err = run_cli(["lint", "-r", files["rules_tiny"],
                              "-p", files["rules_pres"],
                              "-c", files["configs_small"]])
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize("text", [
    PRESENT_ZERO_7, PRESENT_SYMMETRY_7, PRESENT_REFLECT_7, PRESENT_REDUCE_7,
    PRESENT_RULES_7, PRESENT_ESCALATE_7,
], ids=["zero", "symmetry", "reflect", "reduce", "rules", "escalate"])
def test_lint_passes_the_fixture_scripts(tmp_path, text):
    # every fixture script that verifies lints clean
    pres = write(tmp_path, "fixture.pres", text)
    assert run_cli(["lint", "-p", pres]) == (0, "", "")


@pytest.mark.parametrize("text, line, cited", [
    (PRESENT_EVICTED_7, 6, "line 3 at level 1"),
    (PRESENT_SYMMETRY_7.replace("1 S 6 0 0 2", "1 S 6 0 1 2"), 5,
     "line 2 at level 1"),
    (PRESENT_SYMMETRY_7.replace("1 S 6 0 0 2", "1 S 6 0 1 3"), 5,
     "line 3 at level 1"),
], ids=["evicted", "wrong-level", "h-line"])
def test_lint_flags_an_appeal_outside_the_pool(files, tmp_path, text, line,
                                               cited):
    # a closed branch the pool has dropped, a split cited at another
    # level than its own, and a line that opens no split: lint tracks
    # the pool from the levels alone and flags each where verify fails
    pres = write(tmp_path, "appeal.pres", text)
    code, out, err = run_cli(["verify", "-d", "7", "-r", files["rules_empty"],
                              "-p", pres, "-c", files["configs_empty"]])
    assert (code, out, err) == (1, "", f"verification failed: line {line}: "
                                       f"symmetry appeal does not cover the "
                                       f"branch\n")
    assert run_cli(["lint", "-p", pres]) == (
        1, f"{pres}:{line}: symmetry appeal cites {cited}, which the pool "
           f"does not hold\n", "")


def test_lint_flags_malformed_rules(files, tmp_path):
    bad = write(tmp_path, "bad.rules", "rule 6 6 5\n")
    code, out, _ = run_cli(["lint", "-r", bad])
    assert code == 1
    assert out.startswith(f"{bad}:1: ")


def test_lint_names_the_line_of_a_rule_that_does_not_embed(tmp_path):
    rules = write(tmp_path, "loose.rules", RULES_LOOSE_V8)
    code, out, _ = run_cli(["lint", "-r", rules])
    assert (code, out) == (1, f"{rules}:2: v8 does not embed at degree 5\n")


def test_lint_flags_presentation_problems(files, tmp_path):
    # lint and verify give the hubcap-sum defect the same message
    text = (f"degree 7\n"
            f"0 H {ZERO_TRIPLES_7.replace('1 1 0', '1 1 50')}\n"
            f"0 R\n")
    pres = write(tmp_path, "heavy.pres", text)
    message = "hubcap sum 50 fails 10(6-7) + floor(sum/2) <= 0"
    code, out, _ = run_cli(["lint", "-p", pres])
    assert code == 1
    lines = out.splitlines()
    assert f"{pres}:3: step after the proof already closed" in lines
    assert f"{pres}:2: {message}" in lines
    code, out, err = run_cli(["verify", "-d", "7", "-r", files["rules_empty"],
                              "-p", pres, "-c", files["configs_empty"]])
    assert (code, out, err) == (1, "", f"verification failed: line 2: "
                                       f"{message}\n")


@pytest.mark.parametrize("body, line, message", [
    (f"0 C 1 -6\n2 H {ZERO_TRIPLES_7}\n", 3, "level 2 where 1 is expected"),
    (f"0 H {ZERO_TRIPLES_7}\n0 H {ZERO_TRIPLES_7}\n", 3,
     "step after the proof already closed"),
    (f"0 C 1 -6\n1 H {ZERO_TRIPLES_7}\n", 3,
     "proof ends with branches still open"),
], ids=["level-skip", "after-closing", "open-branches"])
def test_lint_and_verify_report_the_same_level_break(files, tmp_path, body,
                                                     line, message):
    pres = write(tmp_path, "broken.pres", "degree 7\n" + body)
    code, out, err = run_cli(["lint", "-p", pres])
    assert (code, out, err) == (1, f"{pres}:{line}: {message}\n", "")
    code, out, err = run_cli(["verify", "-d", "7", "-r", files["rules_empty"],
                              "-p", pres, "-c", files["configs_empty"]])
    assert (code, out, err) == (2, "", f"error: {pres}:{line}: {message}\n")


def test_lint_flags_config_radius(files, tmp_path):
    # lint -c and verify report the defect alike
    confs = write(tmp_path, "far.confs", CONFIGS_SMALL + CONFIG_LONG_PATH)
    line = CONFIGS_SMALL.count("\n") + 1
    message = f"{confs}:{line}: longpath: radius exceeds two"
    code, out, _ = run_cli(["lint", "-c", confs])
    assert (code, out) == (1, message + "\n")
    code, _, err = run_cli(["verify", "-d", "7", "-r", files["rules_empty"],
                            "-p", files["zero"], "-c", confs])
    assert (code, err) == (2, f"error: {message}\n")
