import hashlib
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mpecpen import cli
from mpecpen import reproduce as repro

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, cwd=ROOT):
    """``mpecpen *args`` run in this process through ``cli.main``, with
    its exit code, stdout and stderr captured as a child process would
    give them; argparse's ``SystemExit`` becomes the exit code."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(here)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_child(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "mpecpen", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_child_process_matches_in_process():
    # ``python -m mpecpen`` passes the exit code of ``cli.main`` to the
    # shell, argparse's usage errors included, with the same output
    for args, code in (
            (("solve", "fixtures/q5-toy.mpec", "--alpha-fixed", "2", "--start", "3"), 2),
            (("solve", "missing.mpec"), 1),
            (("residual", "fixtures/lcp-param.mpec", "--x", "1", "--y", "0 0",
              "--gamma", "0.7"), 2)):
        child, inproc = run_child(*args), run_cli(*args)
        assert child.returncode == code
        assert (child.returncode, child.stdout, child.stderr) == \
            (inproc.returncode, inproc.stdout, inproc.stderr)


def test_closed_stdout_ends_quietly():
    # 4000 rows overrun the pipe and both stream buffers, so the child is
    # still writing when the reader goes away after the first line
    child = subprocess.Popen(
        [sys.executable, "-m", "mpecpen", "probe", "--fixture", "lcp-q2", "--count", "4000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    assert child.stdout.readline() == b"id\tresidual\tdistance\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(), err) == (1, b"")


class TestSolve:
    def test_feasible_exit_zero(self):
        res = run_cli("solve", "fixtures/lcp-param.mpec", "--gamma", "0.5", "--alpha0", "1")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["classification"] == "FeasibleMinimizer"
        assert doc["final_residual"] <= 1e-8
        assert abs(doc["final_objective"] - 0.75) <= 1e-3

    def test_missing_file_exit_one(self):
        res = run_cli("solve", "missing.mpec")
        assert res.returncode == 1
        assert "error" in res.stderr

    def test_malformed_file_exit_one(self, tmp_path):
        bad = tmp_path / "bad.mpec"
        bad.write_text('{"n": 1}')
        res = run_cli("solve", str(bad))
        assert res.returncode == 1

    @pytest.mark.parametrize("gamma", ["[1.0]", "true", '"0.5"'],
                             ids=["list", "bool", "string"])
    def test_non_numeric_file_gamma_exit_one(self, tmp_path, gamma):
        bad = tmp_path / "toy.mpec"
        bad.write_text('{"toy": "q5-infeasible", "gamma": %s}' % gamma)
        res = run_cli("solve", str(bad))
        assert res.returncode == 1
        assert res.stderr.startswith("error: ") and "gamma" in res.stderr

    def test_toy_trap_exit_two(self):
        res = run_cli("solve", "fixtures/q5-toy.mpec", "--alpha-fixed", "2", "--start", "3")
        assert res.returncode == 2, res.stdout + res.stderr
        doc = json.loads(res.stdout)
        assert doc["classification"] == "InfeasiblePenaltyStationary"
        assert doc["final_residual"] > 0.5

    def test_toy_feasible_exit_zero(self):
        res = run_cli("solve", "fixtures/q5-toy.mpec", "--gamma", "0.5", "--start", "0.1")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert abs(doc["final_point"]["x"][0]) <= 1e-6
        # the toy has no lower level, so no residual kind or variant ran
        assert doc["residual_kind"] is None and doc["stationarity_variant"] is None

    def test_iteration_limit_exit_three(self):
        res = run_cli("solve", "fixtures/q5-toy.mpec", "--alpha-fixed", "2",
                      "--start", "3", "--max-outer", "1")
        assert res.returncode == 3
        assert json.loads(res.stdout)["classification"] == "IterationLimit"

    def test_start_with_full_point(self):
        res = run_cli("solve", "fixtures/lcp-param.mpec", "--start", "2, 0, 0, 0, 0")
        assert res.returncode == 0


class TestOracle:
    def test_single_solution(self):
        res = run_cli("oracle", "--M", "2 0; 0 1", "--q", "0 1")
        assert res.returncode == 0
        assert res.stdout.splitlines() == ["[0.0, 0.0]"]

    def test_empty_marker(self):
        res = run_cli("oracle", "--M", "0 -1; 1 0", "--q", "-1 2")
        assert res.returncode == 0
        assert res.stdout.strip() == "[]"

    def test_scalar(self):
        res = run_cli("oracle", "--M", "1", "--q", "0")
        assert res.stdout.strip() == "[0.0]"

    def test_malformed_exit_one(self):
        res = run_cli("oracle", "--M", "1 2; 3", "--q", "0")
        assert res.returncode == 1
        assert res.stderr == "error: bad matrix input: rows have unequal lengths\n"

    def test_stats_on_stderr(self):
        res = run_cli("oracle", "--M", "0", "--q", "1", "--stats")
        assert res.returncode == 0
        assert res.stdout.splitlines() == ["[0.0]"]
        assert json.loads(res.stderr) == {"bases_explored": 2, "singular_bases": 1}


class TestResidualCommand:
    def test_kkt_l1_value(self):
        res = run_cli("residual", "fixtures/lcp-param.mpec", "--x", "1",
                      "--y", "-1 0", "--lam", "0 0", "--residual", "kkt",
                      "--norm", "l1", "--variant", "norm")
        assert res.returncode == 0
        assert json.loads(res.stdout)["value"] == pytest.approx(4.0)

    def test_min_kind(self):
        res = run_cli("residual", "fixtures/lcp-param.mpec", "--x", "1",
                      "--y", "0 0", "--residual", "min", "--norm", "l1")
        assert json.loads(res.stdout)["value"] == pytest.approx(1.0)

    def test_product_kind_is_a_value(self):
        # w = (0, 0.2) at x = 1, y = (0.5, 0.2), so y'w = 0.04
        res = run_cli("residual", "fixtures/lcp-param.mpec", "--x", "1",
                      "--y", "0.5 0.2", "--residual", "product")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["value"] == pytest.approx(0.04)

    def test_gamma_flag_is_gone(self):
        # the residual value never depended on the penalty exponent
        res = run_cli("residual", "fixtures/lcp-param.mpec", "--x", "1",
                      "--y", "0 0", "--gamma", "0.7")
        assert res.returncode == 2
        assert "unrecognized arguments: --gamma" in res.stderr


class TestProbe:
    def test_halfspace_gamma(self):
        res = run_cli("probe", "--fixture", "linear-halfspace")
        assert res.returncode == 0
        summary = json.loads(res.stdout.splitlines()[-1])
        assert abs(summary["gamma_hat"] - 1.0) <= 1e-6

    def test_quad_gamma(self):
        res = run_cli("probe", "--fixture", "quad-scalar")
        summary = json.loads(res.stdout.splitlines()[-1])
        assert abs(summary["gamma_hat"] - 0.5) <= 1e-6

    def test_lcp_bracket(self):
        res = run_cli("probe", "--fixture", "lcp-q2")
        summary = json.loads(res.stdout.splitlines()[-1])
        assert 0.9 <= summary["gamma_hat"] <= 1.1

    def test_ray_flag(self):
        res = run_cli("probe", "--ray", "q1")
        summary = json.loads(res.stdout.splitlines()[-1])
        assert summary["flags"] == ["GLOBAL-BOUND-REFUTED"]

    def test_table_is_tsv(self):
        res = run_cli("probe", "--fixture", "linear-halfspace", "--count", "50")
        lines = res.stdout.splitlines()
        assert lines[0] == "id\tresidual\tdistance"
        assert all("\t" in line for line in lines[:-1])
        json.loads(lines[-1])

    def test_bad_fixture(self):
        res = run_cli("probe", "--ray", "nope")
        assert res.returncode == 1


class TestReproduce:
    def test_single_case(self):
        res = run_cli("reproduce", "q3-dirderiv")
        assert res.returncode == 0, res.stdout
        lines = res.stdout.splitlines()
        assert any("OVERALL\tPASS" in line for line in lines)
        summary = json.loads(lines[-1])
        assert summary["failed"] == 0

    def test_unknown_case(self):
        res = run_cli("reproduce", "never-heard-of-it")
        assert res.returncode == 1
        assert "unknown case" in res.stderr

    def test_machine_parseable_stdout(self):
        res = run_cli("reproduce", "addq2-lcp")
        lines = res.stdout.splitlines()
        for line in lines[:-1]:
            assert len(line.split("\t")) >= 3
        json.loads(lines[-1])


class TestStartValidation:
    def test_partial_start_lengths_accepted(self):
        for start in ("2", "2 0 0", "2 0 0 0 0"):
            res = run_cli("solve", "fixtures/lcp-param.mpec", "--start", start)
            assert res.returncode == 0, res.stderr

    def test_invalid_start_length(self):
        res = run_cli("solve", "fixtures/lcp-param.mpec", "--start", "1 2")
        assert res.returncode == 1
        assert "--start" in res.stderr


class TestFlagValidation:
    def test_gamma_out_of_range(self):
        res = run_cli("solve", "fixtures/lcp-param.mpec", "--gamma", "1.5")
        assert res.returncode == 1
        assert "gamma" in res.stderr

    def test_file_gamma_out_of_range_names_the_file(self, tmp_path):
        toy = tmp_path / "toy.mpec"
        toy.write_text('{"toy": "q5-infeasible", "gamma": 2}')
        res = run_cli("solve", str(toy))
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == f"error: {toy}: gamma must lie in (0, 1]\n"

    @pytest.mark.parametrize("args", [
        ("probe", "--fixture", "quad-scalar", "--count", "0"),
        ("probe", "--fixture", "hoffman-corner", "--seed", "-1"),
        ("probe",),
        ("solve", "fixtures/q5-toy.mpec", "--start", "1 2"),
        ("solve", "fixtures/q5-toy.mpec", "--start", "nan"),
        ("solve", "fixtures/lcp-param.mpec", "--start", "nan 0 0 0 0"),
        ("solve", "fixtures/lcp-param.mpec", "--start", "inf 0 0 0 0"),
        ("solve", "fixtures/lcp-param.mpec", "--start", "inf"),
        ("solve", "fixtures/lcp-param.mpec", "--max-outer", "0"),
        ("solve", "fixtures/lcp-param.mpec", "--max-inner", "-5"),
        ("solve", "fixtures/lcp-param.mpec", "--residual", "product"),
        ("solve", "fixtures/lcp-param.mpec", "--growth", "nan"),
        ("solve", "fixtures/lcp-param.mpec", "--alpha0", "nan"),
        ("solve", "fixtures/lcp-param.mpec", "--alpha-fixed", "inf"),
        ("solve", "fixtures/lcp-param.mpec", "--alpha-fixed", "0"),
        ("solve", "fixtures/lcp-param.mpec", "--eps-feas", "0"),
        ("solve", "fixtures/q5-toy.mpec", "--eps-stat", "-1"),
        ("solve", "fixtures/lcp-param.mpec", "--gamma", "1.5"),
        # flags that would change nothing: the squared kkt variant and the
        # product read no norm, min and product have no stationarity
        # variant, and a fixed weight neither starts nor grows
        ("solve", "fixtures/lcp-param.mpec", "--norm", "l1"),
        ("solve", "fixtures/lcp-param.mpec", "--variant", "squared", "--norm", "l1"),
        ("solve", "fixtures/lcp-param.mpec", "--residual", "min", "--variant", "squared"),
        ("solve", "fixtures/lcp-param.mpec", "--residual", "min", "--variant", "norm"),
        ("residual", "fixtures/lcp-param.mpec", "--x", "1", "--y", "0 0",
         "--residual", "product", "--norm", "l1"),
        ("residual", "fixtures/lcp-param.mpec", "--x", "1", "--y", "0 0",
         "--residual", "min", "--variant", "norm"),
        ("residual", "fixtures/lcp-param.mpec", "--x", "1", "--y", "0 0",
         "--variant", "squared", "--norm", "l1"),
        ("solve", "fixtures/q5-toy.mpec", "--alpha-fixed", "2", "--alpha0", "3"),
        ("solve", "fixtures/q5-toy.mpec", "--alpha-fixed", "2", "--growth", "5"),
        # the q1 ray samples no cloud, and only kkt reads the multiplier
        ("probe", "--ray", "q1", "--fixture", "lcp-q2"),
        ("probe", "--ray", "q1", "--count", "7"),
        ("probe", "--ray", "q1", "--count", "0"),
        ("probe", "--ray", "q1", "--seed", "9"),
        ("probe", "--ray", "q1", "--fixture", "lcp-q2", "--count", "7", "--seed", "9"),
        ("residual", "fixtures/lcp-param.mpec", "--x", "1", "--y", "0 0",
         "--residual", "min", "--lam", "5 5"),
        ("residual", "fixtures/lcp-param.mpec", "--x", "1", "--y", "0 0",
         "--residual", "product", "--lam", "5 5"),
        # a vector that does not parse, or is not finite, or has the wrong
        # length, is named by its flag
        ("solve", "fixtures/lcp-param.mpec", "--start", "abc"),
        ("residual", "fixtures/lcp-param.mpec", "--x", "nan", "--y", "0 0"),
        ("residual", "fixtures/lcp-param.mpec", "--x", "1", "--y", "0"),
        ("residual", "fixtures/lcp-param.mpec", "--x", "1", "--y", "0 0", "--lam", "1"),
        ("oracle", "--M", "1", "--q", "abc"),
    ])
    def test_bad_input_is_one_error_line(self, args):
        res = run_cli(*args)
        assert res.returncode == 1
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
        # a refusal names the flags it refuses, not the library's field
        # names, and no flag it was not given; a row's well-formed point
        # (--x 1 --y "0 0") is not what it refuses
        named = ("--fixture",) if "--ray" in args else ()
        values = dict(zip(args, args[1:]))
        for flag in ("--norm", "--lam", "--count", "--seed", "--start", "--gamma", "--alpha0",
                     "--alpha-fixed", "--growth", "--eps-feas", "--eps-stat", "--max-outer",
                     "--max-inner", "--x", "--y", "--q", *named):
            if flag not in args:
                assert flag not in lines[0]
            elif {"--x": "1", "--y": "0 0"}.get(flag) != values[flag]:
                assert flag in lines[0]

    @pytest.mark.parametrize("flags", [
        ("--residual", "min"), ("--residual", "kkt"), ("--variant", "norm"),
        ("--norm", "l1"), ("--residual", "min", "--norm", "l1"),
    ])
    def test_toy_refuses_the_residual_flags_it_never_reads(self, flags):
        # the toy's landscape has no lower level, so a residual flag would
        # only be echoed in a report that no such residual produced
        res = run_cli("solve", "fixtures/q5-toy.mpec", "--start", "0.1", *flags)
        assert res.returncode == 1
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
        assert all(flag in lines[0] for flag in flags[::2])

    def test_unknown_toy_is_named(self, tmp_path):
        toy = tmp_path / "toy.mpec"
        toy.write_text('{"toy": "q6"}')
        res = run_cli("solve", str(toy))
        assert res.returncode == 1
        assert res.stderr == "error: unknown toy 'q6' (known: q5-infeasible)\n"


#: sha256 of the stdout and the exit code of commands on valid input,
#: recorded before the command line was reduced to a front end over the
#: library (the norm kkt solves: before their compass trials were
#: screened; the ``min`` solves: when their landscape pinned the
#: multiplier and their reports stopped naming a kkt variant; the q5 toy
#: solves: when their reports stopped naming a residual kind and variant
#: that the toy never evaluates); every byte must stay as it was
CLI_DIGESTS = {
    "probe --fixture linear-halfspace":
        ("a16095e75617eb53c4bed419a39f5bac8f7c6ac86f146c331c0667f5f561b601", 0),
    "probe --fixture linear-halfspace --count 50 --seed 3":
        ("ac7d7e27a9a6ffa3ac28bf62a803a3c8ec98818645e8e4f1ff495c89d09c84b0", 0),
    "probe --fixture quad-scalar":
        ("5c14cf89815fcc51ba0980d343fb433af1632f355ed364033fefbb8d83178dce", 0),
    "probe --fixture quad-scalar --count 50 --seed 3":
        ("41c4726aaed344fa7b3dd9070cc81315e9dc3c379fb6d403ea9e960d0e6cc19e", 0),
    "probe --fixture lcp-q2":
        ("c30fa94e037e166a3fd79a370d899ccd6aef23ab38498efe3c7f5d816e45579d", 0),
    "probe --fixture lcp-q2 --count 50 --seed 3":
        ("8f2e1dad4dfc7b6c539b0152a2f954ce4121a3418f838d00bd3777e0c425c1b9", 0),
    "probe --fixture hoffman-halfspace":
        ("bc5b18e7f67001e189ad61ad942413bfba18b7b66905b8a674034c38c8c5abd8", 0),
    "probe --fixture hoffman-halfspace --count 50 --seed 3":
        ("fba8f9271e33e07ef033e918132ffd6610bed4f037aeff9c98a0f0acf625cd42", 0),
    "probe --fixture hoffman-corner":
        ("b6c2a43cdfc4834bb8d3c5a212a1c6a052e0249b28cbafb2d779b6b661cc401b", 0),
    "probe --fixture hoffman-corner --count 50 --seed 3":
        ("77b1695782c6d403565fe9c498c1e2b02b81cea2b3b422c16072cc441ee0ee54", 0),
    "probe --ray q1":
        ("ceebff2c31615cd8528f27713ddda8e5c1c3412dc9caeb101a261d1752456830", 0),
    "solve fixtures/lcp-param.mpec":
        ("da983dafbd1c41d9a172ec47d1b365458829f9dd44fa4a99a814016d72ec1d0c", 0),
    "solve fixtures/lcp-param.mpec --gamma 0.5 --alpha0 1":
        ("da983dafbd1c41d9a172ec47d1b365458829f9dd44fa4a99a814016d72ec1d0c", 0),
    "solve fixtures/lcp-param.mpec --start 2":
        ("da983dafbd1c41d9a172ec47d1b365458829f9dd44fa4a99a814016d72ec1d0c", 0),
    "solve fixtures/lcp-param.mpec --start '2 0 0'":
        ("da983dafbd1c41d9a172ec47d1b365458829f9dd44fa4a99a814016d72ec1d0c", 0),
    "solve fixtures/lcp-param.mpec --start '2, 0, 0, 0, 0'":
        ("da983dafbd1c41d9a172ec47d1b365458829f9dd44fa4a99a814016d72ec1d0c", 0),
    "solve fixtures/q5-toy.mpec":
        ("4de5699eeb6c5e02dfe700c63fcd38d2936c72c65a9fa9d5ca65083ab7ef21fb", 0),
    "solve fixtures/q5-toy.mpec --alpha-fixed 2 --start 3":
        ("ded7fdfe945b930291b5619e10fd1f72c157d0f287aae6c2840eb4e266338584", 2),
    "solve fixtures/q5-toy.mpec --gamma 0.5 --start 0.1":
        ("d018eed475bff5f9e1600ba41e5d4c8a6dbe57689b0c4e54eb9e0fe7f403ee69", 0),
    "solve fixtures/q5-toy.mpec --alpha-fixed 2 --start 3 --max-outer 1":
        ("1d5cbedf2030e9fad6872b65ef28f4005d47377056eb1c399794dcd1b9ff4add", 3),
    "solve fixtures/lcp-param.mpec --residual min --gamma 1":
        ("29c7f5a7c73821672a27156d27d9eca79c7018777be87bf1a99a87c1b0f7ed02", 0),
    "solve fixtures/lcp-param.mpec --residual min --norm l1 --gamma 1":
        ("29c7f5a7c73821672a27156d27d9eca79c7018777be87bf1a99a87c1b0f7ed02", 0),
    "solve fixtures/lcp-param.mpec --variant norm":
        ("6662017ec22efc1375a14b6bd6750a9d7a23c6a49f0864a3e2ab2d8ce8c7ea19", 0),
    "solve fixtures/bilevel.mpec --variant norm --norm l1 --gamma 1":
        ("f80ef9801155c6cd3a424453c54131641352fef3f9847bccdd9c91e41c64ffcc", 0),
    "residual fixtures/lcp-param.mpec --x 1 --y '-1 0' --lam '0 0' --norm l1 --variant norm":
        ("0033de8897a3e53b5f427e0f27ce488db4f05d259f22a6afba7b14c9e0c008d4", 0),
    "residual fixtures/lcp-param.mpec --x 1 --y '0 0' --residual min --norm l1":
        ("e1f7e251e6abaabeac53fd0fa0b95f9309a9df2faf3fdd2a8284191c0f6ba68b", 0),
    "residual fixtures/lcp-param.mpec --x 1 --y '0.5 0.2'":
        ("31126f36c0a2ba68e4930c9427b562c5dc4ce69a9c18918191d6a4969820edca", 0),
}


@pytest.mark.parametrize("command", list(CLI_DIGESTS))
def test_cli_stdout_is_byte_identical(command, monkeypatch, capsys):
    monkeypatch.delenv("MPECPEN_FIXTURES", raising=False)
    monkeypatch.chdir(ROOT)
    digest, code = CLI_DIGESTS[command]
    assert cli.main(shlex.split(command)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reproduce_all_stdout_is_byte_identical(monkeypatch, capsys):
    # the digest of the golden suite's stdout, recorded with the benchmark;
    # speedups must leave every byte of it unchanged
    monkeypatch.delenv("MPECPEN_FIXTURES", raising=False)
    digest = (ROOT / "bench" / "reproduce_all.sha256").read_text().split()[0]
    assert cli.main(["reproduce", "all"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_traced_golden_suite_passes(monkeypatch):
    # the benchmark traces the golden suite by patching library names as
    # module attributes; a patched name that the library lost fails here
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delenv("MPECPEN_FIXTURES", raising=False)
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("spans").Tracer()
    for op in workloads.reproduce_case_ops():
        with tracer.op_span(op.name):
            result = op.run(tracer)
        assert op.check(result) is None, op.name
    # the hoffman case projects each of its 300 points once per system
    assert tracer.summary()["errorbound.project"][0] == 600


def test_fixtures_dir_follows_the_environment(monkeypatch, tmp_path):
    doc = json.loads((ROOT / "fixtures" / "repro" / "hoffman.json").read_text())
    doc["description"] = "read from the environment's directory"
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "hoffman.json").write_text(json.dumps(doc))
    monkeypatch.setenv("MPECPEN_FIXTURES", str(tmp_path))
    assert repro.fixtures_dir() == tmp_path
    assert repro.load_case("hoffman").description == doc["description"]
