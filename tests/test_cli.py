import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from mpecpen import cli

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "mpecpen", *args],
                          capture_output=True, text=True, cwd=cwd)


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


def test_reproduce_all_stdout_is_byte_identical(monkeypatch, capsys):
    # the digest of the golden suite's stdout, recorded with the benchmark;
    # speedups must leave every byte of it unchanged
    monkeypatch.delenv("MPECPEN_FIXTURES", raising=False)
    digest = (ROOT / "bench" / "reproduce_all.sha256").read_text().split()[0]
    assert cli.main(["reproduce", "all"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
