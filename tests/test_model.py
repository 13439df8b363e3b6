import json
import pickle

import numpy as np
import pytest

from mpecpen import (
    AffineParamMap,
    DimensionMismatch,
    KktPoint,
    MpecProblem,
    ParseError,
    QuadObjective,
    SchemaError,
    UnboundedBox,
    parse_problem_file,
    problem_from_dict,
)


def q2_parts():
    qmap = AffineParamMap([[-1.0], [-1.0]], [0.0, 1.0])
    obj = QuadObjective([[2.0]], [[0.0, 0.0]], np.zeros((2, 2)), [-2.0], [2.0, 1.0], 1.0)
    return [[2.0, 0.0], [0.0, 1.0]], qmap, obj


class TestBuild:
    def test_parametric_lcp_problem(self):
        M, qmap, obj = q2_parts()
        p = MpecProblem(obj, [[0.0, 2.0]], M, qmap, 2.0)
        assert (p.n, p.m) == (1, 2)
        assert p.f_value([1.0], [0.5, 0.0]) == pytest.approx(1.0)

    def test_degenerate_identity_problem(self):
        qmap = AffineParamMap([[1.0]], [0.0])
        obj = QuadObjective.zeros(1, 1)
        p = MpecProblem(obj, [[0.0, 0.0]], [[1.0]], qmap, 1.0)
        assert (p.n, p.m) == (1, 1)

    def test_q_rows_mismatch(self):
        qmap = AffineParamMap(np.zeros((3, 1)), np.zeros(3))
        obj = QuadObjective.zeros(1, 2)
        with pytest.raises(DimensionMismatch):
            MpecProblem(obj, [[0.0, 1.0]], np.eye(2), qmap, 1.0)

    def test_unbounded_box(self):
        M, qmap, obj = q2_parts()
        with pytest.raises(UnboundedBox):
            MpecProblem(obj, [[0.0, np.inf]], M, qmap, 2.0)
        with pytest.raises(UnboundedBox):
            MpecProblem(obj, [[1.0, 0.0]], M, qmap, 2.0)

    def test_bad_multiplier_bound(self):
        M, qmap, obj = q2_parts()
        with pytest.raises(ValueError):
            MpecProblem(obj, [[0.0, 2.0]], M, qmap, 0.0)

    def test_nonsquare_M(self):
        qmap = AffineParamMap(np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            MpecProblem(QuadObjective.zeros(1, 2), [[0, 1]], np.zeros((2, 3)), qmap, 1.0)

    @pytest.mark.parametrize("parts, match", [
        ((QuadObjective.zeros(0, 1), np.zeros((0, 2)), [[1.0]],
          AffineParamMap(np.zeros((1, 0)), [0.0])), "at least 1"),
        ((QuadObjective.zeros(2, 1), [[0.0, 1.0]], [[1.0]], AffineParamMap([[1.0]], [0.0])),
         "objective dimensions"),
        ((QuadObjective.zeros(1, 1), [[0.0, 1.0, 2.0]], [[1.0]], AffineParamMap([[1.0]], [0.0])),
         "x_box must have shape"),
    ], ids=["n0", "objective-size", "box-shape"])
    def test_inconsistent_parts_refused(self, parts, match):
        with pytest.raises(DimensionMismatch, match=match):
            MpecProblem(*parts, 1.0)


class TestEvalF:
    def test_affine_map_example(self, addq1):
        assert np.allclose(addq1.F([1.0], [0.0, 1.0]), [0.0, 2.0])

    def test_zero_lower_variable_gives_qx(self, lcp_param):
        x = [1.3]
        assert np.allclose(lcp_param.F(x, [0.0, 0.0]), lcp_param.qmap(x))

    def test_complementary_point(self, lcp_param):
        assert np.allclose(lcp_param.F([1.0], [0.5, 0.0]), [0.0, 0.0])

    def test_dimension_mismatch(self, lcp_param):
        with pytest.raises(DimensionMismatch):
            lcp_param.F([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            lcp_param.F([1.0], [0.0, 0.0, 0.0])

    def test_affinity(self, lcp_param, addq1):
        rng = np.random.default_rng(7)
        for p in (lcp_param, addq1):
            for _ in range(100):
                x = rng.normal(size=p.n)
                y1 = rng.normal(size=p.m)
                y2 = rng.normal(size=p.m)
                lhs = p.F(x, y1 + y2) - p.F(x, y2)
                rhs = p.M @ y1
                scale = max(1.0, float(np.max(np.abs(rhs))))
                assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_pickled_problem_keeps_its_values(self, addq1):
        # the objective records the terms it sums as positions, not as
        # functions, so a problem survives a pickle round trip
        copy = pickle.loads(pickle.dumps(addq1))
        x, y = [0.3], [0.2, -0.7]
        assert copy.f_value(x, y) == addq1.f_value(x, y)


class TestProblemFiles:
    def test_shipped_fixture_is_expected_problem(self, lcp_param):
        assert np.allclose(lcp_param.M, [[2.0, 0.0], [0.0, 1.0]])
        assert np.allclose(lcp_param.qmap(np.array([1.0])), [-1.0, 0.0])
        # f(x, y) = (x-1)^2 + 2 y1 + y2
        assert lcp_param.f_value([0.0], [0.0, 0.0]) == pytest.approx(1.0)
        assert lcp_param.f_value([2.0], [1.0, 1.0]) == pytest.approx(4.0)
        assert lcp_param.multiplier_bound == 2.0

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.mpec"
        f.write_text("")
        with pytest.raises(SchemaError):
            parse_problem_file(f)

    def test_dimension_mismatch_becomes_schema_error(self, fixtures_dir, tmp_path):
        doc = json.loads((fixtures_dir / "lcp-param.mpec").read_text())
        doc["q0"] = [0.0, 1.0, 2.0]
        f = tmp_path / "bad.mpec"
        f.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            parse_problem_file(f)

    def test_objective_block_row_count(self, fixtures_dir, tmp_path):
        doc = json.loads((fixtures_dir / "lcp-param.mpec").read_text())
        doc["objective"]["xy"] = [[0.0, 0.0], [0.0, 0.0]]
        f = tmp_path / "bad.mpec"
        f.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"objective\.xy must have 1 rows, got 2"):
            parse_problem_file(f)

    def test_declared_dimensions_must_match(self, fixtures_dir):
        doc = json.loads((fixtures_dir / "lcp-param.mpec").read_text())
        doc["n"], doc["m"] = 7, 9
        with pytest.raises(SchemaError, match="declared"):
            problem_from_dict(doc)

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_declared_dimensions_must_be_integers(self, fixtures_dir, value):
        # int() would read each of these as 1, the true n of the fixture
        doc = json.loads((fixtures_dir / "lcp-param.mpec").read_text())
        doc["n"] = value
        with pytest.raises(SchemaError, match="n must be an integer"):
            problem_from_dict(doc)

    @pytest.mark.parametrize("text, match", [
        ('{"n": 1, "m": 1, "M": [[1]], "Q": [[1]], "q0": [0], "objective": [1],'
         ' "x_box": [[0, 1]], "multiplier_bound": 1}', "objective must be an object"),
        ("[1, 2]", "top-level value must be an object"),
    ], ids=["objective", "top-level"])
    def test_non_object_refused(self, tmp_path, text, match):
        f = tmp_path / "bad.mpec"
        f.write_text(text)
        with pytest.raises(SchemaError, match=match):
            parse_problem_file(f)

    def test_missing_keys(self, tmp_path):
        f = tmp_path / "partial.mpec"
        f.write_text(json.dumps({"n": 1, "m": 2}))
        with pytest.raises(SchemaError, match="missing"):
            parse_problem_file(f)

    def test_bad_json_is_parse_error(self, tmp_path):
        f = tmp_path / "broken.mpec"
        f.write_text("{not json")
        with pytest.raises(ParseError, match="line"):
            parse_problem_file(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_problem_file(tmp_path / "nope.mpec")

    def test_objective_blocks_default_to_zero(self):
        doc = {
            "n": 1, "m": 1, "M": [[1.0]], "Q": [[-1.0]], "q0": [0.0],
            "objective": {"x_lin": [2.0], "y_lin": [-1.0]},
            "x_box": [[0.0, 2.0]], "multiplier_bound": 2.0,
        }
        p = problem_from_dict(doc)
        assert p.f_value([1.0], [0.5]) == pytest.approx(1.5)


class TestKktPoint:
    def test_round_trip_z(self, lcp_param):
        z = np.arange(5.0)
        pt = lcp_param.split(z)
        assert isinstance(pt, KktPoint)
        assert np.array_equal(pt.to_z(), z)

    def test_dim_check(self, lcp_param):
        with pytest.raises(DimensionMismatch):
            KktPoint([1.0], [0.0], [0.0]).check_dims(lcp_param)


class TestToySchema:
    def test_toy_file_is_not_a_problem_file(self, fixtures_dir):
        with pytest.raises(SchemaError):
            parse_problem_file(fixtures_dir / "q5-toy.mpec")
