import json
import subprocess
import sys

from modgeo.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def _assert_no_raw_floats(obj):
    if isinstance(obj, float):
        raise AssertionError(f"raw float {obj} in JSON output")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _assert_no_raw_floats(v)
    if isinstance(obj, list):
        for v in obj:
            _assert_no_raw_floats(v)


class TestClassify:
    def test_rm_example(self, capsys):
        code, doc = run_json(capsys, "classify", "--sx", "sqrt(5)", "--sy", "-sqrt(5)")
        assert code == 0
        assert doc == {
            "bmt": "rm_torus",
            "d": 5,
            "mt": "rm_torus",
            "dynamical": "closed_rm",
        }

    def test_matrix_input(self, capsys):
        code, doc = run_json(capsys, "classify", "--matrix", "1,sqrt(2),0,1")
        assert code == 0
        assert doc["bmt"] == "borel" and doc["mt"] == "full_gl2"

    def test_generic(self, capsys):
        code, doc = run_json(capsys, "classify", "--sx", "0", "--sy", "generic:e")
        assert code == 0
        assert doc["bmt"] == "borel" and doc["mt"] == "full_gl2"

    def test_split(self, capsys):
        code, doc = run_json(capsys, "classify", "--sx", "0", "--sy", "inf")
        assert doc == {
            "bmt": "split_torus",
            "mt": "split_torus",
            "dynamical": "closed_cuspidal",
        }


class TestCf:
    def test_sqrt2(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "sqrt(2)")
        assert code == 0 and out.strip() == "[1; (2)]"

    def test_rational(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "7/3")
        assert code == 0 and out.strip() == "[2; 3]"

    def test_golden(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "(1+sqrt(5))/2")
        assert code == 0 and out.strip() == "[(1)]"

    def test_json(self, capsys):
        code, doc = run_json(capsys, "cf", "sqrt(3)")
        assert doc == {"value": "sqrt(3)", "preperiod": [1], "period": [1, 2]}


class TestEquiv:
    def test_equivalent(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "sqrt(2)", "sqrt(2)/2")
        assert code == 0 and out.strip() == "equivalent"

    def test_inequivalent(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", "sqrt(2)", "sqrt(3)")
        assert code == 1 and out.strip() == "inequivalent"


class TestClassgroup:
    def test_d40(self, capsys):
        code, doc = run_json(capsys, "classgroup", "40")
        assert code == 0
        assert doc["h_plus"] == 2 and doc["h_wide"] == 2
        assert doc["invariant_factors"] == [2]
        assert doc["unit"] == {"epsilon": "3+sqrt(10)", "norm": -1}
        _assert_no_raw_floats(doc)

    def test_invalid(self, capsys):
        code, out, err = run_cli(capsys, "classgroup", "7", "--json")
        assert code == 3 and "invalid-discriminant" in err


class TestGeodesicsUnits:
    def test_units_d5(self, capsys):
        code, doc = run_json(capsys, "units", "5")
        assert doc["epsilon"] == "(1+sqrt(5))/2"
        assert doc["epsilon_plus"] == "(3+sqrt(5))/2"
        assert doc["norm"] == -1
        assert doc["regulator_numeric"].startswith("0.4812118250596034475")
        _assert_no_raw_floats(doc)

    def test_geodesics_d5(self, capsys):
        code, rows = run_json(capsys, "geodesics", "5")
        assert len(rows) == 1
        assert rows[0]["slopes"] == ["(-1+sqrt(5))/2", "(-1-sqrt(5))/2"]
        _assert_no_raw_floats(rows)


class TestCensus:
    def test_empty(self, capsys):
        code, rows = run_json(capsys, "census", "--dmax", "4")
        assert code == 0 and rows == []

    def test_d5_row(self, capsys):
        code, rows = run_json(capsys, "census", "--dmax", "5")
        assert len(rows) == 1 and rows[0]["D"] == 5 and rows[0]["h_plus"] == 1

    def test_contains_d40(self, capsys):
        code, rows = run_json(capsys, "census", "--dmax", "41")
        row = next(r for r in rows if r["D"] == 40)
        assert row["h_plus"] == 2
        _assert_no_raw_floats(rows)


class TestNct:
    def test_equiv(self, capsys):
        code, doc = run_json(capsys, "nct", "equiv", "sqrt(2)", "1+sqrt(2)")
        assert code == 0 and doc["morita_equivalent"] is True

    def test_member(self, capsys):
        code, doc = run_json(capsys, "nct", "member", "3+2*sqrt(2)", "--theta", "sqrt(2)")
        assert code == 0 and doc == {"member": True, "m": 3, "n": 2}

    def test_member_none(self, capsys):
        code, doc = run_json(capsys, "nct", "member", "1/2", "--theta", "sqrt(2)")
        assert code == 1 and doc == {"member": False}

    def test_levels(self, capsys):
        code, doc = run_json(capsys, "nct", "levels", "3")
        assert doc == {"N": 3, "count": 48}

    def test_member_theta_inf_rejected(self, capsys):
        code, out, err = run_cli(capsys, "nct", "member", "1/3", "--theta", "inf")
        assert code == 3 and out == "" and "invalid-input" in err


class TestFieldsCommands:
    def test_hilbert(self, capsys):
        code, doc = run_json(
            capsys, "hilbert", "--E", "x^2-2", "--F", "x^4-10*x^2+1"
        )
        assert code == 0
        assert doc["rm_type_count"] == 4
        assert doc["sqrt_embedding"] == "(x^3 - 9*x)/2"
        assert all(r["direct_sum"] and r["stable"] for r in doc["rm_types"])

    def test_siegel(self, capsys):
        code, doc = run_json(capsys, "siegel", "--K", "x^4-2")
        assert code == 0
        assert doc["signature"] == [2, 1] and doc["dims"] == [1, 1, 2]
        assert doc["psi"] == [
            [0, -1, 0, -3],
            [1, 0, 3, 0],
            [0, -3, 0, -2],
            [3, 0, 2, 0],
        ]

    def test_siegel_negative_bound_rejected(self, capsys):
        code, out, err = run_cli(capsys, "siegel", "--K", "x^4-x-1", "--psi-bound", "-1")
        assert code == 3 and out == "" and "invalid-input" in err

    def test_siegel_wrong_signature(self, capsys):
        code, out, err = run_cli(capsys, "siegel", "--K", "x^4-10*x^2+1", "--json")
        assert code == 3 and "wrong-signature" in err


class TestErrorsAndDeterminism:
    def test_parse_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "equiv", "sqrt(", "1")
        assert code == 2

    def test_mixed_radicands_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "cf", "sqrt(2)+sqrt(3)")
        assert code == 2

    def test_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "classgroup", "60", "--json")
        _, out2, _ = run_cli(capsys, "classgroup", "60", "--json")
        assert out1 == out2

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "modgeo", "cf", "sqrt(2)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[1; (2)]"

    def test_exact_fields_reparse(self, capsys):
        from modgeo.parse import parse_value

        _, rows = run_json(capsys, "geodesics", "40")
        for row in rows:
            for s in row["slopes"]:
                parse_value(s)  # exact strings round-trip through the parser
        _, doc = run_json(capsys, "units", "40")
        parse_value(doc["epsilon"])
        parse_value(doc["epsilon_plus"])

    def test_numeric_digits_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MODGEO_NUMERIC_DIGITS", "30")
        _, doc = run_json(capsys, "units", "5")
        mantissa = doc["regulator_numeric"].replace(".", "").lstrip("0")
        assert len(mantissa) == 30
        monkeypatch.setenv("MODGEO_NUMERIC_DIGITS", "zero")
        code, out, err = run_cli(capsys, "units", "5")
        assert code == 2
