import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rokhlin import cli, cstar
from rokhlin.cli import COMMANDS, REQUIRED, emit_report, main, parse_element, run_scenario
from rokhlin.dynsys import load_system, make_cycle_system
from rokhlin.towers import build_tower_family, verify_tower

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_system(tmp_path, name="sys.json", lengths=(3, 10), dimension=0):
    import rokhlin as rk

    sys = rk.make_cycle_system(list(lengths))
    doc = {
        "points": list(sys.labels),
        "map": {sys.labels[i]: sys.labels[int(sys.perm[i])] for i in range(sys.n)},
        "dimension": dimension,
    }
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestOrbitsCommand:
    def test_reports_lengths(self, tmp_path, capsys):
        spath = write_system(tmp_path)
        rc = main(["orbits", "--system", str(spath)])
        out = capsys.readouterr().out
        assert rc == 0
        rep = json.loads(out)
        assert rep["orbits"]["lengths"] == [3, 10]
        assert all(a["pass"] for a in rep["assertions"])

    def test_missing_file_structured_error(self, capsys):
        rc = main(["orbits", "--system", "/definitely/not/here.json"])
        out = capsys.readouterr().out
        assert rc == 2
        rep = json.loads(out)
        assert rep["error"]["type"] == "ScenarioError"
        assert not rep["assertions"][0]["pass"]

    def test_metric_key_refused(self, tmp_path, capsys):
        # a system is labels, a map and a dimension; a distance table is an
        # unknown field
        spath = tmp_path / "sys.json"
        spath.write_text(json.dumps({"points": ["a", "b"], "map": {"a": "b", "b": "a"},
                                     "metric": [["a", "b", 1.0]]}))
        rc = main(["orbits", "--system", str(spath)])
        captured = capsys.readouterr()
        assert rc == 2
        rep = json.loads(captured.out)
        assert rep["error"] == {"type": "SystemFormatError", "message": "unknown fields: ['metric']"}
        assert not rep["assertions"][0]["pass"]
        assert "Traceback" not in captured.err


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        spath = write_system(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["orbits", "--system", str(spath), "--out", str(out1)]) == 0
        assert main(["orbits", "--system", str(spath), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parser_built_once_and_reused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_PARSER", None)
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
        spath = write_system(tmp_path)
        out = tmp_path / "r.json"
        assert main(["orbits", "--system", str(spath), "--out", str(out)]) == 0
        first = capsys.readouterr().out
        out.unlink()
        # no flag of the first call carries over to the second
        assert main(["orbits", "--system", str(spath)]) == 0
        assert capsys.readouterr().out == first and not out.exists()
        assert len(built) == 1

    def test_seeded_periodic_deterministic(self, tmp_path):
        spath = write_system(tmp_path, lengths=(2, 3))
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        for out in (out1, out2):
            assert main(["periodic", "--system", str(spath), "--out", str(out),
                         "--seed", "7"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_float_formatting_round_trips(self, tmp_path):
        report = {"x": 0.1, "y": [1e-17, 2.0], "flag": True, "none": None}
        text = emit_report(report, tmp_path / "f.json")
        parsed = json.loads(text)
        assert parsed["x"] == 0.1 and parsed["y"][0] == 1e-17

    def test_keys_sorted(self):
        text = emit_report({"b": 1, "a": 2, "c": {"z": 1, "y": 2}}, None)
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert text.index('"y"') < text.index('"z"')


class TestScenarios:
    def test_shipped_suite_passes(self, capsys):
        rc = main(["verify-all", "--suite", str(SCENARIOS / "suite.json")])
        captured = capsys.readouterr()
        assert rc == 0
        rep = json.loads(captured.out)
        assert rep["summary"] and all(row["pass"] for row in rep["summary"])
        assert "scenario" in captured.err  # summary table on stderr

    def test_empty_suite_exits_zero(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"scenarios": []}))
        assert main(["verify-all", "--suite", str(suite)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["summary"] == []

    def test_forced_failure_propagates(self, tmp_path, capsys):
        spath = write_system(tmp_path, lengths=(3, 10))
        scen = tmp_path / "bad_norm.json"
        scen.write_text(json.dumps({
            "command": "norm", "system": spath.name,
            "element": [{"power": 1, "constant": [1.0, 0.0]}],
            "tol": 1e-3, "expect": {"value_at_most": 0.5},
        }))
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"scenarios": ["bad_norm.json"]}))
        rc = main(["verify-all", "--suite", str(suite)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert not out["summary"][0]["pass"]

    def test_norm_scenario_round_trip(self, tmp_path, capsys):
        rc = main(["norm", "--scenario", str(SCENARIOS / "norm_unitary.json")])
        rep = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert rep["norm"]["value"] == pytest.approx(1.0, abs=1e-6)
        assert json.loads(emit_report(rep, None)) == rep

    @pytest.mark.parametrize("exp", [-200, 200])
    def test_norm_at_extreme_scales(self, tmp_path, capsys, exp):
        # 10^exp (u + 1/2) has norm 1.5e+-200; its squares leave the floats
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps({
            "command": "norm", "system": str(SCENARIOS / "system_3_10.json"), "tol": 10.0 ** (exp - 3),
            "element": [{"power": 1, "constant": [10.0**exp, 0.0]}, {"power": 0, "constant": [5 * 10.0 ** (exp - 1), 0.0]}],
        }))
        assert main(["norm", "--scenario", str(scen)]) == 0
        got = json.loads(capsys.readouterr().out)["norm"]
        assert got["upper"] >= 1.5 * 10.0**exp and got["value"] == pytest.approx(1.5 * 10.0**exp, rel=1e-12)
        assert got["tol"] == 10.0 ** (exp - 3)

    def test_wrong_command_in_scenario(self, tmp_path):
        scen = tmp_path / "s.json"
        scen.write_text(json.dumps({"command": "towers"}))
        rc = main(["norm", "--scenario", str(scen)])
        assert rc == 2


class TestElementLiterals:
    def test_sparse_coefficients(self, tmp_path):
        spath = write_system(tmp_path)
        sys = load_system(spath.read_text())
        el = parse_element(sys, [
            {"power": 1, "coefficients": {"c0p0": [1.0, 0.5]}},
            {"power": -2, "constant": [0.0, 1.0]},
        ])
        assert el.support == (-2, 1)
        assert el.coefficient(1)[sys.index["c0p0"]] == 1.0 + 0.5j
        assert el.coefficient(-2)[0] == 1j

    def test_unknown_label_rejected(self, tmp_path):
        from rokhlin.cli import ScenarioError

        spath = write_system(tmp_path)
        sys = load_system(spath.read_text())
        with pytest.raises(ScenarioError, match="unknown point label"):
            parse_element(sys, [{"power": 0, "coefficients": {"nope": [1, 0]}}])

    def test_malformed_band_rejected(self, tmp_path):
        from rokhlin.cli import ScenarioError

        spath = write_system(tmp_path)
        sys = load_system(spath.read_text())
        with pytest.raises(ScenarioError):
            parse_element(sys, [{"coefficients": {}}])


_SYSTEM_3_10 = make_cycle_system([3, 10])
_PART = st.one_of(
    st.floats(-1e300, 1e300),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0.0, -0.0, 0, 2**53 + 1, -(2**63) - 1]),
)


@st.composite
def _band_entries(draw):
    """Band entries on the 3+10 cycle system: powers repeat across entries,
    tables mix ints with floats and carry -0.0 parts."""
    labels = _SYSTEM_3_10.labels
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        power = draw(st.integers(-2, 2))
        if draw(st.integers(0, 4)) == 0:
            entries.append({"power": power, "constant": [draw(_PART), draw(_PART)]})
        else:
            table = draw(st.dictionaries(st.sampled_from(labels), st.lists(_PART, min_size=2, max_size=2)))
            entries.append({"power": power, "coefficients": table})
    return entries


def _per_value_parse(literal):
    """parse_element with the array path of coefficient tables turned off."""
    with mock.patch.object(cli, "_table_values", return_value=None):
        return parse_element(_SYSTEM_3_10, literal)


def _bits(el) -> dict:
    return {i: el.coefficient(i).view(np.int64).tolist() for i in el.support}


class TestCoefficientTables:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(literal=_band_entries())
    def test_array_path_gives_the_per_value_bits(self, literal):
        assert _bits(parse_element(_SYSTEM_3_10, literal)) == _bits(_per_value_parse(literal))

    # each bad entry sits after valid ones, alone or before a second bad entry
    @pytest.mark.parametrize("second", [False, True], ids=["alone", "before-another"])
    @pytest.mark.parametrize("bad, message", [
        ([math.nan, 0.0], "coefficient of 'c1p5' at power 1 must be a finite number, got nan"),
        ([0.0, math.inf], "coefficient of 'c1p5' at power 1 must be a finite number, got inf"),
        ([True, 0.0], "coefficient of 'c1p5' at power 1 must be a finite number, got True"),
        ([10**400, 0], f"coefficient of 'c1p5' at power 1 must be a finite number, got {10**400}"),
        ([1.0], "coefficient of 'c1p5' at power 1 must be a pair of finite numbers [re, im], got [1.0]"),
        (None, "unknown point label 'nope'"),
    ], ids=["nan", "inf", "true", "10**400", "one-element", "unknown-label"])
    def test_first_bad_entry_is_named(self, bad, message, second):
        from rokhlin.cli import ScenarioError

        table = {"c0p0": [1.0, 0.5], "c1p0": [2, -0.0]}
        table.update({"nope": [1.0, 0.0]} if bad is None else {"c1p5": bad})
        if second:
            table["c1p7"] = [math.nan, math.nan]
        literal = [{"power": 0, "constant": [1, 0]}, {"power": 1, "coefficients": table}]
        with pytest.raises(ScenarioError) as got:
            parse_element(_SYSTEM_3_10, literal)
        with pytest.raises(ScenarioError) as per_value:
            _per_value_parse(literal)
        assert str(got.value) == str(per_value.value) == message


class TestMalformedNormScenarios:
    VALID = [{"power": 1, "constant": [0.5, 0.0]}]

    @pytest.mark.parametrize("element, tol, message", [
        ([{"power": 0, "coefficients": {"c0p0": [float("nan"), 0.0]}}], 1e-3, "'c0p0' at power 0"),
        ([{"power": 1, "coefficients": {"c1p3": [1.0, float("inf")]}}], 1e-3, "'c1p3' at power 1"),
        ([{"power": -1, "constant": [1.0]}], 1e-3, "constant at power -1"),
        (VALID, float("nan"), "norm field 'tol' must be a number or a fraction string with a finite value"),
        ([{"power": True, "constant": [1.0, 0.0]}], 1e-3,
         "bad band entry {'power': True, 'constant': [1.0, 0.0]}: 'power' must be an integer"),
        ([{"power": 1, "constant": [1, 0], "coefficients": {"c0p0": [5, 0]}}], 1e-3,
         "band entry at power 1 has both 'constant' and 'coefficients'"),
        ([{"power": 1, "constant": [1, 0]}, {"power": 2, "constant": [1, 0], "bogus": 3}], 1e-3,
         "band entry at power 2 has unknown key 'bogus'"),
    ], ids=["nan-coefficient", "inf-coefficient", "one-element-constant", "nan-tol", "bool-power",
            "constant-and-coefficients", "unknown-key"])
    def test_exit_two_with_error_object(self, tmp_path, capsys, element, tol, message):
        spath = write_system(tmp_path)
        scen = tmp_path / "bad.json"
        scen.write_text(json.dumps({"command": "norm", "system": spath.name, "tol": tol, "element": element}))
        rc = main(["norm", "--scenario", str(scen)])
        captured = capsys.readouterr()
        assert rc == 2
        rep = json.loads(captured.out)
        assert message in rep["error"]["message"]
        assert not rep["assertions"][0]["pass"]
        assert "Traceback" not in captured.err

    def test_zero_element_still_checks_tol(self, tmp_path, capsys):
        spath = write_system(tmp_path)
        scen = tmp_path / "zero.json"
        scen.write_text(json.dumps({"command": "norm", "system": spath.name, "element": [], "tol": 0.0}))
        assert main(["norm", "--scenario", str(scen)]) == 2
        assert "tol must be finite and positive" in json.loads(capsys.readouterr().out)["error"]["message"]


class TestApproxScenario:
    def test_small_scenario_assertion_rows(self):
        rep = run_scenario(SCENARIOS / "approx_small.json")
        names = {a["name"] for a in rep["assertions"]}
        assert {"quotient_corner", "ideal_corner", "final_assembly", "sqrt_step"} <= names
        assert all(a["pass"] for a in rep["assertions"])
        assert rep["ledger"]["closed_form_bound"] == 4
        assert rep["ledger"]["total_declared"] == 5

    def test_sqrt_step_row_follows_library_rule(self, monkeypatch):
        # a step exactly at eps/(2k+1) fails: the row and the library agree
        from rokhlin.approx import IdealSide, run_approximation

        monkeypatch.setattr(
            IdealSide, "sqrt_step_sup", lambda self: float(self.params.eps) / (2 * self.params.k + 1)
        )
        doc = json.loads((SCENARIOS / "approx_small.json").read_text())
        rep = run_scenario(SCENARIOS / "approx_small.json")
        row = next(a for a in rep["assertions"] if a["name"] == "sqrt_step")
        assert row["measured"] == row["bound"]
        sys = load_system((SCENARIOS / doc["system"]).read_text())
        run = run_approximation(
            sys, [parse_element(sys, lit) for lit in doc["elements"]], doc["epsilon"], norm_tol=doc["tol"]
        )
        assert not run.factorization.sqrt_step["strict"]
        assert not row["pass"] and not run.passed()


    def test_two_sided_run_at_d1_passes_the_ledger(self, tmp_path, capsys):
        # both sides at d = 1: 2 + (2d + 3) = 7 colours against 3d + 5 = 8 declared
        spath = write_system(tmp_path, lengths=(3, 7, 6000), dimension=1)
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({"command": "approx", "system": str(spath),
                                    "elements": [_UNITARY], "epsilon": "3/10"}))
        rc = main(["approx", "--scenario", str(scen)])
        rep = json.loads(capsys.readouterr().out)
        assert rep["parameters"]["d"] == 1
        assert rep["parameters"]["short_part_size"] and rep["parameters"]["long_part_size"]
        row = next(a for a in rep["assertions"] if a["name"] == "summand_count_defect")
        assert (row["measured"], row["bound"], row["pass"]) == (0.0, 0.0, True)
        assert rc == 0 and all(a["pass"] for a in rep["assertions"])

    def test_summands_over_the_ledger_fail(self, monkeypatch, capsys):
        # one summand more than declared fails the library rule and the row
        from rokhlin.approx import run_approximation

        runs = []

        def one_over(*args, **kwargs):
            run = run_approximation(*args, **kwargs)
            fz = run.factorization
            runs.append(dataclasses.replace(
                run, factorization=dataclasses.replace(fz, summands_actual=fz.summands_declared + 1)
            ))
            return runs[-1]

        monkeypatch.setattr(cli, "run_approximation", one_over)
        rc = main(["approx", "--scenario", str(SCENARIOS / "approx_small.json")])
        rep = json.loads(capsys.readouterr().out)
        row = next(a for a in rep["assertions"] if a["name"] == "summand_count_defect")
        assert (row["measured"], row["bound"], row["pass"]) == (1.0, 0.0, False) and rc == 1
        assert runs[0].factorization.summand_excess == 1
        assert not runs[0].factorization.passed() and not runs[0].passed()


class TestTowerRows:
    def test_rows_follow_the_exact_flags(self, monkeypatch, capsys):
        # towers_100 over D >= 1e12 with one numerator off by one: the float
        # conservation error 1/D reads <= 1e-12, the exact check fails
        import rokhlin.cli as cli

        families = []

        def off_by_one(*args, **kwargs):
            family = build_tower_family(*args, **kwargs)
            scale = -(-10**12 // family.den)
            num = family.num * scale
            num[0, 0, family.m] += 1
            families.append(dataclasses.replace(family, num=num, den=family.den * scale))
            return families[-1]

        monkeypatch.setattr(cli, "build_tower_family", off_by_one)
        doc = json.loads((SCENARIOS / "towers_100.json").read_text())
        argv = ["towers", "--system", str(SCENARIOS / doc["system"])]
        for name in ("d", "k", "m", "epsilon"):
            argv += [f"--{name}", str(doc[name])]
        rc = main(argv)
        rep = json.loads(capsys.readouterr().out)
        tower = verify_tower(families[0])
        assert not tower.conservation_exact and not tower.ok()
        row = next(a for a in rep["assertions"] if a["name"] == "conservation_error")
        assert row["measured"] <= row["bound"] and not row["pass"]
        assert rc == 1


class TestMalformedApproxScenarios:
    @pytest.mark.parametrize("change, message", [
        ({"e": {"c1p00": float("nan")}}, "e at 'c1p00' must be a finite number"),
        ({"e": [1.0]}, "'e' must map point labels"),
        ({"e": {"c1p00": [0.5]}}, "e at 'c1p00' must be a finite number"),
        ({"elements": None}, "needs 'elements'"),
        ({"epsilon": None}, "needs 'epsilon'"),
        ({"N": "x"}, "'N' must be an integer"),
        ({"tol": [1e-3]}, "'tol' must be a number"),
        ({"epsilon": float("nan")}, "approx field 'epsilon' must be a number or a fraction string with a finite value"),
        ({"tol": float("-inf")}, "approx field 'tol' must be a number or a fraction string with a finite value"),
    ], ids=["nan-e", "list-e", "pair-e-value", "no-elements", "no-epsilon", "string-N", "list-tol", "nan-epsilon",
            "minus-inf-tol"])
    def test_exit_two_with_error_object(self, tmp_path, capsys, change, message):
        doc = json.loads((SCENARIOS / "approx_small.json").read_text())
        doc["system"] = str(SCENARIOS / doc["system"])
        for key, value in change.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        scen = tmp_path / "bad.json"
        scen.write_text(json.dumps(doc))
        rc = main(["approx", "--scenario", str(scen)])
        captured = capsys.readouterr()
        assert rc == 2
        rep = json.loads(captured.out)
        assert message in rep["error"]["message"]
        assert not rep["assertions"][0]["pass"]
        assert "Traceback" not in captured.err


def _shipped(name: str) -> dict:
    """A shipped scenario with its system path made absolute."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    doc["system"] = str(SCENARIOS / doc["system"])
    return doc


def _verify(directory: Path, docs: dict) -> tuple[int, dict, str]:
    """``verify-all`` on a suite of the scenario files ``docs`` (name ->
    document): (exit code, report, stderr)."""
    for name, doc in docs.items():
        (directory / name).write_text(json.dumps(doc))
    (directory / "suite.json").write_text(json.dumps({"scenarios": list(docs)}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["verify-all", "--suite", str(directory / "suite.json")])
    return rc, json.loads(out.getvalue()), err.getvalue()


def _verify_one(directory: Path, doc) -> tuple[int, dict | None, str]:
    """``verify-all`` on a suite holding only ``doc``: (exit code, the error
    of its summary row or None, stderr)."""
    rc, rep, err = _verify(directory, {"scenario.json": doc})
    (row,) = rep["summary"]
    assert row["pass"] == rep["assertions"][0]["pass"]
    return rc, row.get("error"), err


_DROP = object()


class TestMalformedScenarios:
    @pytest.mark.parametrize("name, change, field", [
        ("markers_100", {"m": _DROP}, "m"),
        ("towers_100", {"epsilon": _DROP}, "epsilon"),
        ("orbits_3_10", {"system": _DROP}, "system"),
        ("norm_unitary", {"element": _DROP}, "element"),
        ("markers_100", {"m": [2]}, "m"),
        ("towers_100", {"d": "x"}, "d"),
        ("markers_100", {"d": "1"}, "d"),
        ("orbits_3_10", {"system": 7}, "system"),
        ("orbits_3_10", {"system": None}, "system"),
        ("norm_unitary", {"expect": [1]}, "expect"),
        ("norm_unitary", {"expect": {"value_at_most": None}}, "value_at_most"),
        ("suite", None, "scenarios"),
        ("markers_100", {"m": 2.7}, "m"),
        ("periodic_2_3_4", {"seed": 1.5}, "seed"),
        ("towers_100", {"d": -1}, "d"),
    ], ids=[
        "no-m", "no-epsilon", "no-system", "no-element", "list-m", "string-d-towers",
        "string-d-markers", "int-system", "null-system", "list-expect", "null-expect-bound",
        "non-string-suite-entry", "float-m", "float-seed", "negative-d",
    ])
    def test_exit_two_naming_the_field(self, tmp_path, name, change, field):
        if name == "suite":
            (tmp_path / "suite.json").write_text(json.dumps({"scenarios": [1]}))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["verify-all", "--suite", str(tmp_path / "suite.json")])
            rep, err = json.loads(out.getvalue()), err.getvalue()
            assert not rep["assertions"][0]["pass"]
            error = rep["error"]
        else:
            doc = _shipped(name)
            for key, value in change.items():
                if value is _DROP:
                    del doc[key]
                else:
                    doc[key] = value
            rc, error, err = _verify_one(tmp_path, doc)
        assert rc == 2
        assert f"'{field}'" in error["message"]
        assert "Traceback" not in err

    def test_bad_entry_does_not_hide_the_others(self, tmp_path):
        bad = dict(_shipped("markers_100"), m=0)
        rc, rep, err = _verify(tmp_path, {"bad.json": bad, "good.json": _shipped("orbits_3_10")})
        assert rc == 2
        assert [row["scenario"] for row in rep["summary"]] == ["bad.json", "good.json"]
        bad_row, good_row = rep["summary"]
        assert not bad_row["pass"] and bad_row["assertions"] == 0
        assert bad_row["error"]["type"] == "ScenarioError" and "'m'" in bad_row["error"]["message"]
        assert good_row["pass"] and good_row["assertions"] > 0 and "error" not in good_row
        assert [a["pass"] for a in rep["assertions"]] == [False, True]
        assert "error: markers field 'm'" in err and "Traceback" not in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        rc, error, _ = _verify_one(tmp_path, dict(_shipped("orbits_3_10"), bogus=1))
        assert rc == 2
        assert "'bogus'" in error["message"]
        (tmp_path / "suite.json").write_text(json.dumps({"scenarios": [], "bogus": 1}))
        assert main(["verify-all", "--suite", str(tmp_path / "suite.json")]) == 2
        assert "'bogus'" in json.loads(capsys.readouterr().out)["error"]["message"]


@pytest.mark.parametrize("name", ["orbits_3_10", "markers_100", "towers_100", "periodic_2_3_4"])
def test_flags_and_scenario_files_are_one_path(name, capsys):
    doc = _shipped(name)
    argv = [doc.pop("command")]
    for key, value in doc.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    assert capsys.readouterr().out == emit_report(run_scenario(SCENARIOS / f"{name}.json"), None)


# every shipped small scenario; approx_acceptance is left out for time
_FUZZ_BASES = ["approx_small", "markers_100", "norm_unitary", "orbits_3_10", "periodic_2_3_4", "towers_100"]
_FUZZ_VALUES = [None, True, -1, 0, 2.5, "x", float("nan"), [], {}, [1]]


@st.composite
def _malformed(draw):
    doc = _shipped(draw(st.sampled_from(_FUZZ_BASES)))
    action = draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "add":
        doc["bogus"] = draw(st.sampled_from(_FUZZ_VALUES))
        return doc
    key = draw(st.sampled_from(sorted(doc)))
    if action == "drop":
        del doc[key]
    else:
        doc[key] = draw(st.sampled_from(_FUZZ_VALUES))
    return doc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(doc=_malformed())
def test_malformed_documents_never_crash(tmp_path_factory, doc):
    rc, error, err = _verify_one(tmp_path_factory.mktemp("fuzz"), doc)
    assert rc in (0, 1, 2)
    assert (rc == 2) == (error is not None)
    assert "Traceback" not in err


def test_readme_lists_every_field():
    readme = (SCENARIOS.parent / "README.md").read_text()
    for command, (_, fields) in COMMANDS.items():
        for name, (kind, default) in fields.items():
            shown = "required" if default is REQUIRED else f"`{json.dumps(default)}`"
            assert f"| `{command}` | `{name}` | {kind} | {shown} |" in readme


def test_periodic_refuses_an_oversized_embedding(tmp_path, capsys):
    # period 1001 on 713 points: one grid point needs more than a whole chunk
    spath = write_system(tmp_path, lengths=(7, 11, 13) * 23)
    tracemalloc.start()
    start = time.monotonic()
    try:
        rc = main(["periodic", "--system", str(spath)])
        elapsed = time.monotonic() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert elapsed < 1.0 and peak < 2**24
    assert rep["error"]["type"] == "ValueError"
    assert f"period 1001 needs {16 * 1001 * (3 * 713 + 6)} bytes per grid point" in rep["error"]["message"]


def test_periodic_refuses_an_oversized_lambda_grid(capsys):
    # 10^11 grid points would need a 1.6 TB lam array: refused before it is built
    tracemalloc.start()
    try:
        rc = main(["periodic", "--system", str(SCENARIOS / "system_3_10.json"), "--lambda-grid", "100000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert rc == 2 and peak < 2**24 and "Traceback" not in err
    assert rep["error"]["type"] == "ValueError"
    assert "a lam grid of 100000000000 points needs 1600000000000 bytes" in rep["error"]["message"]
    # the first grid past the limit is refused by the embedding itself
    with pytest.raises(ValueError, match=f"a lam grid of {2**24 + 1} points"):
        cstar.periodic_embedding(make_cycle_system([3]), 2**24 + 1)


@pytest.mark.parametrize("system, m, error", [
    # k' = 3 ceil(10^30) overflows int64 translates: the greedy placement's
    # cycle length refusal (m = 40 and m = 10^31 on 100-point cycles) and
    # the window refusal (m = 40 on a 2000-point cycle) come first
    ("system_100.json", "40", "MarkerError"),
    ("system_100.json", "10000000000000000000000000000000", "MarkerError"),
    (None, "40", "TowerError"),
], ids=["m40", "m1e31", "long_cycle"])
def test_towers_refuses_an_overflowing_window(tmp_path, capsys, system, m, error):
    spath = SCENARIOS / system if system else write_system(tmp_path, lengths=(2000,))
    rc = main(["towers", "--system", str(spath), "--k", "3", "--m", m, "--epsilon", "1e-30"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert rc == 2 and "Traceback" not in err
    assert rep["error"]["type"] == error


def test_approx_at_a_tiny_epsilon(tmp_path, capsys):
    # approx derives m from epsilon', so epsilon = 10^-30 stays a passing run
    doc = json.loads((SCENARIOS / "approx_small.json").read_text())
    doc.update(epsilon="1e-30", system=str(SCENARIOS / doc["system"]))
    scen = tmp_path / "approx.json"
    scen.write_text(json.dumps(doc))
    assert main(["approx", "--scenario", str(scen)]) == 0


def test_periodic_runs_period_1001(tmp_path, capsys):
    spath = write_system(tmp_path, lengths=(7, 11, 13))
    tracemalloc.start()
    start = time.monotonic()
    try:
        rc = main(["periodic", "--system", str(spath)])
        elapsed = time.monotonic() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0 and rep["periodic"]["period"] == 1001
    assert all(row["pass"] for row in rep["assertions"])
    assert elapsed < 1.0 and peak < 2**26


# ---------------------------------------------------------------------------
# the report encoder against the recursive one it replaced


def reference_dump(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  {json.dumps(str(key))}: {reference_dump(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {reference_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, complex):
        return reference_dump([obj.real, obj.imag], indent)
    raise TypeError(f"cannot serialize {type(obj)}")


_texts = st.text(st.sampled_from(list('az"\\/\n\t\x00\x1f\x7fé€Ω😀 ')), max_size=6)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf, 0.1, 1 / 3]),
)
_scalars = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _floats,
    _floats.map(np.float64),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    _texts,
)


def _containers(children):
    # homogeneous containers take the encoder's one-type-per-container path
    items = st.one_of(children, _floats, _texts)
    return st.one_of(
        st.lists(items, max_size=5),
        st.lists(items, max_size=5).map(tuple),
        st.lists(_floats, max_size=5),
        st.lists(_texts, max_size=5),
        st.dictionaries(_texts, items, max_size=5),
        st.dictionaries(st.integers(), items, max_size=5),
        st.dictionaries(_texts, _floats, max_size=5),
    )


_documents = st.recursive(_scalars, _containers, max_leaves=40)

# long containers whose floats repeat: the encoder formats each distinct value
# once, except where a zero is among them; NaN comes both as one shared object
# and as a new object per draw
_SHARED_NAN = float("nan")
_REPEATS = [0.5, 1 / 3, -2.0, math.inf, -math.inf, _SHARED_NAN]


def _drawn_from(pool):
    return st.one_of(st.sampled_from(pool), st.builds(float, st.just("nan")))


_repeated_floats = st.sampled_from([_REPEATS, _REPEATS + [0.0], _REPEATS + [-0.0], _REPEATS + [0.0, -0.0]]).flatmap(
    lambda pool: st.one_of(
        st.lists(_drawn_from(pool), min_size=16, max_size=64),
        st.dictionaries(_texts, _drawn_from(pool), min_size=16, max_size=64),
    )
)

# containers of [re, im] pairs, the encoder's one-format-per-pair path, and the
# same with one odd member that must take the general path
_pair = st.lists(_floats, min_size=2, max_size=2)
_odd_member = st.one_of(
    st.integers(),
    st.booleans(),
    st.tuples(_floats, st.integers()).map(list),
    st.tuples(st.booleans(), _floats).map(list),
    st.tuples(_floats, _floats.map(np.float64)).map(list),
    st.lists(_floats, min_size=1, max_size=1),
    st.lists(_floats, min_size=3, max_size=3),
    st.tuples(_floats, _floats),
)


@st.composite
def _pairs(draw):
    pairs = draw(st.lists(_pair, min_size=1, max_size=20))
    if draw(st.booleans()):
        pairs.insert(draw(st.integers(0, len(pairs))), draw(_odd_member))
    if draw(st.booleans()):
        return dict(zip(draw(st.lists(_texts, min_size=len(pairs), max_size=len(pairs), unique=True)), pairs))
    return pairs


class TestReportEncoding:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(doc=_documents)
    def test_equals_reference(self, doc):
        assert emit_report(doc, None) == reference_dump(doc) + "\n"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(doc=_repeated_floats)
    def test_repeated_floats_equal_reference(self, doc):
        assert emit_report(doc, None) == reference_dump(doc) + "\n"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(doc=_pairs())
    def test_pairs_equal_reference(self, doc):
        assert emit_report({"pairs": doc}, None) == reference_dump({"pairs": doc}) + "\n"

    @pytest.mark.parametrize("value", [np.bool_(True), {1, 2}], ids=["numpy-bool", "set"])
    @pytest.mark.parametrize("where", ["alone", "in-list", "in-dict", "among-floats"])
    def test_same_type_error(self, value, where):
        doc = {
            "alone": value, "in-list": [value], "in-dict": {"k": value}, "among-floats": [1.0, value],
        }[where]
        with pytest.raises(TypeError) as expected:
            reference_dump(doc)
        with pytest.raises(TypeError) as got:
            emit_report(doc, None)
        assert str(got.value) == str(expected.value)

    def test_towers_report_with_shuffled_labels(self, tmp_path, capsys):
        rng = random.Random(5)
        lengths = (83, 89, 97)
        words = sorted({"".join(rng.choices("aZé_Ωq-", k=rng.randint(1, 4))) for _ in range(1000)})
        labels = rng.sample(words, sum(lengths))
        forward, start = {}, 0
        for length in lengths:
            cyc = labels[start:start + length]
            start += length
            forward.update({lab: cyc[(j + 1) % length] for j, lab in enumerate(cyc)})
        (tmp_path / "sys.json").write_text(
            json.dumps({"points": rng.sample(labels, len(labels)), "map": forward, "dimension": 1})
        )
        scen = {"command": "towers", "system": "sys.json", "d": 1, "k": 1, "m": 10, "epsilon": "1/2"}
        (tmp_path / "towers.json").write_text(json.dumps(scen))
        rep = run_scenario(tmp_path / "towers.json")
        text = emit_report(rep, None)
        assert text == reference_dump(rep) + "\n"
        argv = ["towers", "--system", str(tmp_path / "sys.json")]
        assert main(argv + ["--d", "1", "--k", "1", "--m", "10", "--epsilon", "1/2"]) == 0
        assert capsys.readouterr().out == text

        # each rung's table holds the family's values and is built in sorted-label order
        sys = load_system((tmp_path / "sys.json").read_text())
        family = build_tower_family(sys, 1, 1, 10, "1/2", range(sys.n))
        tables = rep["towers"]["values"]
        assert len(tables) == family.levels and any(tables)
        for l, table in enumerate(tables):
            expected = {}
            for col in range(2 * family.m + 1):
                nz = np.flatnonzero(family.num[l, :, col])
                if nz.size:
                    values = (family.num[l, nz, col] / family.den).tolist()
                    expected[str(col - family.m)] = {
                        sys.labels[x]: v for x, v in zip(family.points[l, nz, col].tolist(), values)
                    }
            assert table == expected
            for rung in table.values():
                assert list(rung) == sorted(rung)


_UNITARY = [{"power": 1, "constant": [1.0, 0.0]}]


def _timed_main(argv, capsys):
    """Exit code, report, seconds and traced peak of one CLI call."""
    tracemalloc.start()
    start = time.monotonic()
    try:
        rc = main(argv)
        elapsed = time.monotonic() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rc, json.loads(capsys.readouterr().out), elapsed, peak


# norm grids past cstar._GRID_MAX_BYTES used to fail allocating the grid
# (numpy's _ArrayMemoryError, a traceback and exit 1).  Every case has two
# bands, since a one-band fiber is read without a grid.  The approx cases:
# (u + u*)/2's quotient corners close in closed form, so the refusal names the
# ideal side's long orbit; u^5 wraps twice around the 3-cycle, whose corner
# takes the grid
_OVERSIZED_GRIDS = {
    "tol 1e-9": ("norm", "system_3_10.json",
                 {"element": _UNITARY + [{"power": 2, "constant": [1, 0]}], "tol": 1e-9}, "c0p0", 2**33, "2.0"),
    "u^1000000 + u": ("norm", "system_3_10.json",
                      {"element": _UNITARY + [{"power": 1000000, "constant": [1, 0]}]}, "c0p0", 2**30, "333335.0"),
    "approx tol 1e-12": ("approx", "system_3_60.json",
                         {"elements": [[{"power": 1, "constant": [0.5, 0.0]}, {"power": -1, "constant": [0.5, 0.0]}]],
                          "epsilon": "3/2", "tol": 1e-12},
                         "c1p00", 2**37, "0.031465"),
    "approx u^5 tol 1e-12": ("approx", "system_3_60.json",
                             {"elements": [[{"power": 5, "constant": [1.0, 0.0]}]], "epsilon": "3/2", "tol": 1e-12},
                             "c0p00", 2**44, "3.99"),
}


@pytest.mark.parametrize("case", sorted(_OVERSIZED_GRIDS))
def test_oversized_norm_grid_refused_before_allocating(case, tmp_path, capsys):
    command, system, fields, orbit, n, lip = _OVERSIZED_GRIDS[case]
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(dict(fields, command=command, system=str(SCENARIOS / system))))
    rc, rep, elapsed, peak = _timed_main([command, "--scenario", str(scen)], capsys)
    assert rc == 2 and elapsed < 1.0 and peak < 2**24
    message = rep["error"]["message"]
    assert rep["error"]["type"] == "ValueError"
    assert message.startswith(f"fiber over the orbit of {orbit!r}")
    assert f"needs a grid of {n} points, {24 * n} bytes (Lipschitz bound {lip}" in message
    assert message.endswith(f"over the limit of {cstar._GRID_MAX_BYTES} bytes")


@pytest.mark.parametrize("element, tol", [(_UNITARY, 1e-9), ([{"power": 1000000, "constant": [1, 0]}], 1e-3)],
                         ids=["u tol 1e-9", "u^1000000"])
def test_one_band_norm_needs_no_grid(element, tol, tmp_path, capsys):
    # once refused for their grids (2^32 and 2^30 points): diag(f) S^i(lam) is
    # f times a unitary, so the norm is max|f| = 1 at every lam
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps({"command": "norm", "system": str(SCENARIOS / "system_3_10.json"),
                                "element": element, "tol": tol}))
    rc, rep, elapsed, _ = _timed_main(["norm", "--scenario", str(scen)], capsys)
    assert rc == 0 and elapsed < 1.0
    assert rep["norm"]["value"] == 1.0 and rep["norm"]["upper"] == 1.0 + tol
    assert rep["norm"]["grids"] == {"c0p0": 1, "c1p0": 1}


# short orbits whose node stacks used to be allocated whole: (s, L, L) of
# 20.2 GiB, 1.97 TiB and 13.5 GiB (a traceback and exit 1)
_SHORT_ORBIT_REQUESTS = {
    "eps 1/1000": ([_UNITARY], "1/1000"),
    "eps 1/100000": ([_UNITARY], "1/100000"),
    "u^1000 on every short cycle": ([[{"power": 1000, "constant": [0.001, 0]}]], "3/2"),
}


@pytest.mark.parametrize("case", sorted(_SHORT_ORBIT_REQUESTS))
def test_short_orbits_of_any_node_count_pass(case, tmp_path, capsys):
    elements, eps = _SHORT_ORBIT_REQUESTS[case]
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps({"command": "approx", "system": str(SCENARIOS / "system_3_60.json"),
                                "elements": elements, "epsilon": eps}))
    rc, rep, elapsed, peak = _timed_main(["approx", "--scenario", str(scen)], capsys)
    assert rc == 0 and all(row["pass"] for row in rep["assertions"])
    assert rep["parameters"]["long_part_size"] == 0
    assert elapsed < 5.0 and peak < 2**26


# sha256 of each shipped scenario's report and of verify-all on the shipped
# suite, run from the repository root (reports name the system path as
# given).  Any change to a pin is a change to the program's output and is
# explained in CHANGES.md.
_REPORT_SHA256 = {
    "approx_acceptance": "c1b56c00ab57534fae031f5e6a016dbe0820fdf62578bb23262137962de319a6",
    "approx_small": "6412a454252f3b92ed5cdd4d241e2342d6e9bd0ae7964921d2a9d979cddb8a89",
    "approx_short_1200": "1a08e69922cdcf5cc0d163fed7d518a5473c6ac8257a2d94c86f5a209d4a62df",
    "markers_100": "2a8d4a60ae3181bae8684dc04a60ea3a95494e49eb6b9db9b373e8b7f94c5492",
    "norm_unitary": "e8126b48a7dd8a52fe4754ac15ee2d83fa9ecd7ce2a3ec29e5d6cbdedfea53d7",
    "orbits_3_10": "56a04782ffb03a9227805e96ec41e6b86fdd5a353c7a32efc3a34012c71d7ca0",
    "periodic_2_3_4": "80be2704a678696a1e1b9e8825bb525e76c9378c331e2eecd147d0f7e4d6e25e",
    "towers_100": "a740049cdff477a295fdf49316ae874e4d42a2f6a9cdb2137c08fa0ca0088a55",
    "verify-all": "044351be4f9e6f137a0f4b9519cbfbf9d4da224f6ce19537c85c242e6ae54709",
}


@pytest.mark.parametrize("name", sorted(_REPORT_SHA256))
def test_shipped_report_bytes_are_pinned(name, monkeypatch, capsys):
    monkeypatch.chdir(SCENARIOS.parent)
    if name == "verify-all":
        assert main(["verify-all", "--suite", "scenarios/suite.json"]) == 0
        text = capsys.readouterr().out
    else:
        text = emit_report(run_scenario(f"scenarios/{name}.json"), None)
    assert hashlib.sha256(text.encode()).hexdigest() == _REPORT_SHA256[name]
