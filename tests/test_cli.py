import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hessball
from hessball import solver
from hessball import (
    EigenResult,
    GridFunction,
    IterationStatus,
    PowerSystemSpec,
    SystemSpec,
    classify_growth,
    grid_points,
    lambda_product_check,
    make_bundle,
    rescale_to_solution,
    residual_tolerance,
    sublinearity_check,
    unit_ratio_sign,
)
from hessball.cli import (
    CSV_BLOCK_ROWS,
    ConfigError,
    ScenarioConfig,
    _write_csv,
    load_config,
    main,
    run_scenario,
)
from hessball.core import NonFiniteError
from hessball.verify import MIN_GRID_POINTS

MULT_TERMS = [[[0.1, 0.0, 0.5], [0.1, 0.0, 3.0]]] * 2
C1_TWO_TERMS = [[1.0, 0.0, 0.3], [1.0, 0.0, 0.5]]  # v^0.3 + v^0.5, regime C1
SCAN_SYSTEM = {"scenario": "existence", "N": 2, "k": [1, 1], "gamma": [2, 2]}
# the ratio-1 systems of acceptance criterion 5
CRITERION5_SYSTEMS = [
    {"N": 2, "k": [1, 1], "gamma": [1, 1]},
    {"N": 2, "k": [2, 2], "gamma": [2, 2]},
    {"N": 3, "k": [1, 2], "gamma": [2, 1]},
]


def read_records(out):
    return [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]


def implied_exit_code(records):
    """README's rule: 3 if the hypothesis record failed, else 4 if any
    record failed, else 0."""
    failed = {r["kind"] for r in records if r["pass"] is False}
    if "hypothesis" in failed:
        return 3
    return 4 if failed else 0


def stamps_judged_grid(records):
    """Every record carries run_config's grid as M, and every verification
    is judged against run_config's residual tolerance."""
    run_config = records[0]["values"]
    return all(r["M"] == run_config["grid"] for r in records) and all(
        r["tolerances"]["residual"] == run_config["residual_tolerance"]
        for r in records
        if r["kind"].startswith("verification_")
    )


@pytest.fixture(autouse=True)
def exit_code_follows_report(monkeypatch):
    """Every run in this module exits with the code its report.jsonl implies,
    and its report stamps one grid, the one it judged.

    Mismatches are collected and asserted at teardown: main turns any
    exception raised inside a run, an assertion included, into exit 4.
    """
    run_scenario = hessball.cli.run_scenario
    mismatches = []

    def compare(out, code):
        records = read_records(out)
        if code != implied_exit_code(records):
            mismatches.append((str(out), code))
        if not stamps_judged_grid(records):
            mismatches.append((str(out), "grid"))

    def checked(config, out_dir=None, quiet=False):
        out = Path(out_dir or ".")
        try:
            code = run_scenario(config, out_dir=out_dir, quiet=quiet)
        except ConfigError:
            raise  # bad input: no report, and main exits 2
        except Exception:
            compare(out, 4)  # what main exits with when the run raises
            raise
        compare(out, code)
        return code

    monkeypatch.setattr(hessball.cli, "run_scenario", checked)
    yield
    assert not mismatches, "exit code or grid differs from the report's"


# one exponent per equation with coefficients and t-weights: ratio 0.42,
# and ratio 1 with exponents (1, 2)
WEIGHTED_TERMS = [[[3, 0, 0.7], [0.2, 1, 0.7]], [[1, 0.5, 1.2], [0.5, 0, 1.2]]]
RATIO_ONE_WEIGHTED_TERMS = [[[3, 0, 1.0], [0.2, 1, 1.0]], [[1, 0.5, 2.0], [0.5, 0, 2.0]]]


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def uniqueness_config(tmp_path, **overrides):
    data = {
        "scenario": "uniqueness",
        "N": 2,
        "k": [1, 1],
        "gamma": [0.5, 0.5],
        "M": 301,
        "starts": 3,
        "points": 16,
        "seed": 4,
    }
    data.update(overrides)
    return write_config(tmp_path, "uniq.json", data)


def multiplicity_config(tmp_path):
    data = {"scenario": "multiplicity", "N": 2, "k": [1, 1], "terms": MULT_TERMS,
            "M": 301, "r0": 1.0}
    return write_config(tmp_path, "mult.json", data)


class TestLoadConfig:
    def test_power_system(self, tmp_path):
        cfg = load_config(uniqueness_config(tmp_path))
        assert cfg.spec == PowerSystemSpec(2, (1, 1), (0.5, 0.5))
        assert cfg.spec.gamma == (0.5, 0.5)
        assert cfg.M == 301 and cfg.starts == 3 and cfg.seed == 4

    def test_terms_system(self, tmp_path):
        path = write_config(
            tmp_path,
            "t.json",
            {"scenario": "existence", "N": 2, "k": [1, 1], "terms": MULT_TERMS},
        )
        cfg = load_config(path)
        assert isinstance(cfg.spec, SystemSpec)
        assert cfg.spec.f[0].terms == ((0.1, 0.0, 0.5), (0.1, 0.0, 3.0))

    def test_unknown_keys_rejected(self, tmp_path):
        # a retired key and a misspelt one must not fall back to defaults
        path = uniqueness_config(tmp_path, damping=0.5, point=16)
        with pytest.raises(ConfigError, match="unknown config keys: damping, point"):
            load_config(path)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2

    def test_lambda_table(self, tmp_path):
        path = write_config(
            tmp_path,
            "l.json",
            {
                "scenario": "eigenvalue",
                "N": 2,
                "k": [1, 1],
                "gamma": [1, 1],
                "lambda": [[33.4, 1.0], [1.0, 33.4]],
            },
        )
        assert load_config(path).lambdas == ((33.4, 1.0), (1.0, 33.4))

    @pytest.mark.parametrize(
        "broken",
        [
            {},
            {"scenario": "levitation", "N": 2, "k": [1, 1], "gamma": [1, 1]},
            {"scenario": "existence", "N": 2, "k": [1, 1]},
            {
                "scenario": "existence",
                "N": 2,
                "k": [1, 1],
                "gamma": [1, 1],
                "terms": MULT_TERMS,
            },
            {"scenario": "existence", "k": [1, 1], "gamma": [1, 1]},
            {"scenario": "existence", "N": 2, "k": [1, 1], "gamma": [1, 1], "M": 5},
            {
                "scenario": "existence",
                "N": 2,
                "k": [1, 1],
                "gamma": [1, 1],
                "tol": -1.0,
            },
            {
                "scenario": "existence",
                "N": 2,
                "k": [1, 1],
                "gamma": [1, 1],
                "starts": 0,
            },
            {
                "scenario": "existence",
                "N": 2,
                "k": [1, 1],
                "gamma": [1, 1],
                "lambda": [["many", 1.0]],
            },
            {"scenario": "multiplicity", "N": 2, "k": [1, 1], "terms": MULT_TERMS},
            {"scenario": "verify", "N": 2, "k": [1, 1], "gamma": [0.5, 0.5]},
            {**SCAN_SYSTEM, "r_min": 2.0, "r_max": 1.0},
            {**SCAN_SYSTEM, "r_min": 1.0, "r_max": 1.0},
            {**SCAN_SYSTEM, "r_min": 0.0},
            {**SCAN_SYSTEM, "r_min": -1e-3},
            {**SCAN_SYSTEM, "r_max": 1e400},  # parses to inf
            {**SCAN_SYSTEM, "r_min": math.nan},
            {**SCAN_SYSTEM, "points": 7},
            {**SCAN_SYSTEM, "k": [1.5, 1]},
            {**SCAN_SYSTEM, "k": [True, 1]},
            {**SCAN_SYSTEM, "M": 100.7},
            {**SCAN_SYSTEM, "starts": True},
            {**SCAN_SYSTEM, "points": 16.5},
            {**SCAN_SYSTEM, "starts": 2.5},
            {**SCAN_SYSTEM, "seed": 1.5},
            {**SCAN_SYSTEM, "seed": -1},
            {**SCAN_SYSTEM, "M": "301"},
            {**SCAN_SYSTEM, "tol": 1e400},  # parses to inf
            {**SCAN_SYSTEM, "tol": math.nan},
            {**SCAN_SYSTEM, "seed": False},
            {"scenario": "multiplicity", "N": 2, "k": [1, 1], "terms": MULT_TERMS,
             "r0": -1.0},
            {"scenario": "multiplicity", "N": 2, "k": [1, 1], "terms": MULT_TERMS,
             "R0": 1e400},
            {**SCAN_SYSTEM, "gamma": [True, 2]},
            {**SCAN_SYSTEM, "gamma": ["2", 2]},
            {**SCAN_SYSTEM, "M": 10**400},
            {"scenario": "existence", "N": 2, "k": [1, 1],
             "terms": [[[1, 0, 0.5]], [[1, 0, "0.5"]]]},
            {"scenario": "eigenvalue", "N": 2, "k": [1, 1], "gamma": [1, 1],
             "lambda": [[True, 1.0]]},
            {"scenario": "eigenvalue", "N": 2, "k": [1, 1], "gamma": [1, 1],
             "lambda": [[33.4452, 1.0], [1.0]]},
            {"scenario": "eigenvalue", "N": 2, "k": [1, 1], "gamma": [1, 1],
             "lambda": [[1.0, 1.0, 1.0]]},
            {"scenario": "eigenvalue", "N": 2, "k": [1, 1], "gamma": [1, 1],
             "lambda": [[0.0, 1.0]]},
            {"scenario": "eigenvalue", "N": 2, "k": [1, 1], "gamma": [1, 1],
             "lambda": [[1.0, -33.4]]},
        ],
        ids=[
            "no-scenario",
            "unknown-scenario",
            "no-system",
            "gamma-and-terms",
            "missing-N",
            "tiny-grid",
            "bad-tol",
            "no-starts",
            "bad-lambda",
            "multiplicity-without-anchor",
            "verify-without-csv",
            "reversed-range",
            "empty-range",
            "zero-radius",
            "negative-radius",
            "infinite-radius",
            "nan-radius",
            "few-points",
            "fractional-k",
            "boolean-k",
            "fractional-grid",
            "boolean-starts",
            "fractional-points",
            "fractional-starts",
            "fractional-seed",
            "negative-seed",
            "string-grid",
            "infinite-tol",
            "nan-tol",
            "boolean-seed",
            "negative-r0",
            "infinite-R0",
            "boolean-gamma",
            "string-gamma",
            "huge-grid",
            "string-term",
            "boolean-lambda",
            "short-lambda",
            "long-lambda",
            "zero-lambda",
            "negative-lambda",
        ],
    )
    def test_rejected_configs(self, tmp_path, broken):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "bad.json", broken))

    def test_unread_scan_fields_are_not_range_checked(self, tmp_path):
        # uniqueness never scans, so a scan range it cannot use is no error
        path = uniqueness_config(tmp_path, points=4, r_min=2.0, r_max=1.0)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0

    def test_scan_fields_are_range_checked_where_a_scan_runs(self, tmp_path, capsys):
        data = {"scenario": "multiplicity", "N": 2, "k": [1, 1], "terms": MULT_TERMS,
                "M": 301, "r0": 1.0, "points": 4}
        path = write_config(tmp_path, "m.json", data)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "need at least 8 scan points" in capsys.readouterr().err

    def test_integral_floats_are_integers(self, tmp_path):
        cfg = load_config(uniqueness_config(tmp_path, N=2.0, k=[1.0, 1], M=301.0))
        assert cfg.spec == PowerSystemSpec(2, (1, 1), (0.5, 0.5))
        assert cfg.M == 301 and isinstance(cfg.M, int)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"))


class TestScenarioConfigApi:
    """A config built in Python meets the checks a config file meets."""

    SPEC = PowerSystemSpec(2, (1, 1), (0.5, 0.5))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("M", 301.5),
            ("seed", 1.5),
            ("tol", math.nan),
            ("r0", math.inf),
            ("starts", True),
            ("points", "16"),
            ("r_max", None),
            ("M", 10**400),
            ("lambdas", ((math.nan, 1.0),)),
            ("lambdas", (1.0, 2.0)),
            ("lambdas", ((1.0,),)),
            ("lambdas", ((),)),
            ("lambdas", ((1.0, 0.0),)),
            ("lambdas", ((-1.0, 2.0),)),
        ],
        ids=[
            "fractional-grid",
            "fractional-seed",
            "nan-tol",
            "infinite-r0",
            "boolean-starts",
            "string-points",
            "missing-r_max",
            "huge-grid",
            "nan-lambda",
            "flat-lambda",
            "short-lambda",
            "empty-lambda",
            "zero-lambda",
            "negative-lambda",
        ],
    )
    def test_rejected_before_any_numerics(self, tmp_path, monkeypatch, field, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match="invalid"):
            run_scenario(ScenarioConfig("existence", self.SPEC, **{field: value}))
        assert list(tmp_path.iterdir()) == []  # no report was started

    @pytest.mark.parametrize(
        "scenario, field, value",
        [("existence", "spec", {"N": 2}), ("verify", "solution_csv", 5)],
        ids=["dict-spec", "number-csv"],
    )
    def test_types_checked_before_any_numerics(
        self, tmp_path, monkeypatch, scenario, field, value
    ):
        monkeypatch.chdir(tmp_path)
        kwargs = {"spec": self.SPEC, field: value}
        with pytest.raises(ConfigError, match=f"invalid {field}"):
            run_scenario(ScenarioConfig(scenario, M=301, **kwargs))
        assert list(tmp_path.iterdir()) == []  # no report was started

    def test_integral_numbers_become_ints(self, tmp_path):
        cfg = ScenarioConfig(
            "uniqueness", self.SPEC, M=301.0, starts=np.int64(3), points=16, seed=4
        )
        assert isinstance(cfg.M, int) and isinstance(cfg.starts, int)
        assert cfg == load_config(uniqueness_config(tmp_path))


class TestExitCodes:
    def test_uniqueness_succeeds(self, tmp_path):
        code = main(
            ["run", uniqueness_config(tmp_path), "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == 0
        report = (tmp_path / "out" / "report.jsonl").read_text().splitlines()
        first = json.loads(report[0])
        assert first["kind"] == "run_config"
        kinds = {json.loads(line)["kind"] for line in report}
        assert "multi_start_agreement" in kinds
        assert "sublinearity" in kinds
        assert (tmp_path / "out" / "solution_1.csv").exists()

    def test_nonexistence_succeeds(self, tmp_path):
        path = write_config(
            tmp_path,
            "n.json",
            {
                "scenario": "nonexistence",
                "N": 2,
                "k": [1, 1],
                "gamma": [1, 1],
                "M": 301,
                "points": 16,
                "seed": 4,
            },
        )
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0

    def test_nonexistence_needs_critical_ratio(self, tmp_path):
        path = write_config(
            tmp_path,
            "n.json",
            {
                "scenario": "nonexistence",
                "N": 2,
                "k": [1, 1],
                "gamma": [0.5, 0.5],
                "M": 301,
            },
        )
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 3

    @pytest.mark.parametrize("system", CRITERION5_SYSTEMS, ids=["k11", "k22", "N3-k12"])
    def test_nonexistence_certifies_collapse_without_picard(
        self, tmp_path, monkeypatch, system
    ):
        # The contraction record's bracket end hi < 1 bounds every cone
        # start's A^n(v) by c hi^n phi, so neither Picard restarts nor a
        # norm-profile scan sample the collapse.  Three restarts ahead of
        # the certificate, recording `collapse`, feed no other record:
        # without them every other line is the same.
        data = {"scenario": "nonexistence", **system, "M": 1001, "seed": 3}
        path = write_config(tmp_path, "n.json", data)
        nonexistence = hessball.cli._scenario_nonexistence

        def restarts_first(run):
            cfg = run.config
            collapsed = sum(
                hessball.picard_solve(cfg.spec, init, tol=1e-12).status
                is IterationStatus.COLLAPSED_TO_ZERO
                for init in hessball.cli._random_cone_inits(cfg.M, 3, cfg.seed)
            )
            run.record("collapse", {"collapsed": collapsed, "starts": 3},
                       passed=collapsed == 3)
            nonexistence(run)

        with monkeypatch.context() as patch:
            patch.setitem(hessball.cli._SCENARIO_RUNNERS, "nonexistence", restarts_first)
            assert main(["run", path, "--out", str(tmp_path / "ref"), "--quiet"]) == 0
        reference = (tmp_path / "ref" / "report.jsonl").read_text().splitlines()
        assert '"collapsed": 3' in reference[1]

        def not_called(*args, **kwargs):
            raise RuntimeError("picard_solve or norm_profile_scan called")

        monkeypatch.setattr(hessball.cli, "picard_solve", not_called)
        monkeypatch.setattr(hessball.cli, "norm_profile_scan", not_called)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 0
        lines = (out / "report.jsonl").read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["run_config", "contraction"]
        assert lines == reference[:1] + reference[2:]

    @pytest.mark.parametrize(
        "scenario, terms",
        [
            ("uniqueness", WEIGHTED_TERMS),
            ("nonexistence", RATIO_ONE_WEIGHTED_TERMS),
            ("eigenvalue", RATIO_ONE_WEIGHTED_TERMS),
        ],
    )
    def test_weighted_systems_meet_the_ratio_hypotheses(
        self, tmp_path, monkeypatch, scenario, terms
    ):
        # coefficients and t-weights keep one exponent per equation, so
        # the gates read spec.gamma and neither Picard nor the scan runs
        def not_called(*args, **kwargs):
            raise RuntimeError("picard_solve or norm_profile_scan called")

        monkeypatch.setattr(hessball.cli, "picard_solve", not_called)
        monkeypatch.setattr(hessball.cli, "norm_profile_scan", not_called)
        data = {"scenario": scenario, "N": 3, "k": [1, 2], "terms": terms,
                "M": 301, "starts": 2, "seed": 1}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, "w.json", data), "--out", str(out),
                     "--quiet"]) == 0
        assert all(r["pass"] is not False for r in read_records(out))

    def test_gamma_and_terms_spellings_agree(self, tmp_path):
        # v^{1/2} written as a pure power and as one explicit term
        outs = []
        for name, system in (
            ("gamma", {"gamma": [0.5, 0.5]}),
            ("terms", {"terms": [[[1, 0, 0.5]], [[1, 0, 0.5]]]}),
        ):
            data = {
                "scenario": "uniqueness",
                "N": 2,
                "k": [1, 1],
                "M": 301,
                "starts": 3,
                "points": 16,
                "seed": 4,
                **system,
            }
            out = tmp_path / name
            path = write_config(tmp_path, f"{name}.json", data)
            assert main(["run", path, "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        for fname in ("report.jsonl", "solution_1.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @given(
        st.sampled_from([
            {"scenario": "existence", "N": 2, "k": [1, 1], "terms": [C1_TWO_TERMS] * 2},
            {"scenario": "existence", "N": 3, "k": [1, 2], "terms": WEIGHTED_TERMS},
            {"scenario": "multiplicity", "N": 2, "k": [1, 1], "terms": MULT_TERMS,
             "r0": 1.0, "r_min": 1e-4, "r_max": 1e4, "points": 48},
        ]),
        st.data(),
    )
    @settings(max_examples=12)
    def test_zero_coefficient_terms_change_no_byte(self, base, data):
        # a (0, p, q) term never contributes, whatever its p and q: a zero
        # constant (q = 0) or a second exponent changes no gate either
        padded = []
        for eq in base["terms"]:
            eq = list(eq)
            for _ in range(data.draw(st.integers(1, 2))):
                zero = [0, data.draw(st.floats(0.0, 3.0)), data.draw(st.floats(0.0, 4.0))]
                eq.insert(data.draw(st.integers(0, len(eq))), zero)
            padded.append(eq)
        outs = []
        # hypothesis rejects function-scoped fixtures such as tmp_path
        with tempfile.TemporaryDirectory() as tmp:
            for name, terms in (("plain", base["terms"]), ("padded", padded)):
                path = write_config(Path(tmp), f"{name}.json",
                                    {**base, "terms": terms, "M": 301})
                out = Path(tmp) / name
                main(["run", path, "--out", str(out), "--quiet"])
                outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1]
        assert "report.jsonl" in outs[0] and "solution_1.csv" in outs[0]

    @pytest.mark.parametrize(
        "system,expected",
        [
            ({"N": 2, "k": [1, 1], "terms": [C1_TWO_TERMS] * 2}, "picard"),
            ({"N": 2, "k": [1, 1], "gamma": [0.5, 0.5]}, "power_rescale"),
            (
                {"N": 2, "k": [1, 1], "terms": MULT_TERMS, "points": 24,
                 "r_min": 1e-4, "r_max": 1e4},
                2,
            ),
            ({"N": 3, "k": [1, 1], "gamma": [2, 2]}, "power_rescale"),
            ({"N": 2, "k": [1, 1], "terms": [[[1, 0, 2], [1, 0, 3]]] * 2}, 1),
            ({"N": 3, "k": [1, 2], "terms": WEIGHTED_TERMS}, "power_rescale"),
            # Picard read this fixed point, of norm 4.8e-129, as a collapse
            ({"N": 2, "k": [1, 1], "terms": [[[1e-6, 0, 0.9]], [[1e-6, 0, 1.0]]]},
             "power_rescale"),
        ],
        ids=["C1-picard", "C1-power-rescale", "C3-scan", "C2-power-rescale",
             "C2-scan", "C1-weighted-power-rescale", "C1-tiny-coefficient"],
    )
    def test_existence_succeeds(self, tmp_path, monkeypatch, system, expected):
        if isinstance(expected, str):
            # one exponent per equation is solved by the rescale on either
            # side of ratio 1, any other C1 system by Picard, and neither is
            # scanned
            def not_called(*args, **kwargs):
                raise RuntimeError("solver called")

            monkeypatch.setattr(hessball.cli, "norm_profile_scan", not_called)
            if expected == "power_rescale":
                monkeypatch.setattr(hessball.cli, "picard_solve", not_called)
        path = write_config(
            tmp_path, "x.json", {"scenario": "existence", "M": 301, **system}
        )
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 0
        records = {
            rec["kind"]: rec
            for rec in map(json.loads, (out / "report.jsonl").read_text().splitlines())
        }
        if isinstance(expected, str):
            other = {"picard": "power_rescale", "power_rescale": "picard"}[expected]
            assert records[expected]["pass"] is True
            assert other not in records
            assert records["verification_1"]["pass"] is True
        else:
            assert records["solutions_found"]["values"]["count"] == expected
            assert records["solutions_found"]["pass"] is True
        assert (out / "solution_1.csv").exists()

    def test_scenario_loads_no_scipy(self, tmp_path):
        # scipy is only the tests' reference, so the check needs a fresh
        # interpreter: this one has imported scipy already.
        path = write_config(
            tmp_path,
            "x.json",
            {"scenario": "existence", "N": 3, "k": [1, 1], "gamma": [2, 2],
             "M": 301, "points": 16},
        )
        script = (
            "import sys\n"
            "from hessball.cli import main\n"
            "code = main(['run', sys.argv[1], '--out', sys.argv[2], '--quiet'])\n"
            "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
        )
        src = str(Path(hessball.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run(
            [sys.executable, "-c", script, path, str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "[]"]

    def test_uniqueness_without_a_rescale_fails_its_check(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hessball.cli, "rescale_to_solution", lambda spec, eig: None)
        path = uniqueness_config(tmp_path)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 4
        report = (tmp_path / "out" / "report.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in report]
        record = next(r for r in records if r["kind"] == "power_rescale")
        assert record["pass"] is False
        assert record["values"]["c"] is None
        # with no solution to compare against, the run ends at this record
        assert records[-1] is record

    @pytest.mark.parametrize(
        "scenario, gamma, kind, steps",
        [
            ("eigenvalue", [1, 1], "eigenvalue", 6),
            ("nonexistence", [1, 1], "contraction", 6),
            ("uniqueness", [0.5, 0.5], "power_rescale", 5),
        ],
    )
    def test_unconverged_power_iteration_fails(
        self, tmp_path, monkeypatch, scenario, gamma, kind, steps
    ):
        # after `steps` steps the mixed shape iteration still moves the shape
        # by 2.9e-11 and 5.2e-12 > tol = 1e-12, and after one more it has
        # converged, while the eigenvalue bracket already passes
        data = {"scenario": scenario, "N": 2, "k": [1, 1], "gamma": gamma,
                "M": 301, "points": 16, "starts": 2, "tol": 1e-12}
        path = write_config(tmp_path, "p.json", data)
        for cap, code in ((solver.MAX_COMPOSITES, 0), (2, 4), (steps, 4)):
            monkeypatch.setattr(solver, "MAX_COMPOSITES", cap)
            out = tmp_path / f"out_{cap}"
            assert main(["run", path, "--out", str(out), "--quiet"]) == code
            lines = (out / "report.jsonl").read_text().splitlines()
            record = next(r for r in map(json.loads, lines) if r["kind"] == kind)
            converged = record["values"]["shape_delta"] <= record["tolerances"]["tol"]
            assert converged is (code == 0)
            assert record["pass"] is converged

    @pytest.mark.parametrize(
        "scenario, gamma, kind",
        [
            ("eigenvalue", [1, 1], "eigenvalue"),
            ("nonexistence", [1, 1], "contraction"),
            ("uniqueness", [0.5, 0.5], "power_rescale"),
            ("existence", [0.5, 0.5], "power_rescale"),
        ],
    )
    @pytest.mark.parametrize("failure", ["overflow", "annihilated"])
    def test_degenerate_power_iteration_fails_its_record(
        self, tmp_path, monkeypatch, scenario, gamma, kind, failure
    ):
        # the composite breaks inside the power iteration only
        power_iteration = solver.normalized_power_iteration

        def broken(spec, v1, **kwargs):
            if failure == "overflow":
                raise NonFiniteError("composite overflowed")
            return tuple(np.zeros(v1.size) for _ in range(spec.n))

        def degenerate(*args, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(solver, "apply_composite", broken)
                return power_iteration(*args, **kwargs)

        monkeypatch.setattr(hessball.cli, "normalized_power_iteration", degenerate)
        data = {"scenario": scenario, "N": 2, "k": [1, 1], "gamma": gamma,
                "M": 301, "points": 16, "starts": 2}
        out = tmp_path / "out"
        path = write_config(tmp_path, "p.json", data)
        assert main(["run", path, "--out", str(out), "--quiet"]) == 4
        records = read_records(out)
        assert "error" not in [r["kind"] for r in records]
        record = next(r for r in records if r["kind"] == kind)
        status = "diverged" if failure == "overflow" else "collapsed_to_zero"
        assert record["pass"] is False
        assert record["values"]["status"] == status
        assert record["values"]["shape_delta"] == "inf"

    def test_overflowing_scan_is_no_error(self, tmp_path):
        # v^2 + v^20 overflows at the top of the default r-range; the scan
        # reads those radii as G = inf and still brackets the root
        data = {"scenario": "existence", "N": 2, "k": [1, 1],
                "terms": [[[1, 0, 2], [1, 0, 20]]] * 2, "M": 301}
        path = write_config(tmp_path, "x.json", data)
        out = tmp_path / "out"
        main(["run", path, "--out", str(out), "--quiet"])
        lines = (out / "report.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = [r["kind"] for r in records]
        assert "error" not in kinds and kinds[-1] == "solutions_found"
        profile = records[kinds.index("norm_profile")]["values"]
        assert len(profile["roots"]) == 1
        assert profile["values"][-1] == "inf" and profile["converged"][-1] is False

    def test_norm_profile_records_inner_iterations(self, tmp_path, monkeypatch):
        # the scan's work counter: composites per coarse radius, then one
        # entry per polish point; the scan is multiplicity's only composite user
        calls = []
        composite = solver._composite

        def counted(*args):
            calls.append(args)
            return composite(*args)

        monkeypatch.setattr(solver, "_composite", counted)
        data = {"scenario": "multiplicity", "N": 2, "k": [1, 1],
                "terms": MULT_TERMS, "M": 301, "r0": 1.0,
                "r_min": 1e-4, "r_max": 1e4, "points": 48}
        path = write_config(tmp_path, "m.json", data)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        records = map(json.loads, (tmp_path / "out" / "report.jsonl").read_text().splitlines())
        profile = next(r for r in records if r["kind"] == "norm_profile")["values"]
        inner = profile["inner_iterations"]
        assert len(inner) == len(profile["radii"]) + sum(profile["polish_steps"])
        assert min(inner) >= 1 and sum(inner) == len(calls)

    def test_failed_run_keeps_its_report(self, tmp_path, monkeypatch):
        def broken_scan(*args, **kwargs):
            raise RuntimeError("scan broke")

        monkeypatch.setattr(hessball.cli, "norm_profile_scan", broken_scan)
        out = tmp_path / "out"
        path = multiplicity_config(tmp_path)
        assert main(["run", path, "--out", str(out), "--quiet"]) == 4
        lines = (out / "report.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "run_config"
        assert "thresholds" in kinds  # the records made before the scan
        error = records[-1]
        assert error["kind"] == "error" and error["pass"] is False
        assert error["values"]["type"] == "RuntimeError"
        assert error["values"]["message"] == "scan broke"
        name, line = error["values"]["location"].split(":")
        source = Path(hessball.cli.__file__).read_text().splitlines()
        assert name == "cli.py" and "norm_profile_scan(" in source[int(line) - 1]

        # a bad solution CSV is bad input, not a failed run
        path = write_config(
            tmp_path,
            "v.json",
            {"scenario": "verify", "N": 2, "k": [1, 1], "gamma": [0.5, 0.5],
             "solution_csv": str(tmp_path / "missing.csv")},
        )
        out = tmp_path / "verify_out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 2
        assert not (out / "report.jsonl").exists()

    def test_interrupted_run_writes_no_report(self, tmp_path, monkeypatch):
        def interrupted_scan(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(hessball.cli, "norm_profile_scan", interrupted_scan)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            hessball.cli.run_scenario(
                load_config(multiplicity_config(tmp_path)), out_dir=out, quiet=True
            )
        assert not (out / "report.jsonl").exists()

    def test_uniqueness_needs_sublinear_ratio(self, tmp_path):
        path = uniqueness_config(tmp_path, gamma=[1, 1])
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 3

    def test_multiplicity_succeeds(self, tmp_path):
        path = write_config(
            tmp_path,
            "m.json",
            {
                "scenario": "multiplicity",
                "N": 2,
                "k": [1, 1],
                "terms": MULT_TERMS,
                "M": 301,
                "r0": 1.0,
                "r_min": 1e-4,
                "r_max": 1e4,
                "points": 48,
            },
        )
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 0
        # the two verified roots land in separate CSVs
        assert (out / "solution_1.csv").exists()
        assert (out / "solution_2.csv").exists()

    def test_multiplicity_needs_an_anchor(self, tmp_path):
        path = write_config(
            tmp_path,
            "m.json",
            {
                "scenario": "multiplicity",
                "N": 2,
                "k": [1, 1],
                "terms": MULT_TERMS,
                "M": 301,
            },
        )
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2

    def test_multiplicity_unmet_threshold(self, tmp_path):
        path = write_config(
            tmp_path,
            "m.json",
            {
                "scenario": "multiplicity",
                "N": 2,
                "k": [1, 1],
                "terms": MULT_TERMS,
                "M": 301,
                "r0": 1e-4,
                "r_min": 1e-4,
                "r_max": 1e4,
                "points": 48,
            },
        )
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 3

    @pytest.mark.parametrize(
        "system",
        [{"gamma": [2, 2]}, {"terms": [[[1, 0, 2], [0.5, 1, 2]], [[2, 0.5, 2]]]}],
        ids=["gamma", "weighted-terms"],
    )
    def test_multiplicity_needs_mixed_exponents(self, tmp_path, monkeypatch, system):
        # one exponent per equation gives G(r) = r^rho mu along r phi, so at
        # most one solution norm: the hypothesis fails before any threshold
        def not_called(*args, **kwargs):
            raise RuntimeError("multiplicity_thresholds or norm_profile_scan called")

        monkeypatch.setattr(hessball.cli, "multiplicity_thresholds", not_called)
        monkeypatch.setattr(hessball.cli, "norm_profile_scan", not_called)
        data = {"scenario": "multiplicity", "N": 2, "k": [1, 1], **system,
                "M": 301, "r0": 1.0}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, "m.json", data), "--out", str(out),
                     "--quiet"]) == 3
        records = read_records(out)
        assert [r["kind"] for r in records] == [
            "run_config", "growth_classification", "hypothesis"]
        assert records[-1]["pass"] is False
        assert sorted(p.name for p in out.iterdir()) == ["report.jsonl"]

    def test_eigenvalue_succeeds(self, tmp_path):
        path = write_config(
            tmp_path,
            "e.json",
            {
                "scenario": "eigenvalue",
                "N": 2,
                "k": [1, 1],
                "gamma": [1, 1],
                "M": 301,
                "starts": 2,
                "lambda": [[33.4452, 1.0]],
            },
        )
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0

    def test_unmatched_lambda_row_is_a_finding(self, tmp_path):
        # whether a multiplier row admits a fixed point is the answer sought,
        # so a row that does not match leaves the run's verdict alone
        path = write_config(
            tmp_path,
            "e.json",
            {"scenario": "eigenvalue", "N": 2, "k": [1, 1], "gamma": [1, 1],
             "M": 301, "starts": 2, "lambda": [[1.0, 1.0]]},
        )
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 0
        row = next(r for r in read_records(out) if r["kind"] == "lambda_product")
        assert row["pass"] is None
        assert row["values"]["matches"] is False
        assert row["values"]["lambda"] == [1.0, 1.0]

    def test_overflowing_lambda_row_is_a_finding(self, tmp_path):
        # 1e200**2 overflows: the row reads inf and does not match, and the
        # run writes no error record
        path = write_config(
            tmp_path,
            "e.json",
            {"scenario": "eigenvalue", "N": 4, "k": [4, 1], "gamma": [2, 2],
             "M": 301, "lambda": [[1, 1e200]]},
        )
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 0
        records = read_records(out)
        assert "error" not in [r["kind"] for r in records]
        (row,) = [r for r in records if r["kind"] == "lambda_product"]
        assert row["values"]["matches"] is False
        assert row["values"]["product"] == "inf"

    def test_eigenvalue_runs_one_power_iteration(self, tmp_path, monkeypatch):
        # the bracket certifies start independence, so no extra starts run
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solver.normalized_power_iteration(*args, **kwargs)

        monkeypatch.setattr(hessball.cli, "normalized_power_iteration", counted)
        path = write_config(
            tmp_path, "e.json",
            {"scenario": "eigenvalue", "N": 2, "k": [1, 1], "gamma": [1, 1],
             "M": 301, "starts": 5},
        )
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("M", [301, 16001])
    def test_eigenvalue_record_carries_the_coarse_stage(self, tmp_path, M):
        path = write_config(
            tmp_path, "e.json",
            {"scenario": "eigenvalue", "N": 2, "k": [1, 1], "gamma": [1, 1],
             "M": M, "tol": 1e-12},
        )
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 0
        values = next(r for r in read_records(out) if r["kind"] == "eigenvalue")["values"]
        assert values["status"] == "converged"
        low, high = values["lambda0_bounds"]
        assert low <= values["lambda0"] <= high
        if M < 16001:
            assert values["coarse_iterations"] == 0
            assert values["coarse_lambda0"] is values["grid_error_estimate"] is None
            return
        assert values["coarse_iterations"] > 0
        drift = values["coarse_lambda0"] - values["lambda0"]
        assert values["grid_error_estimate"] == drift / (16.0**2 - 1.0)
        # the discretization error at 16001 nodes, relative: about 4e-9
        assert 1e-9 < values["grid_error_estimate"] / values["lambda0"] < 1e-8

    def test_wide_eigenvalue_bracket_fails(self, tmp_path):
        # at tol 1e-3 the last step moves the shape by ~1.4e-4, within tol,
        # but the bracket is ~4e-4 wide, above its 1e-6 gate
        path = write_config(
            tmp_path, "e.json",
            {"scenario": "eigenvalue", "N": 2, "k": [1, 1], "gamma": [1, 1],
             "M": 301, "tol": 1e-3},
        )
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 4
        record = next(r for r in read_records(out) if r["kind"] == "eigenvalue")
        values = record["values"]
        low, high = values["lambda0_bounds"]
        assert record["pass"] is False
        assert values["shape_delta"] <= record["tolerances"]["tol"]
        assert high - low > record["tolerances"]["bracket_rel"] * low
        assert low <= values["lambda0"] <= high

    def test_failed_sublinearity_fails_uniqueness(self, tmp_path, monkeypatch):
        check = hessball.cli.sublinearity_check
        monkeypatch.setattr(
            hessball.cli,
            "sublinearity_check",
            lambda *args: dataclasses.replace(check(*args), gain=0.0),
        )
        out = tmp_path / "out"
        assert main(["run", uniqueness_config(tmp_path), "--out", str(out), "--quiet"]) == 4
        failed = [r["kind"] for r in read_records(out) if r["pass"] is False]
        assert failed == ["sublinearity"]

    def test_unverified_extra_root_fails_existence(self, tmp_path, monkeypatch):
        # the criterion-9 (C3) scan finds two roots; one verified root is
        # enough for solutions_found, but a failed verification still fails
        verify = hessball.cli.verify_solution
        calls = []

        def second_fails(bundle):
            calls.append(bundle)
            report = verify(bundle)
            return dataclasses.replace(report, passed=len(calls) != 2)

        monkeypatch.setattr(hessball.cli, "verify_solution", second_fails)
        path = write_config(
            tmp_path,
            "x.json",
            {"scenario": "existence", "N": 2, "k": [1, 1], "terms": MULT_TERMS,
             "M": 301, "points": 24, "r_min": 1e-4, "r_max": 1e4},
        )
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 4
        records = {r["kind"]: r for r in read_records(out)}
        assert records["growth_classification"]["values"]["condition"] == "C3"
        assert records["verification_1"]["pass"] is True
        assert records["verification_2"]["pass"] is False
        assert records["solutions_found"]["pass"] is True
        assert records["solutions_found"]["values"]["count"] == 1
        assert (out / "solution_1.csv").exists()
        assert not (out / "solution_2.csv").exists()

    def test_eigenvalue_needs_critical_ratio(self, tmp_path):
        path = write_config(
            tmp_path,
            "e.json",
            {
                "scenario": "eigenvalue",
                "N": 2,
                "k": [1, 1],
                "gamma": [2, 2],
                "M": 301,
            },
        )
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 3

    def test_bounds_succeeds(self, tmp_path):
        path = write_config(
            tmp_path,
            "b.json",
            {
                "scenario": "bounds",
                "N": 3,
                "k": [2, 1],
                "gamma": [1.0, 1.5],
                "M": 301,
            },
        )
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestPowerRescaleExistence:
    """Pure-power C1 existence: one power iteration, then c = mu^{1/(1-rho)}."""

    # seed-1 benchmark system whose fixed point (norm 1.7e-14) Picard took
    # for a collapse to zero
    SYSTEM_135 = {"scenario": "existence", "N": 3, "k": [1, 2],
                  "gamma": [1.39391119007645, 1.2288555668292651], "M": 4001}

    @given(
        st.integers(2, 4),
        st.integers(1, 4),
        st.integers(1, 4),
        st.floats(0.2, 0.95),
        st.floats(0.3, 0.7),
    )
    def test_rescaled_start_is_a_fixed_point(self, N, k1, k2, ratio, split):
        # the stop is scale-free: the relative defect of c phi is shape_delta
        k = (min(k1, N), min(k2, N))
        product = ratio * k[0] * k[1]
        spec = PowerSystemSpec(N, k, (product**split, product ** (1.0 - split)))
        tol = 1e-10
        eig, bundle = hessball.cli._power_rescale(
            ScenarioConfig("existence", spec, M=301, tol=tol)
        )
        assert eig.status is IterationStatus.CONVERGED and bundle is not None
        c = eig.mu ** (1.0 / (1.0 - spec.homogeneity_ratio))
        start = c * eig.shape.values
        image = solver.apply_composite(spec, start)[0]
        assert np.array_equal(bundle.v[0].values, image)
        assert np.max(np.abs(image - start)) <= 1.1 * tol * np.max(np.abs(start))

    def run(self, tmp_path):
        path = write_config(tmp_path, "x.json", self.SYSTEM_135)
        out = tmp_path / "out"
        code = main(["run", path, "--out", str(out), "--quiet"])
        return code, {r["kind"]: r for r in read_records(out)}, out

    def test_collapsed_config_verifies(self, tmp_path):
        code, records, out = self.run(tmp_path)
        assert code == 0
        record = records["power_rescale"]
        assert record["pass"] is True and record["values"]["status"] == "converged"
        assert record["values"]["shape_delta"] <= record["tolerances"]["tol"]
        assert 0 < record["values"]["c"] < 1e-12
        assert records["verification_1"]["pass"] is True
        assert (out / "solution_1.csv").exists()

    def assert_failed_record(self, code, records, out):
        assert code == 4
        assert records["power_rescale"]["pass"] is False
        assert "error" not in records and "verification_1" not in records
        assert not (out / "solution_1.csv").exists()

    def test_no_rescale_fails_its_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hessball.cli, "rescale_to_solution", lambda spec, eig: None)
        code, records, out = self.run(tmp_path)
        self.assert_failed_record(code, records, out)
        assert records["power_rescale"]["values"]["status"] == "converged"
        assert records["power_rescale"]["values"]["c"] is None

    def test_unconverged_iteration_fails_its_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "MAX_COMPOSITES", 2)
        code, records, out = self.run(tmp_path)
        self.assert_failed_record(code, records, out)
        values = records["power_rescale"]["values"]
        assert values["status"] == "max_iter" and values["iterations"] == 2
        assert values["c"] > 0  # the rescale ran; the status alone fails the record


class TestUniquenessByRescale:
    """Uniqueness solves from 1 - t^2 and from each random start by the
    power iteration and the rescale; every start must reach one profile."""

    KINDS = ["run_config", "power_rescale", "multi_start_agreement", "sublinearity",
             "verification_1"]
    # the seed-1 system whose Picard start read its fixed point, of norm
    # 1.7e-14, as a collapse to zero
    TINY = {"scenario": "uniqueness", "N": 3, "k": [1, 2],
            "gamma": [1.39391119007645, 1.2288555668292651], "M": 1001, "seed": 1}

    @pytest.fixture(autouse=True)
    def no_picard_or_scan(self, monkeypatch):
        def not_called(*args, **kwargs):
            raise RuntimeError("picard_solve or norm_profile_scan called")

        monkeypatch.setattr(hessball.cli, "picard_solve", not_called)
        monkeypatch.setattr(hessball.cli, "norm_profile_scan", not_called)

    def run(self, tmp_path, data):
        path = write_config(tmp_path, "u.json", data)
        out = tmp_path / "out"
        return main(["run", path, "--out", str(out), "--quiet"]), read_records(out)

    def test_tiny_fixed_point_outside_the_scan_range(self, tmp_path):
        # the default range [1e-3, 1e3] holds no root at 1.7e-14, and no
        # record reads it: the rescale reaches a fixed point of any norm
        code, records = self.run(tmp_path, self.TINY)
        assert code == 0
        assert [r["kind"] for r in records] == self.KINDS
        assert [r["pass"] for r in records[1:]] == [True] * 4  # run_config: null
        c = records[1]["values"]["c"]
        assert 0 < c < 1e-12

    def test_runs_no_picard_iteration(self, tmp_path, monkeypatch):
        calls = []
        power_iteration = hessball.cli.normalized_power_iteration

        def counted(*args, **kwargs):
            calls.append(args)
            return power_iteration(*args, **kwargs)

        monkeypatch.setattr(hessball.cli, "normalized_power_iteration", counted)
        out = tmp_path / "out"
        assert main(["run", uniqueness_config(tmp_path), "--out", str(out), "--quiet"]) == 0
        records = read_records(out)
        assert [r["kind"] for r in records] == self.KINDS
        agreement = records[2]["values"]
        assert agreement["starts"] == 3 and agreement["max_rel_distance"] <= 1e-5
        assert len(calls) == 3 + 1  # the 1 - t^2 start and each random start

    def test_start_without_a_rescale_fails_agreement(self, tmp_path, monkeypatch):
        rescale = hessball.cli.rescale_to_solution
        calls = []

        def first_only(spec, eig):
            calls.append(eig)
            return rescale(spec, eig) if len(calls) == 1 else None

        monkeypatch.setattr(hessball.cli, "rescale_to_solution", first_only)
        out = tmp_path / "out"
        assert main(["run", uniqueness_config(tmp_path), "--out", str(out), "--quiet"]) == 4
        failed = [r for r in read_records(out) if r["pass"] is False]
        assert [r["kind"] for r in failed] == ["multi_start_agreement"]
        assert failed[0]["values"]["max_rel_distance"] == "inf"


class TestVerifyScenario:
    def _solved_csv(self, tmp_path):
        out = tmp_path / "solve_out"
        main(["run", uniqueness_config(tmp_path), "--out", str(out), "--quiet"])
        return out / "solution_1.csv"

    def _verify(self, tmp_path, csv, quiet=True):
        """Exit code of verifying csv with a config that has no M key."""
        path = write_config(
            tmp_path,
            "v.json",
            {
                "scenario": "verify",
                "N": 2,
                "k": [1, 1],
                "gamma": [0.5, 0.5],
                "solution_csv": str(csv),
            },
        )
        flags = ["--quiet"] if quiet else []
        return main(["run", path, "--out", str(tmp_path / "vout"), *flags])

    def _rewritten(self, tmp_path, data):
        csv = tmp_path / "rewritten.csv"
        np.savetxt(csv, data, fmt="%.17g", delimiter=",", header="t,v_1,v_2", comments="")
        return csv

    def test_round_trip(self, tmp_path):
        assert self._verify(tmp_path, self._solved_csv(tmp_path)) == 0
        records = read_records(tmp_path / "vout")
        # judged on the CSV's 301 points, not on the default M of 1001
        assert {r["M"] for r in records} == {301}
        assert records[0]["values"]["residual_tolerance"] == residual_tolerance(301)

    def test_writes_only_its_report(self, tmp_path):
        assert self._verify(tmp_path, self._solved_csv(tmp_path)) == 0
        assert [p.name for p in (tmp_path / "vout").iterdir()] == ["report.jsonl"]

    def test_moved_grid_point_rejected(self, tmp_path):
        data = np.loadtxt(self._solved_csv(tmp_path), delimiter=",", skiprows=1)
        data[200, 0] += 3e-6  # within numpy's default relative tolerance
        assert self._verify(tmp_path, self._rewritten(tmp_path, data)) == 2
        assert not (tmp_path / "vout").exists()

    def test_too_few_rows_rejected(self, tmp_path):
        t = np.linspace(0.0, 1.0, 5)
        data = np.column_stack([t, 1.0 - t * t, 1.0 - t * t])
        assert self._verify(tmp_path, self._rewritten(tmp_path, data)) == 2
        assert not (tmp_path / "vout").exists()

    def test_header_only_csv_is_one_config_error(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("t,v_1,v_2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._verify(tmp_path, csv) == 2
        assert capsys.readouterr().err == (
            f"config error: solution CSV needs at least {MIN_GRID_POINTS} rows\n"
        )
        assert not (tmp_path / "vout").exists()

    @pytest.mark.parametrize(
        "fault", ["missing", "header-only", "columns", "off-grid", "nan-grid", "off-by-2e-12"])
    def test_bad_csv_fails_before_any_output(self, tmp_path, capsys, fault):
        t = grid_points(101)
        data = np.column_stack([t, 1.0 - t * t, 1.0 - t * t])
        if fault == "missing":
            csv = tmp_path / "missing.csv"
        elif fault == "header-only":
            csv = tmp_path / "empty.csv"
            csv.write_text("t,v_1,v_2\n")
        elif fault == "columns":
            csv = self._rewritten(tmp_path, data[:, :2])
        else:
            data[50, 0] += {"off-grid": 3e-6, "nan-grid": np.nan, "off-by-2e-12": 2e-12}[fault]
            csv = self._rewritten(tmp_path, data)
        assert self._verify(tmp_path, csv, quiet=False) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: ")
        assert not (tmp_path / "vout").exists()

    def test_corrupted_profile_fails(self, tmp_path):
        data = np.loadtxt(self._solved_csv(tmp_path), delimiter=",", skiprows=1)
        data[150, 1] += 0.05
        assert self._verify(tmp_path, self._rewritten(tmp_path, data)) == 4

    def test_column_count_checked(self, tmp_path):
        csv = self._solved_csv(tmp_path)
        path = write_config(
            tmp_path,
            "v.json",
            {
                "scenario": "verify",
                "N": 3,
                "k": [1, 1, 1],
                "gamma": [0.5, 0.5, 0.5],
                "solution_csv": str(csv),
            },
        )
        assert main(["run", path, "--out", str(tmp_path / "vout"), "--quiet"]) == 2

    def test_solution_csv_required(self, tmp_path):
        path = write_config(
            tmp_path,
            "v.json",
            {"scenario": "verify", "N": 2, "k": [1, 1], "gamma": [0.5, 0.5]},
        )
        assert main(["run", path, "--out", str(tmp_path / "vout"), "--quiet"]) == 2


class TestReportOutput:
    def test_runs_are_deterministic(self, tmp_path):
        path = uniqueness_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out1), "--quiet"]) == 0
        assert main(["run", path, "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "report.jsonl").read_bytes() == (out2 / "report.jsonl").read_bytes()
        assert (out1 / "solution_1.csv").read_bytes() == (
            out2 / "solution_1.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS + 1, 9001, 2 * CSV_BLOCK_ROWS + 7,
                 3 * CSV_BLOCK_ROWS - 5],
    )
    def test_csv_bytes_match_savetxt(self, tmp_path, rows):
        values = np.array([0.0, 5e-324, 1.0 / 3.0, 1e300])
        data = np.resize(values, (rows, 3))
        data[:, 0] = np.linspace(0.0, 1.0, rows)
        header = "t,v_1,v_2"
        _write_csv(tmp_path / "fast.csv", header, list(data.T))
        np.savetxt(tmp_path / "ref.csv", data, fmt="%.17g", delimiter=",",
                   header=header, comments="")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        main(["run", uniqueness_config(tmp_path), "--out", str(tmp_path / "o"), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_progress_lines_name_each_check(self, tmp_path, capsys):
        main(["run", uniqueness_config(tmp_path), "--out", str(tmp_path / "o")])
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("multi_start_agreement: pass") for line in lines)
        assert any(line.startswith("report:") for line in lines)

    def test_run_scenario_api(self, tmp_path):
        cfg = load_config(uniqueness_config(tmp_path))
        code = hessball.cli.run_scenario(cfg, out_dir=tmp_path / "api_out", quiet=True)
        assert code == 0
        lines = (tmp_path / "api_out" / "report.jsonl").read_text().splitlines()
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"kind", "scenario", "M", "values", "tolerances", "pass"}


class TestUnitRatio:
    """Every decision on the homogeneity ratio uses one comparator."""

    @pytest.mark.parametrize(
        "eps",
        [0.0, -1e-13, 1e-13, -1e-9, 1e-9],
        ids=["1", "1-1e-13", "1+1e-13", "1-1e-9", "1+1e-9"],
    )
    def test_every_decision_agrees(self, tmp_path, eps):
        system = {"N": 2, "k": [1, 1], "gamma": [1.0, 1.0 + eps]}
        spec = PowerSystemSpec(2, (1, 1), (1.0, 1.0 + eps))
        side = unit_ratio_sign(spec.homogeneity_ratio)
        assert side == (0 if abs(eps) < 1e-12 else (1 if eps > 0 else -1))

        expected = {-1: "C1", 0: "none", 1: "C2"}[side]
        assert classify_growth(spec).condition == expected
        t = grid_points(101)
        shape = GridFunction(1.0 - t * t)
        assert sublinearity_check(spec, shape, 0.5).hypothesis_ok == (side < 0)
        # mu = 1 keeps the rescale finite for every ratio but 1
        eig = EigenResult(
            shape=shape, mu=1.0, mu_bounds=(1.0, 1.0), lambda0=1.0, shape_delta=0.0,
            iterations=0, coarse_iterations=0, coarse_lambda0=None,
            status=IterationStatus.CONVERGED, solution=make_bundle(spec, shape),
        )
        assert (rescale_to_solution(spec, eig) is None) == (side == 0)
        if side == 0:
            assert lambda_product_check(spec, (1.0, 1.0), eig).matches
        else:
            with pytest.raises(ValueError):
                lambda_product_check(spec, (1.0, 1.0), eig)

        # exit 3 exactly where the scenario's ratio hypothesis fails
        unmet = {
            "existence": side == 0,
            "uniqueness": side >= 0,
            "nonexistence": side != 0,
            "eigenvalue": side != 0,
        }
        for scenario, hypothesis_unmet in unmet.items():
            data = {"scenario": scenario, **system, "M": 301, "points": 16, "starts": 2}
            path = write_config(tmp_path, f"{scenario}.json", data)
            code = main(["run", path, "--out", str(tmp_path / scenario), "--quiet"])
            assert (code == 3) == hypothesis_unmet, scenario
            if scenario in ("nonexistence", "eigenvalue") and side == 0:
                assert code == 0, scenario
