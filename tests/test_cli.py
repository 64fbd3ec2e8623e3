import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hessball
from hessball import solver
from hessball import (
    EigenResult,
    GridFunction,
    PowerSystemSpec,
    SystemSpec,
    classify_growth,
    grid_points,
    lambda_product_check,
    make_bundle,
    rescale_to_solution,
    sublinearity_check,
    unit_ratio_sign,
)
from hessball.cli import (
    CSV_BLOCK_ROWS,
    ConfigError,
    _write_csv,
    load_config,
    main,
    run_scenario,
)

MULT_TERMS = [[[0.1, 0.0, 0.5], [0.1, 0.0, 3.0]]] * 2


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
        ],
    )
    def test_rejected_configs(self, tmp_path, broken):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "bad.json", broken))

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

    @pytest.mark.parametrize(
        "system,expected",
        [
            ({"N": 2, "k": [1, 1], "gamma": [0.5, 0.5]}, "picard"),
            (
                {"N": 2, "k": [1, 1], "terms": MULT_TERMS, "points": 24,
                 "r_min": 1e-4, "r_max": 1e4},
                2,
            ),
            ({"N": 3, "k": [1, 1], "gamma": [2, 2], "points": 16}, 1),
        ],
        ids=["C1-picard", "C3-scan", "C2-scan"],
    )
    def test_existence_succeeds(self, tmp_path, system, expected):
        path = write_config(
            tmp_path, "x.json", {"scenario": "existence", "M": 301, **system}
        )
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 0
        records = {
            rec["kind"]: rec
            for rec in map(json.loads, (out / "report.jsonl").read_text().splitlines())
        }
        if expected == "picard":
            assert records["picard"]["pass"] is True
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
        record = next(
            r for r in map(json.loads, report) if r["kind"] == "rescale_agreement"
        )
        assert record["pass"] is False
        assert record["values"]["scale"] is None
        assert record["values"]["rel_distance"] is None

    @pytest.mark.parametrize(
        "scenario, gamma, kind, steps",
        [
            ("eigenvalue", [1, 1], "eigenvalue", 6),
            ("nonexistence", [1, 1], "contraction", 6),
            ("uniqueness", [0.5, 0.5], "rescale_agreement", 5),
        ],
    )
    def test_unconverged_power_iteration_fails(
        self, tmp_path, monkeypatch, scenario, gamma, kind, steps
    ):
        # after `steps` steps the shape still moves by ~1e-9 to 7e-9 > tol,
        # while the eigenvalue spread and the rescale distance already pass
        data = {"scenario": scenario, "N": 2, "k": [1, 1], "gamma": gamma,
                "M": 301, "points": 16, "starts": 2}
        path = write_config(tmp_path, "p.json", data)
        for max_iter, code in ((solver.POWER_MAX_ITER, 0), (2, 4), (steps, 4)):
            monkeypatch.setattr(solver, "POWER_MAX_ITER", max_iter)
            out = tmp_path / f"out_{max_iter}"
            assert main(["run", path, "--out", str(out), "--quiet"]) == code
            lines = (out / "report.jsonl").read_text().splitlines()
            record = next(r for r in map(json.loads, lines) if r["kind"] == kind)
            converged = record["values"]["shape_delta"] <= record["tolerances"]["tol"]
            assert converged is (code == 0)
            assert record["pass"] is converged

    def test_overflowing_scan_is_no_error(self, tmp_path):
        # gamma = (20, 20) overflows at the top of the default r-range; the
        # scan reads those radii as G = inf and still brackets the root
        data = {"scenario": "existence", "N": 2, "k": [1, 1], "gamma": [20, 20],
                "M": 301}
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

    def test_failed_run_keeps_its_report(self, tmp_path, monkeypatch):
        def broken_scan(*args, **kwargs):
            raise RuntimeError("scan broke")

        monkeypatch.setattr(hessball.cli, "norm_profile_scan", broken_scan)
        out = tmp_path / "out"
        path = uniqueness_config(tmp_path)
        assert main(["run", path, "--out", str(out), "--quiet"]) == 4
        lines = (out / "report.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "run_config"
        assert "rescale_agreement" in kinds  # the records made before the scan
        error = records[-1]
        assert error["kind"] == "error" and error["pass"] is False
        assert error["values"]["type"] == "RuntimeError"
        assert error["values"]["message"] == "scan broke"
        name, line = error["values"]["location"].split(":")
        source = Path(hessball.cli.__file__).read_text().splitlines()
        assert name == "cli.py" and "norm_profile_scan(" in source[int(line) - 1]

        # a config error found mid-run is bad input, not a failed run
        path = write_config(
            tmp_path,
            "v.json",
            {"scenario": "verify", "N": 2, "k": [1, 1], "gamma": [0.5, 0.5],
             "solution_csv": str(tmp_path / "missing.csv")},
        )
        out = tmp_path / "verify_out"
        assert main(["run", path, "--out", str(out), "--quiet"]) == 2
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

    def test_grid_override_is_validated(self, tmp_path):
        path = uniqueness_config(tmp_path)
        code = main(["run", path, "--out", str(tmp_path / "out"), "--grid", "5"])
        assert code == 2

    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestVerifyScenario:
    def _solved_csv(self, tmp_path):
        out = tmp_path / "solve_out"
        main(["run", uniqueness_config(tmp_path), "--out", str(out), "--quiet"])
        return out / "solution_1.csv"

    def test_round_trip(self, tmp_path):
        csv = self._solved_csv(tmp_path)
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
        assert main(["run", path, "--out", str(tmp_path / "vout"), "--quiet"]) == 0

    def test_corrupted_profile_fails(self, tmp_path):
        csv = self._solved_csv(tmp_path)
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        data[150, 1] += 0.05
        tampered = tmp_path / "tampered.csv"
        np.savetxt(
            tampered, data, fmt="%.17g", delimiter=",", header="t,v_1,v_2", comments=""
        )
        path = write_config(
            tmp_path,
            "v.json",
            {
                "scenario": "verify",
                "N": 2,
                "k": [1, 1],
                "gamma": [0.5, 0.5],
                "solution_csv": str(tampered),
            },
        )
        assert main(["run", path, "--out", str(tmp_path / "vout"), "--quiet"]) == 4

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

    @pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS + 1, 9001])
    def test_csv_bytes_match_savetxt(self, tmp_path, rows):
        values = np.array([0.0, 5e-324, 1.0 / 3.0, 1e300])
        data = np.resize(values, (rows, 3))
        data[:, 0] = np.linspace(0.0, 1.0, rows)
        header = "t,v_1,v_2"
        _write_csv(tmp_path / "fast.csv", header, data)
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
        code = run_scenario(cfg, out_dir=tmp_path / "api_out", quiet=True)
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
            shape=shape, mu=1.0, lambda0=1.0, shape_delta=0.0, iterations=0,
            solution=make_bundle(spec, shape),
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
