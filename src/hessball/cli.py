"""Scenario runner: reproducible experiments over the solver toolkit.

Each scenario maps one solvability question to a fixed recipe:

* existence     -- classify growth, then solve by Picard (sublinear) or by
                   norm-profile scan (superlinear) and verify the result;
* multiplicity  -- threshold chains plus a scan expected to bracket two
                   solution norms, both polished and verified;
* uniqueness    -- multi-start agreement, analytic rescaling cross-check,
                   single-bracket scan, and the sublinearity report;
* nonexistence  -- contraction factor mu, its explicit upper bound, Picard
                   collapse from several starts, and a bracket-free scan;
* eigenvalue    -- invariant shape, lambda0 spread over random starts, and
                   multiplier-product checks;
* bounds        -- window-constant and prefactor tables plus spot checks of
                   the lower/upper operator bounds;
* verify        -- re-verification of a solution CSV produced earlier.

Configuration is a single JSON file; all tolerances and ranges ride in it.
Runs are deterministic for a fixed (config, seed): the report is written as
sorted-key JSON lines with no timestamps.  Exit codes: 0 success, 2 bad
config, 3 scenario hypothesis not met, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from .analysis import (
    _window_slice,
    chain_contraction_bound,
    classify_growth,
    lower_bound_check,
    lower_bound_constant,
    multiplicity_thresholds,
    sublinearity_check,
    upper_bound_check,
    upper_bound_prefactor,
)
from .core import (
    GridFunction,
    NonlinearitySpec,
    PowerSystemSpec,
    SolutionBundle,
    SystemSpec,
    eval_nonlinearity,
    grid_points,
    sup_norm,
    unit_ratio_sign,
)
from .solver import (
    IterationStatus,
    _default_shape,
    lambda_product_check,
    norm_profile_scan,
    normalized_power_iteration,
    picard_solve,
    rescale_to_solution,
)
from .verify import residual_tolerance, verify_solution

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "main", "run_scenario"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERICAL = 4

SCENARIOS = (
    "existence",
    "multiplicity",
    "uniqueness",
    "nonexistence",
    "eigenvalue",
    "bounds",
    "verify",
)


class ConfigError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    spec: SystemSpec
    M: int = 1001
    tol: float = 1e-10
    seed: int = 0
    starts: int = 5
    r_min: float = 1e-3
    r_max: float = 1e3
    points: int = 32
    r0: float | None = None
    R0: float | None = None
    xi: float = 0.5
    lambdas: tuple[tuple[float, ...], ...] = ()
    solution_csv: str | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.M < 7:
            raise ConfigError("M must be at least 7")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.starts < 1:
            raise ConfigError("starts must be at least 1")
        if self.scenario == "multiplicity" and self.r0 is None and self.R0 is None:
            raise ConfigError("multiplicity scenario needs r0 or R0")
        if self.scenario == "verify" and self.solution_csv is None:
            raise ConfigError("verify scenario needs solution_csv")


def _build_spec(data: dict) -> SystemSpec:
    try:
        N = int(data["N"])
        k = tuple(int(x) for x in data["k"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid or missing N/k: {exc}") from exc
    if "gamma" in data and "terms" in data:
        raise ConfigError("give either gamma (power system) or terms, not both")
    try:
        if "gamma" in data:
            return PowerSystemSpec(N, k, tuple(float(g) for g in data["gamma"]))
        if "terms" in data:
            forcings = tuple(
                NonlinearitySpec(tuple(tuple(float(x) for x in term) for term in eq))
                for eq in data["terms"]
            )
            return SystemSpec(N, k, forcings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid system data: {exc}") from exc
    raise ConfigError("config needs gamma or terms")


_CASTERS = {  # optional keys and the type each is cast to
    "M": int, "tol": float, "seed": int, "starts": int, "r_min": float,
    "r_max": float, "points": int, "r0": float, "R0": float, "xi": float,
    "solution_csv": str, "out_dir": str,
}
_KEYS = {"scenario", "N", "k", "gamma", "terms", "lambda", *_CASTERS}


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a JSON scenario configuration; unread keys are errors."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - _KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "scenario" not in data:
        raise ConfigError("config needs a scenario")

    spec = _build_spec(data)
    kwargs = {}
    for key, caster in _CASTERS.items():
        if key in data and data[key] is not None:
            try:
                kwargs[key] = caster(data[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid value for {key}: {exc}") from exc
    if "lambda" in data and data["lambda"] is not None:
        try:
            kwargs["lambdas"] = tuple(
                tuple(float(x) for x in row) for row in data["lambda"]
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid lambda table: {exc}") from exc
    try:
        return ScenarioConfig(scenario=str(data["scenario"]), spec=spec, **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


# Rows per % operation of the CSV writer.  A whole 64001-row solution at
# once would hold about 10 MB of Python floats; 1024-row blocks peak near
# 0.2 MB (4096-row blocks near 0.75 MB) and write a 64001 x 3 array as
# fast as larger blocks do.
CSV_BLOCK_ROWS = 1024


def _write_csv(path: Path, header: str, data: np.ndarray) -> None:
    """The bytes of np.savetxt(path, data, fmt="%.17g", delimiter=",",
    header=header, comments=""), from one row template per block of rows."""
    rows, cols = data.shape
    row = ",".join(["%.17g"] * cols) + "\n"
    with path.open("w") as fh:
        fh.write(header + "\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            block = data[start : start + CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


class _Run:
    """Accumulates findings and solutions; writes everything at the end."""

    def __init__(self, config: ScenarioConfig, out_dir: Path, quiet: bool):
        self.config = config
        self.out_dir = out_dir
        self.quiet = quiet
        self.records: list[dict] = []
        self.solutions: list[SolutionBundle] = []

    def record(self, kind: str, values: dict, tolerances: dict | None = None,
               passed: bool | None = None) -> None:
        rec = {
            "kind": kind,
            "scenario": self.config.scenario,
            "M": self.config.M,
            "values": _jsonable(values),
            "tolerances": _jsonable(tolerances or {}),
            "pass": passed,
        }
        self.records.append(rec)
        if not self.quiet:
            verdict = "info" if passed is None else ("pass" if passed else "FAIL")
            print(f"{kind}: {verdict}")

    def add_solution(self, bundle: SolutionBundle) -> None:
        self.solutions.append(bundle)

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        report = self.out_dir / "report.jsonl"
        with report.open("w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for idx, bundle in enumerate(self.solutions, start=1):
            path = self.out_dir / f"solution_{idx}.csv"
            t = grid_points(bundle.grid_size)
            cols = [t] + [v.values for v in bundle.v]
            header = "t," + ",".join(f"v_{i+1}" for i in range(len(bundle.v)))
            _write_csv(path, header, np.column_stack(cols))
        if not self.quiet:
            print(f"report: {report}")


def _random_cone_inits(M: int, count: int, seed: int) -> list[GridFunction]:
    """Deterministic cone starts: positive mixtures of 1-t^2 and 1-t."""
    rng = np.random.default_rng(seed)
    t = grid_points(M)
    out = []
    for _ in range(count):
        a, b = rng.uniform(0.2, 2.0, size=2)
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        out.append(GridFunction(scale * (a * (1.0 - t * t) + b * (1.0 - t))))
    return out


def _rel_sup_distance(x: GridFunction, y: GridFunction) -> float:
    denom = max(sup_norm(x), sup_norm(y), 1e-300)
    return float(np.max(np.abs(x.values - y.values))) / denom


def _fields(obj, omit: tuple[str, ...] = ()) -> dict:
    """Record values from a dataclass: every field except those in omit.

    Shallow on purpose: dataclasses.asdict would deep-copy every bundle
    held in an omitted field.
    """
    return {
        f.name: getattr(obj, f.name)
        for f in dataclasses.fields(obj)
        if f.name not in omit
    }


def _growth_record(run: _Run) -> str:
    growth = classify_growth(run.config.spec)
    run.record("growth_classification", _fields(growth))
    return growth.condition


def _unmet(run: _Run, reason: str) -> int:
    run.record("hypothesis", {"reason": reason}, passed=False)
    return EXIT_HYPOTHESIS


def _verify_and_store(run: _Run, bundle: SolutionBundle, label: str) -> bool:
    report = verify_solution(bundle)
    run.record(
        f"verification_{label}",
        _fields(report, omit=("residual_tol", "passed")),
        {"residual": report.residual_tol},
        report.passed,
    )
    if report.passed:
        run.add_solution(bundle)
    return report.passed


def _scan(run: _Run):
    cfg = run.config
    profile = norm_profile_scan(
        cfg.spec, cfg.r_min, cfg.r_max, cfg.points, grid_size=cfg.M
    )
    run.record(
        "norm_profile",
        _fields(profile, omit=("solutions",)),
        {"r_min": cfg.r_min, "r_max": cfg.r_max, "points": cfg.points},
    )
    return profile


def _verify_scan(run: _Run, needed: int) -> int:
    """Scan, verify every accepted root, and pass when at least needed verify."""
    profile = _scan(run)
    verified = 0
    for idx, bundle in enumerate(profile.solutions, start=1):
        if bundle is not None and _verify_and_store(run, bundle, str(idx)):
            verified += 1
    run.record("solutions_found", {"count": verified}, passed=verified >= needed)
    return EXIT_OK if verified >= needed else EXIT_NUMERICAL


def _scenario_existence(run: _Run) -> int:
    cfg = run.config
    condition = _growth_record(run)
    if condition == "none":
        return _unmet(run, "no growth regime matches")

    if condition == "C1":
        init = GridFunction(_default_shape(cfg.M))
        report = picard_solve(cfg.spec, init, tol=cfg.tol)
        run.record(
            "picard",
            _fields(report, omit=("norm_history", "solution")),
            {"tol": cfg.tol},
            report.status is IterationStatus.CONVERGED,
        )
        if report.solution is None:
            return EXIT_NUMERICAL
        return EXIT_OK if _verify_and_store(run, report.solution, "1") else EXIT_NUMERICAL

    return _verify_scan(run, 1)


def _scenario_multiplicity(run: _Run) -> int:
    cfg = run.config
    _growth_record(run)
    thresholds = multiplicity_thresholds(cfg.spec, r0=cfg.r0, R0=cfg.R0)
    run.record("thresholds", _fields(thresholds))
    satisfied = bool(thresholds.r0_condition) or bool(thresholds.R0_condition)
    if not satisfied:
        return _unmet(run, "threshold condition not met")

    return _verify_scan(run, 2)


def _scenario_uniqueness(run: _Run) -> int:
    cfg = run.config
    spec = cfg.spec
    if spec.gamma is None or unit_ratio_sign(spec.homogeneity_ratio) >= 0:
        return _unmet(run, "uniqueness needs a power system with ratio below 1")

    solutions = []
    for init in _random_cone_inits(cfg.M, cfg.starts, cfg.seed):
        report = picard_solve(spec, init, tol=cfg.tol)
        if report.status is not IterationStatus.CONVERGED:
            run.record(
                "picard", {"status": report.status}, {"tol": cfg.tol}, False
            )
            return EXIT_NUMERICAL
        solutions.append(report.solution)
    limits = [bundle.v[0] for bundle in solutions]
    spread = max(_rel_sup_distance(a, b) for a in limits for b in limits)
    run.record(
        "multi_start_agreement",
        {"starts": cfg.starts, "max_rel_distance": spread},
        {"rel": 1e-5},
        spread <= 1e-5,
    )

    init = GridFunction(_default_shape(cfg.M))
    eig = normalized_power_iteration(spec, init, tol=cfg.tol)
    rescaled = rescale_to_solution(spec, eig)
    scale = rescale_dist = None
    if rescaled is not None:
        scale = sup_norm(rescaled.v[0])
        rescale_dist = _rel_sup_distance(rescaled.v[0], limits[0])
    rescale_ok = (rescale_dist is not None and rescale_dist <= 1e-5
                  and eig.shape_delta <= cfg.tol)
    run.record(
        "rescale_agreement",
        {"mu": eig.mu, "scale": scale, "rel_distance": rescale_dist,
         "shape_delta": eig.shape_delta},
        {"rel": 1e-5, "tol": cfg.tol},
        rescale_ok,
    )

    profile = _scan(run)
    single = len(profile.sign_changes) == 1
    run.record(
        "bracket_count", {"count": len(profile.sign_changes)}, {"expected": 1}, single
    )

    sub = sublinearity_check(spec, limits[0], cfg.xi)
    run.record(
        "sublinearity",
        _fields(sub, omit=("hypothesis_ok",)),
        passed=sub.hypothesis_ok and sub.ratio_min > 0 and sub.gain > 0,
    )

    ok = _verify_and_store(run, solutions[0], "1")
    agreed = spread <= 1e-5 and rescale_ok and single
    return EXIT_OK if (ok and agreed) else EXIT_NUMERICAL


def _scenario_nonexistence(run: _Run) -> int:
    cfg = run.config
    spec = cfg.spec
    if spec.gamma is None or unit_ratio_sign(spec.homogeneity_ratio) != 0:
        return _unmet(run, "nonexistence needs a power system with ratio exactly 1")

    init = GridFunction(_default_shape(cfg.M))
    eig = normalized_power_iteration(spec, init, tol=cfg.tol)
    bound = chain_contraction_bound(spec)
    contraction_ok = eig.mu < 1.0 and eig.mu <= bound and eig.shape_delta <= cfg.tol
    run.record(
        "contraction",
        {"mu": eig.mu, "bound": bound, "lambda0": eig.lambda0,
         "shape_delta": eig.shape_delta},
        {"tol": cfg.tol},
        contraction_ok,
    )

    collapsed = 0
    for init in _random_cone_inits(cfg.M, 3, cfg.seed):
        report = picard_solve(spec, init, tol=1e-12)
        if report.status is IterationStatus.COLLAPSED_TO_ZERO:
            collapsed += 1
    run.record("collapse", {"collapsed": collapsed, "starts": 3}, passed=collapsed == 3)

    profile = _scan(run)
    empty = len(profile.sign_changes) == 0
    run.record(
        "bracket_count", {"count": len(profile.sign_changes)}, {"expected": 0}, empty
    )
    ok = contraction_ok and collapsed == 3 and empty
    return EXIT_OK if ok else EXIT_NUMERICAL


def _scenario_eigenvalue(run: _Run) -> int:
    cfg = run.config
    spec = cfg.spec
    if spec.gamma is None or unit_ratio_sign(spec.homogeneity_ratio) != 0:
        return _unmet(
            run, "eigenvalue scenario needs a power system with ratio exactly 1"
        )

    # random starts first, so eig.solution is not held while they run
    values = [normalized_power_iteration(spec, init, tol=cfg.tol).lambda0
              for init in _random_cone_inits(cfg.M, cfg.starts, cfg.seed)]
    init = GridFunction(_default_shape(cfg.M))
    eig = normalized_power_iteration(spec, init, tol=cfg.tol)
    values.append(eig.lambda0)
    spread = (max(values) - min(values)) / min(values)
    all_ok = spread <= 1e-6 and eig.shape_delta <= cfg.tol
    run.record(
        "eigenvalue",
        {
            "lambda0": eig.lambda0,
            "mu": eig.mu,
            "iterations": eig.iterations,
            "shape_delta": eig.shape_delta,
            "spread": spread,
            "starts": cfg.starts + 1,
        },
        {"spread_rel": 1e-6, "tol": cfg.tol},
        all_ok,
    )

    for lam in cfg.lambdas:
        try:
            check = lambda_product_check(spec, lam, eig)
        except ValueError as exc:
            raise ConfigError(f"bad lambda row {lam}: {exc}") from exc
        run.record(
            "lambda_product",
            {"lambda": lam, **_fields(check, omit=("matches",))},
            passed=check.matches,
        )

    run.add_solution(eig.solution)
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def _scenario_bounds(run: _Run) -> int:
    cfg = run.config
    spec = cfg.spec
    N = spec.N
    run.record(
        "window_constants",
        {
            "N": N,
            "k": list(range(1, N + 1)),
            "values": [lower_bound_constant(k, N) for k in range(1, N + 1)],
        },
    )
    prefactors = [upper_bound_prefactor(k, N) for k in range(1, N + 1)]
    run.record(
        "prefactors",
        {"N": N, "k": list(range(1, N + 1)), "values": prefactors},
        passed=all(p < 1 for p in prefactors),
    )

    v = GridFunction(_default_shape(cfg.M))
    t = grid_points(cfg.M)
    window = _window_slice(t)
    growth = classify_growth(spec)
    all_ok = True
    for i in range(1, spec.n + 1):
        f = spec.f[i - 1]
        fv = np.asarray(eval_nonlinearity(f, t, v.values), dtype=float)

        m = growth.alpha[i - 1]
        eta = float(np.min(fv[window] / v.values[window] ** m)) * (1.0 - 1e-12)
        low = lower_bound_check(spec, i, v, eta, m)
        run.record(
            f"lower_bound_eq{i}",
            {"eta": eta, "m": m, **_fields(low, omit=("bound_holds",))},
            passed=bool(low) if low.hypothesis_ok else None,
        )

        d = growth.beta[i - 1]
        positive = v.values > 0
        eps = float(np.max(fv[positive] / v.values[positive] ** d)) * (1.0 + 1e-12)
        up = upper_bound_check(spec, i, v, eps, d)
        run.record(
            f"upper_bound_eq{i}",
            {"eps": eps, "d": d, **_fields(up, omit=("bound_holds",))},
            passed=bool(up) if up.hypothesis_ok else None,
        )
        if low.hypothesis_ok and not low.bound_holds:
            all_ok = False
        if up.hypothesis_ok and not up.bound_holds:
            all_ok = False
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def _scenario_verify(run: _Run) -> int:
    cfg = run.config
    try:
        data = np.loadtxt(cfg.solution_csv, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read solution CSV: {exc}") from exc
    spec = cfg.spec
    if data.ndim != 2 or data.shape[1] != spec.n + 1:
        raise ConfigError(f"solution CSV needs columns t, v_1..v_{spec.n}")
    t = data[:, 0]
    M = t.size
    if not np.allclose(t, grid_points(M), atol=1e-12):
        raise ConfigError("solution CSV must sample the uniform grid on [0, 1]")

    try:
        profiles = tuple(GridFunction(data[:, j + 1]) for j in range(spec.n))
        bundle = SolutionBundle(v=profiles, spec=spec)
    except ValueError as exc:
        run.record("bundle_invariants", {"error": str(exc)}, passed=False)
        return EXIT_NUMERICAL
    ok = _verify_and_store(run, bundle, "1")
    return EXIT_OK if ok else EXIT_NUMERICAL


_SCENARIO_RUNNERS = {
    "existence": _scenario_existence,
    "multiplicity": _scenario_multiplicity,
    "uniqueness": _scenario_uniqueness,
    "nonexistence": _scenario_nonexistence,
    "eigenvalue": _scenario_eigenvalue,
    "bounds": _scenario_bounds,
    "verify": _scenario_verify,
}


def _error_location(exc: BaseException) -> str:
    """file:line of the innermost traceback frame inside this package."""
    frames = traceback.extract_tb(exc.__traceback__)
    package = Path(__file__).parent
    frame = [f for f in frames if Path(f.filename).parent == package][-1]
    return f"{Path(frame.filename).name}:{frame.lineno}"


def run_scenario(
    config: ScenarioConfig, out_dir: str | Path | None = None, quiet: bool = False
) -> int:
    """Execute one scenario; write report.jsonl and solution CSVs; return exit code.

    A scenario that fails with an exception other than ConfigError still
    writes its report, ending in an error record, and the exception
    propagates.
    """
    target = Path(out_dir or config.out_dir or ".")
    run = _Run(config, target, quiet)
    run.record(
        "run_config",
        {
            "scenario": config.scenario,
            "grid": config.M,
            "seed": config.seed,
            "residual_tolerance": residual_tolerance(config.M),
            "iteration_tolerance": config.tol,
        },
    )
    try:
        code = _SCENARIO_RUNNERS[config.scenario](run)
    except ConfigError:
        raise  # invalid input, not a failed run: stderr names the fault
    except Exception as exc:
        values = {"type": type(exc).__name__, "message": str(exc),
                  "location": _error_location(exc)}
        run.record("error", values, passed=False)
        run.flush()
        raise
    run.flush()
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hessball",
        description="Radial coupled Hessian systems: solve, scan, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario from a JSON config")
    runp.add_argument("config", help="path to the JSON configuration")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--grid", type=int, default=None, help="override grid size M")
    runp.add_argument("--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.grid is not None:
            config = dataclasses.replace(config, M=args.grid)
        return run_scenario(config, out_dir=args.out, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # numerical failures surface here
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
