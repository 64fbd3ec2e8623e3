"""Scenario runner: reproducible experiments over the solver toolkit.

Each scenario maps one solvability question to a fixed recipe:

* existence     -- classify growth, then solve and verify: a system with
                   one exponent per equation (spec.gamma set) by one power
                   iteration and the closed-form rescale c = mu^{1/(1-rho)},
                   other sublinear systems by Picard, and other superlinear
                   ones by norm-profile scan;
* multiplicity  -- for forcings that mix exponents, threshold chains plus
                   a scan expected to bracket two solution norms, both
                   polished and verified;
* uniqueness    -- for one exponent per equation and ratio below 1, the
                   power iteration and rescale from 1 - t^2 and from random
                   starts, which must agree, and the sublinearity report;
* nonexistence  -- for one exponent per equation and ratio 1, contraction
                   factor mu with a Collatz-Wielandt bracket below 1, which
                   proves that every cone start collapses, and its explicit
                   upper bound;
* eigenvalue    -- for one exponent per equation and ratio 1, invariant
                   shape, lambda0 in a Collatz-Wielandt bracket, and
                   multiplier-product checks;
* bounds        -- window-constant and prefactor tables plus spot checks of
                   the lower/upper operator bounds;
* verify        -- re-verification of a solution CSV produced earlier.

Every gate on homogeneity reads spec.gamma, the one exponent gamma_i > 0
shared by every term of f_i (coefficients and t-weights allowed).
No such system is scanned: its chain is rho-homogeneous on the grid, so the
scan's G(r) = ||A(r phi)|| = r^rho mu has the rescale's c as its only root.

Configuration is a single JSON file; all tolerances and ranges ride in it.
Runs are deterministic for a fixed (config, seed): the report is written as
sorted-key JSON lines with no timestamps.  The records alone decide the
exit code (_Run.exit_code); a bad config exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

from ._g17 import format_rows
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
    EigenResult,
    IterationStatus,
    _default_shape,
    lambda_product_check,
    norm_profile_scan,
    normalized_power_iteration,
    picard_solve,
    rescale_to_solution,
)
from .verify import MIN_GRID_POINTS, residual_tolerance, verify_solution

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "main", "run_scenario"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERICAL = 4

DOWNSCALE_XI = 0.5  # xi of the uniqueness scenario's sublinearity check


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
    lambdas: tuple[tuple[float, ...], ...] = ()
    solution_csv: str | None = None

    def __post_init__(self) -> None:
        """Cast the number fields and the lambda table, then check ranges.

        Integral fields accept integral floats such as 301.0 and store ints;
        every number must be finite, and booleans are not numbers.
        load_config passes its numbers here uncast, so a config file and a
        Python caller meet the same checks and the same ConfigError.  Each
        lambda row needs one positive multiplier per equation.  The scan
        range and points are range-checked only for _SCAN_SCENARIOS.
        """
        if self.scenario not in _SCENARIO_RUNNERS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if not isinstance(self.spec, SystemSpec):
            raise ConfigError(f"invalid spec: {self.spec!r} is not a SystemSpec")
        if not isinstance(self.solution_csv, (str, type(None))):
            raise ConfigError(f"invalid solution_csv: {self.solution_csv!r}")
        for name, cast in _NUMBER_FIELDS.items():
            value = getattr(self, name)
            if value is None and name in ("r0", "R0"):
                continue
            try:
                object.__setattr__(self, name, cast(value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"invalid value for {name}: {exc}") from exc
        try:
            lambdas = tuple(tuple(_real(x) for x in row) for row in self.lambdas)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid lambda table: {exc}") from exc
        object.__setattr__(self, "lambdas", lambdas)
        for row in lambdas:
            if len(row) != self.spec.n or min(row) <= 0:
                raise ConfigError(
                    f"invalid lambda row {row}: need {self.spec.n} positive entries"
                )
        if self.M < MIN_GRID_POINTS:
            raise ConfigError(f"M must be at least {MIN_GRID_POINTS}")
        if not 0 < self.tol < math.inf:
            raise ConfigError("tol must be positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.starts < 1:
            raise ConfigError("starts must be at least 1")
        if self.scenario in _SCAN_SCENARIOS:
            if not 0 < self.r_min < self.r_max < math.inf:
                raise ConfigError("need 0 < r_min < r_max, both finite")
            if self.points < 8:
                raise ConfigError("need at least 8 scan points")
        if any(a is not None and not 0 < a < math.inf for a in (self.r0, self.R0)):
            raise ConfigError("r0 and R0 must be positive and finite")
        if self.scenario == "multiplicity" and self.r0 is None and self.R0 is None:
            raise ConfigError("multiplicity scenario needs r0 or R0")
        if self.scenario == "verify" and self.solution_csv is None:
            raise ConfigError("verify scenario needs solution_csv")


def _real(value) -> float:
    """A finite real number; booleans, strings, inf and nan are errors."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _integer(value) -> int:
    """An integral number such as 3 or 3.0; 3.5 and true are errors."""
    if not _real(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _build_spec(data: dict) -> SystemSpec:
    try:
        N = _integer(data["N"])
        k = tuple(_integer(x) for x in data["k"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid or missing N/k: {exc}") from exc
    if "gamma" in data and "terms" in data:
        raise ConfigError("give either gamma (power system) or terms, not both")
    try:
        if "gamma" in data:
            return PowerSystemSpec(N, k, tuple(_real(g) for g in data["gamma"]))
        if "terms" in data:
            forcings = tuple(
                NonlinearitySpec(tuple(tuple(_real(x) for x in term) for term in eq))
                for eq in data["terms"]
            )
            return SystemSpec(N, k, forcings)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid system data: {exc}") from exc
    raise ConfigError("config needs gamma or terms")


_NUMBER_FIELDS = {  # ScenarioConfig's number fields and the cast each gets
    "M": _integer, "tol": _real, "seed": _integer, "starts": _integer,
    "r_min": _real, "r_max": _real, "points": _integer, "r0": _real, "R0": _real,
}
_KEYS = {"scenario", "N", "k", "gamma", "terms", "lambda", "solution_csv",
         *_NUMBER_FIELDS}
# the scenarios that can scan, and so the only ones whose r_min, r_max and
# points are range-checked
_SCAN_SCENARIOS = ("existence", "multiplicity")


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
    # ScenarioConfig casts and checks the numbers itself
    kwargs = {key: data[key] for key in _NUMBER_FIELDS if data.get(key) is not None}
    if data.get("solution_csv") is not None:
        kwargs["solution_csv"] = str(data["solution_csv"])
    if data.get("lambda") is not None:
        kwargs["lambdas"] = data["lambda"]
    return ScenarioConfig(scenario=str(data["scenario"]), spec=spec, **kwargs)


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


# Rows per block of the CSV writer, whose temporaries scale with it: with
# three columns format_rows peaks at 0.40 MB at 1024 rows (tracemalloc),
# 0.20 MB at 512, 0.79 MB at 2048 and 1.59 MB at 4096.  Formatting a
# 64001 x 3 solution, best of 21 (2-vCPU Xeon VM): 19 ms at 1024 rows,
# 23-26 ms at 512, 16-17 ms at 2048 and 21-22 ms at 4096.  2048 would
# double the temporaries for about a tenth of the time, which is not yet
# measured against peak_rss_mb.
CSV_BLOCK_ROWS = 1024


def _write_csv(path: Path, header: str, columns: list[np.ndarray]) -> None:
    """The bytes of np.savetxt(path, np.column_stack(columns), fmt="%.17g",
    delimiter=",", header=header, comments=""), stacked and formatted one
    block of rows at a time."""
    with path.open("wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            stop = start + CSV_BLOCK_ROWS
            fh.write(format_rows(np.column_stack([c[start:stop] for c in columns])))


def _read_solution_csv(config: ScenarioConfig) -> np.ndarray:
    """The verify scenario's solution CSV, checked; every fault is a ConfigError."""
    try:
        with warnings.catch_warnings():
            # a header-only CSV is the row-count config error below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(config.solution_csv, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read solution CSV: {exc}") from exc
    n = config.spec.n
    if len(data) < MIN_GRID_POINTS:
        raise ConfigError(f"solution CSV needs at least {MIN_GRID_POINTS} rows")
    if data.shape[1] != n + 1:
        raise ConfigError(f"solution CSV needs columns t, v_1..v_{n}")
    # a NaN or inf makes the comparison false
    if not np.abs(data[:, 0] - grid_points(len(data))).max() <= 1e-12:
        raise ConfigError("solution CSV must sample the uniform grid on [0, 1]")
    return data


class _Run:
    """Accumulates findings and solutions; writes everything at the end."""

    def __init__(self, config: ScenarioConfig, out_dir: Path, quiet: bool,
                 csv: np.ndarray | None):
        self.config = config
        self.out_dir = out_dir
        self.quiet = quiet
        self.csv = csv  # the verify scenario's input, read before the run
        # the grid judged, stamped on every record: the CSV's, else config.M
        self.grid = config.M if csv is None else len(csv)
        self.records: list[dict] = []
        self.solutions: list[SolutionBundle] = []
        self.record("run_config", {"scenario": config.scenario, "seed": config.seed,
                                   "iteration_tolerance": config.tol, "grid": self.grid,
                                   "residual_tolerance": residual_tolerance(self.grid)})

    def record(self, kind: str, values: dict, tolerances: dict | None = None,
               passed: bool | None = None) -> None:
        rec = {
            "kind": kind,
            "scenario": self.config.scenario,
            "values": _jsonable(values),
            "tolerances": _jsonable(tolerances or {}),
            "pass": passed,
        }
        self.records.append(rec)
        if not self.quiet:
            verdict = "info" if passed is None else ("pass" if passed else "FAIL")
            print(f"{kind}: {verdict}")

    def exit_code(self) -> int:
        """3 if the hypothesis record failed, else 4 if any record failed, else 0."""
        failed = {rec["kind"] for rec in self.records if rec["pass"] is False}
        if "hypothesis" in failed:
            return EXIT_HYPOTHESIS
        return EXIT_NUMERICAL if failed else EXIT_OK

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        report = self.out_dir / "report.jsonl"
        with report.open("w") as fh:
            for rec in self.records:
                fh.write(json.dumps({**rec, "M": self.grid}, sort_keys=True) + "\n")
        for idx, bundle in enumerate(self.solutions, start=1):
            path = self.out_dir / f"solution_{idx}.csv"
            columns = [grid_points(bundle.grid_size)] + [v.values for v in bundle.v]
            header = "t," + ",".join(f"v_{i+1}" for i in range(len(bundle.v)))
            _write_csv(path, header, columns)
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


def _rel_sup_distance(x: GridFunction | None, y: GridFunction | None) -> float:
    """max|x - y| over the larger sup norm; inf if either profile is missing."""
    if x is None or y is None:
        return math.inf
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


def _unmet(run: _Run, reason: str) -> None:
    run.record("hypothesis", {"reason": reason}, passed=False)


def _verify(run: _Run, bundle: SolutionBundle, label: str) -> bool:
    report = verify_solution(bundle)
    run.record(
        f"verification_{label}",
        _fields(report, omit=("residual_tol", "passed")),
        {"residual": report.residual_tol},
        report.passed,
    )
    return report.passed


def _verify_scan(run: _Run, needed: int) -> None:
    """Scan, verify every accepted root, and count the verified ones."""
    cfg = run.config
    profile = norm_profile_scan(
        cfg.spec, cfg.r_min, cfg.r_max, cfg.points, grid_size=cfg.M
    )
    run.record(
        "norm_profile",
        _fields(profile, omit=("solutions",)),
        {"r_min": cfg.r_min, "r_max": cfg.r_max, "points": cfg.points},
    )
    verified = 0
    for idx, bundle in enumerate(profile.solutions, start=1):
        if bundle is not None and _verify(run, bundle, str(idx)):
            run.solutions.append(bundle)
            verified += 1
    run.record("solutions_found", {"count": verified}, passed=verified >= needed)


def _power_rescale(
    cfg: ScenarioConfig, init: GridFunction | None = None
) -> tuple[EigenResult, SolutionBundle | None]:
    """Power iteration at cfg.tol from init (default 1 - t^2), then the
    closed-form rescale c = mu^{1/(1-rho)}, whose bundle is None at ratio 1."""
    init = GridFunction(_default_shape(cfg.M)) if init is None else init
    eig = normalized_power_iteration(cfg.spec, init, tol=cfg.tol)
    return eig, rescale_to_solution(cfg.spec, eig)


def _solve_by_rescale(run: _Run) -> SolutionBundle | None:
    """Record `power_rescale` from 1 - t^2; its bundle if the record passed.

    A system with spec.gamma set is rho-homogeneous on the grid, so c phi
    is a fixed point whose relative defect is shape_delta, on either side
    of ratio 1: no fixed point is too small or too large.
    """
    cfg = run.config
    eig, bundle = _power_rescale(cfg)
    passed = eig.status is IterationStatus.CONVERGED and bundle is not None
    run.record(
        "power_rescale",
        {"status": eig.status, "iterations": eig.iterations,
         "shape_delta": eig.shape_delta, "mu": eig.mu,
         # ||A(c phi)|| = c^rho mu = c, the sup norm of c phi
         "c": None if bundle is None else sup_norm(bundle.v[0])},
        {"tol": cfg.tol},
        passed,
    )
    return bundle if passed else None


def _scenario_existence(run: _Run) -> None:
    cfg = run.config
    condition = _growth_record(run)
    if condition == "none":
        return _unmet(run, "no growth regime matches")

    if cfg.spec.gamma is not None:
        bundle = _solve_by_rescale(run)
        if bundle is not None and _verify(run, bundle, "1"):
            run.solutions.append(bundle)
        return

    if condition == "C1":
        init = GridFunction(_default_shape(cfg.M))
        report = picard_solve(cfg.spec, init, tol=cfg.tol)
        run.record(
            "picard",
            _fields(report, omit=("solution",)),
            {"tol": cfg.tol},
            report.status is IterationStatus.CONVERGED,
        )
        if report.solution is not None and _verify(run, report.solution, "1"):
            run.solutions.append(report.solution)
        return

    _verify_scan(run, 1)


def _scenario_multiplicity(run: _Run) -> None:
    """Thresholds, then a scan that must verify two solution norms.

    A system with one exponent per equation has G(r) = r^rho mu along r phi,
    so at most one solution norm: its hypothesis fails before any threshold.
    """
    cfg = run.config
    _growth_record(run)
    if cfg.spec.gamma is not None:
        return _unmet(run, "multiplicity needs a forcing that mixes exponents")
    thresholds = multiplicity_thresholds(cfg.spec, r0=cfg.r0, R0=cfg.R0)
    run.record("thresholds", _fields(thresholds))
    satisfied = bool(thresholds.r0_condition) or bool(thresholds.R0_condition)
    if not satisfied:
        return _unmet(run, "threshold condition not met")

    _verify_scan(run, 2)


def _scenario_uniqueness(run: _Run) -> None:
    """Uniqueness for one exponent per equation and ratio below 1.

    The composite is then monotone and rho-homogeneous on the grid, with
    any coefficients and t-weights, and such a map with rho < 1 has at most
    one cone fixed point (rescale_to_solution): every start must rescale to
    the same profile, and the downscaling gain must be positive.
    """
    cfg = run.config
    spec = cfg.spec
    if spec.gamma is None or unit_ratio_sign(spec.homogeneity_ratio) >= 0:
        return _unmet(run, "uniqueness needs one exponent per equation, ratio below 1")

    bundle = _solve_by_rescale(run)
    if bundle is None:
        return

    # every fixed point is c phi for an invariant shape phi, so every start
    # must rescale to one profile; a start that fails is at distance inf
    limits = [bundle.v[0]]
    for init in _random_cone_inits(cfg.M, cfg.starts, cfg.seed):
        eig, other = _power_rescale(cfg, init)
        converged = eig.status is IterationStatus.CONVERGED and other is not None
        limits.append(other.v[0] if converged else None)
    spread = max(_rel_sup_distance(a, b) for a in limits for b in limits)
    run.record(
        "multi_start_agreement",
        {"starts": cfg.starts, "max_rel_distance": spread},
        {"rel": 1e-5},
        spread <= 1e-5,
    )

    sub = sublinearity_check(spec, bundle.v[0], DOWNSCALE_XI)
    run.record(
        "sublinearity",
        _fields(sub, omit=("hypothesis_ok",)),
        passed=sub.hypothesis_ok and sub.ratio_min > 0 and sub.gain > 0,
    )

    if _verify(run, bundle, "1"):
        run.solutions.append(bundle)


def _scenario_nonexistence(run: _Run) -> None:
    cfg = run.config
    spec = cfg.spec
    if spec.gamma is None or unit_ratio_sign(spec.homogeneity_ratio) != 0:
        return _unmet(run, "nonexistence needs one exponent per equation and ratio 1")

    eig = normalized_power_iteration(spec, GridFunction(_default_shape(cfg.M)), cfg.tol)
    bound = chain_contraction_bound(spec)
    # The composite is monotone and 1-homogeneous, so A(phi) <= hi phi off
    # t = 1 gives A^n(v) <= c hi^n phi for every cone start v <= c phi: an
    # upper end below 1 proves that every start collapses and that the
    # discrete map has no cone fixed point.
    run.record(
        "contraction",
        {**_fields(eig, omit=("shape", "solution")), "bound": bound},
        {"tol": cfg.tol},
        eig.mu_bounds[1] < 1.0 and eig.mu <= bound
        and eig.status is IterationStatus.CONVERGED,
    )


def _scenario_eigenvalue(run: _Run) -> None:
    cfg = run.config
    spec = cfg.spec
    if spec.gamma is None or unit_ratio_sign(spec.homogeneity_ratio) != 0:
        return _unmet(run, "eigenvalue needs one exponent per equation and ratio 1")

    eig = normalized_power_iteration(spec, GridFunction(_default_shape(cfg.M)), cfg.tol)
    lo, hi = eig.mu_bounds
    # the two-grid estimate is a finding: only the bracket and status gate
    run.record(
        "eigenvalue",
        {"lambda0": eig.lambda0, "lambda0_bounds": eig.lambda0_bounds, "mu": eig.mu,
         "iterations": eig.iterations, "coarse_iterations": eig.coarse_iterations,
         "coarse_lambda0": eig.coarse_lambda0,
         "grid_error_estimate": eig.grid_error_estimate,
         "shape_delta": eig.shape_delta, "status": eig.status},
        {"bracket_rel": 1e-6, "tol": cfg.tol},
        hi - lo <= 1e-6 * lo and eig.status is IterationStatus.CONVERGED,
    )

    for lam in cfg.lambdas:
        check = lambda_product_check(spec, lam, eig)
        # whether a row matches is the answer, not a check: a finding
        run.record("lambda_product", {"lambda": lam, **_fields(check)})

    if eig.solution is not None:
        run.solutions.append(eig.solution)


def _scenario_bounds(run: _Run) -> None:
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
    for i in range(1, spec.n + 1):
        fv = eval_nonlinearity(spec.f[i - 1], t, v.values)

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


def _scenario_verify(run: _Run) -> None:
    spec = run.config.spec
    try:
        profiles = tuple(GridFunction(run.csv[:, j + 1]) for j in range(spec.n))
        bundle = SolutionBundle(v=profiles, spec=spec)
    except ValueError as exc:
        run.record("bundle_invariants", {"error": str(exc)}, passed=False)
        return
    _verify(run, bundle, "1")


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

    Every ConfigError, a bad solution CSV included, is raised before the
    first record.  A scenario that then fails with an exception still
    writes its report, ending in an error record, and the exception
    propagates.
    """
    csv = _read_solution_csv(config) if config.scenario == "verify" else None
    run = _Run(config, Path(out_dir or "."), quiet, csv)
    try:
        _SCENARIO_RUNNERS[config.scenario](run)
    except Exception as exc:
        values = {"type": type(exc).__name__, "message": str(exc),
                  "location": _error_location(exc)}
        run.record("error", values, passed=False)
        run.flush()
        raise
    run.flush()
    return run.exit_code()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hessball",
        description="Radial coupled Hessian systems: solve, scan, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario from a JSON config")
    runp.add_argument("config", help="path to the JSON configuration")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)

    try:
        return run_scenario(load_config(args.config), out_dir=args.out, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # numerical failures surface here
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
