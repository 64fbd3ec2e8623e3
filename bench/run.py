"""hessball benchmark: closed-loop scenario runs, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

One in-process caller runs the workload's configs in a fixed cycle through
``hessball.cli.load_config`` and ``run_scenario`` (what ``hessball run``
does), checks each outcome, and starts the next run only after the last
one ended.  BLAS and OpenMP use one thread.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced run with ``--trace 1``.  Timings are scaled to a nominal host
speed measured by a probe next to every timed interval.  See NOTES.md for
what each metric and workload measures.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4  # extra set-ups in child processes, for a median of five
MIN_SAMPLES = 21  # the tail percentile needs 10 samples beyond it, p50 too
TAIL_BEYOND = 10
# The speed probe: a fixed pure-Python loop, timed next to every timed
# interval.  Times are reported scaled to a host on which it takes
# PROBE_NOMINAL_NS, about its time on a 2-vCPU Xeon virtual machine when
# that host is not slowed by its neighbours.
PROBE_LOOPS = 14000
PROBE_NOMINAL_NS = 1_000_000


def probe_ns() -> int:
    """Time of one speed probe, in ns: how fast the host runs right now."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter_ns() - start


def scaled(seconds: float, probe_before: int, probe_after: int) -> float:
    """`seconds` as it would read on the nominal host."""
    return seconds * PROBE_NOMINAL_NS * 2 / (probe_before + probe_after)


@dataclass
class Outcome:
    case: str
    seconds: float  # wall time
    scaled_seconds: float  # wall time scaled to the nominal host speed
    probe_ns: int  # speed probe right after the run
    reasons: tuple[str, ...]  # why the run failed; empty when it passed
    unexpected: bool  # failed for a reason its config does not list as known
    bytes_read: int
    bytes_written: int


def load_program(root: Path):
    """Import hessball.cli from the checkout's src/ (never an installed copy)."""
    src = root / "src"
    if not (src / "hessball" / "__init__.py").is_file():
        sys.exit(f"error: {src}/hessball not found; run from a hessball checkout")
    sys.path.insert(0, str(src))
    import hessball.cli

    return hessball.cli


class Harness:
    """Owns one workload's configs, output directories and output digests."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.cases = workloads.WORKLOADS[workload](seed)
        self.work = work
        self.digests: dict[str, str] = {}
        self.mismatches: list[str] = []
        self.position = 0  # index into the cycle of the next config to run
        self.runs = 0
        self.probe = probe_ns()  # the latest speed probe
        self.prepared: set[str] = set()

    def _out(self, name: str) -> Path:
        return self.work / name / "out"

    def _config(self, name: str) -> Path:
        return self.work / name / "config.json"

    def _prepare(self, case: workloads.Case) -> None:
        """Writes the config file and makes the output directory of a case.

        This happens before the case first runs, not in set-up: creating a
        directory took about 1 ms on an ext4 virtual disk, varying with its
        load, and solve_verify has 512 configs.
        """
        config = dict(case.config)
        if case.solution_from:
            config["solution_csv"] = str(self._out(case.solution_from) / "solution_1.csv")
        self._out(case.name).mkdir(parents=True)
        self._config(case.name).write_text(json.dumps(config))
        self.prepared.add(case.name)

    def run(self, case: workloads.Case) -> Outcome:
        if case.name not in self.prepared:
            self._prepare(case)
        out = self._out(case.name)
        for stale in out.iterdir():
            stale.unlink()
        source = self._config(case.name)
        solution = self._out(case.solution_from) / "solution_1.csv" if case.solution_from else None
        input_missing = solution is not None and not solution.is_file()

        probe_before = self.probe
        start = time.perf_counter()
        try:
            code = self.cli.run_scenario(self.cli.load_config(source), out_dir=out, quiet=True)
        except self.cli.ConfigError:
            code = 2  # what `hessball run` exits with
        seconds = time.perf_counter() - start
        self.probe = probe_ns()

        written = sorted(out.iterdir())
        hasher = hashlib.sha256()
        for path in written:
            hasher.update(path.name.encode() + b"\0" + path.read_bytes())
        digest = hasher.hexdigest()
        first = self.digests.setdefault(case.name, digest)
        if digest != first:
            self.mismatches.append(case.name)

        reasons = workloads.check(case, code, workloads.read_report(out), input_missing)
        bytes_read = source.stat().st_size
        if solution is not None and not input_missing:
            bytes_read += solution.stat().st_size
        return Outcome(
            case=case.name,
            seconds=seconds,
            scaled_seconds=scaled(seconds, probe_before, self.probe),
            probe_ns=self.probe,
            reasons=reasons,
            unexpected=not case.known.issuperset(reasons),
            bytes_read=bytes_read,
            bytes_written=sum(p.stat().st_size for p in written),
        )

    def loop(self, seconds: float) -> list[Outcome]:
        """Runs the cycle on from where it stopped until `seconds` have passed.

        It does not stop before the harness has run every config once and
        made MIN_SAMPLES runs, counting earlier loops.
        """
        outcomes: list[Outcome] = []
        start = time.perf_counter()
        while (self.runs < max(len(self.cases), MIN_SAMPLES)
               or time.perf_counter() - start < seconds):
            outcomes.append(self.run(self.cases[self.position]))
            self.position = (self.position + 1) % len(self.cases)
            self.runs += 1
        return outcomes

    def workload_digest(self) -> str:
        hasher = hashlib.sha256()
        for case in self.cases:
            hasher.update(f"{case.name} {self.digests.get(case.name, '')}\n".encode())
        return hasher.hexdigest()


def set_up(root: Path, workload: str, seed: int, work: Path) -> tuple[Harness, float]:
    """Import, generate the configs, warm up; returns the harness and its
    time, scaled to the nominal host speed."""
    probe_ns()  # the first probe in a fresh interpreter runs slow
    probe_before = probe_ns()
    start = time.perf_counter()
    cli = load_program(root)
    harness = Harness(cli, workload, seed, work)
    harness.run(harness.cases[0])
    seconds = time.perf_counter() - start
    return harness, scaled(seconds, probe_before, probe_ns())


def probe_setups(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes; each cleans up before it exits."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def failed_configs(outcomes: list[Outcome]) -> set[str]:
    """Configs with a failed run.  A config's runs fail alike, since the
    digest check makes its repeats give the same outputs."""
    return {o.case for o in outcomes if o.reasons}


def ok_rate(outcomes: list[Outcome]) -> float:
    return sum(not o.reasons for o in outcomes) / sum(o.scaled_seconds for o in outcomes)


def end_to_end(outcomes: list[Outcome], setups: list[float]) -> dict:
    latencies = [o.scaled_seconds * 1e3 for o in outcomes]
    pct, tail_ms = tail(latencies)
    print(f"scenario_tail_ms is p{pct:.1f} of {len(latencies)} samples")
    wall = [o.seconds * 1e3 for o in outcomes]
    print(f"unscaled wall time: p50 {statistics.median(wall):.6g} ms, "
          f"tail {tail(wall)[1]:.6g} ms; speed probe median "
          f"{statistics.median(o.probe_ns for o in outcomes) / 1e6:.4g} ms, "
          f"nominal {PROBE_NOMINAL_NS / 1e6:.4g} ms")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "scenario_p50_ms": (statistics.median(latencies), "ms"),
        "scenario_tail_ms": (tail_ms, "ms"),
        "ok_scenarios_per_s": (ok_rate(outcomes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: spans.Tracer, traced: list[Outcome], untraced: list[Outcome],
              configs: int) -> dict:
    runs = len(traced)
    stats = tracer.stats
    metrics: dict[str, tuple[float, str]] = {}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    for name, s in stats.items():
        metrics[f"{name}.calls"] = (s.calls / runs, "count")
        metrics[f"{name}.self_ms"] = (s.self_ns / 1e6 / runs, "ms")
    apply_operator = stats["operators.apply_operator"]
    metrics["operators.apply_operator.us_per_call"] = (
        ratio(apply_operator.total_ns / 1e3, apply_operator.calls), "us")

    scan = stats["solver.norm_profile_scan"]
    composites_in_scan = tracer.nested["solver.norm_profile_scan", "operators.apply_composite"]
    metrics["solver.norm_profile_scan.composites"] = (composites_in_scan / runs, "count")
    metrics["solver.norm_profile_scan.accept_ratio"] = (
        ratio(scan.counts["accepted"], scan.counts["roots"]), "ratio")
    metrics["solver.norm_profile_scan.shape_converged_ratio"] = (
        ratio(scan.counts["shape_converged"], scan.counts["radii"]), "ratio")
    picard = stats["solver.picard_solve"]
    metrics["solver.picard_solve.iterations"] = (
        ratio(picard.counts["iterations"], picard.calls), "count")
    metrics["solver.picard_solve.converged_ratio"] = (
        ratio(picard.counts["converged"], picard.calls), "ratio")
    power = stats["solver.normalized_power_iteration"]
    metrics["solver.normalized_power_iteration.iterations"] = (
        ratio(power.counts["iterations"], power.calls), "count")
    results = picard.calls + power.calls + scan.calls
    metrics["solver.composites_per_result"] = (
        ratio(stats["operators.apply_composite"].calls, results), "count")
    verification = stats["verify.verify_solution"]
    metrics["verify.verify_solution.pass_ratio"] = (
        ratio(verification.counts["passed"], verification.calls), "ratio")

    metrics["cli.bytes_written"] = (sum(o.bytes_written for o in traced) / runs, "bytes")
    metrics["cli.bytes_read"] = (sum(o.bytes_read for o in traced) / runs, "bytes")
    metrics["failed_ratio"] = (len(failed_configs(untraced + traced)) / configs, "ratio")
    plain, slowed = ok_rate(untraced), ok_rate(traced)
    metrics["trace.untraced_ok_scenarios_per_s"] = (plain, "1/s")
    metrics["trace.traced_ok_scenarios_per_s"] = (slowed, "1/s")
    metrics["trace.overhead_ratio"] = (ratio(plain, slowed) - 1.0, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        harness, setup_s = set_up(root, args.workload, args.seed, work)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print("env " + json.dumps(environment(), sort_keys=True))

        if args.trace:
            untraced = harness.loop(args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = harness.loop(args.seconds / 2)
            finally:
                tracer.uninstall()
            outcomes = untraced + traced
            metrics = per_layer(tracer, traced, untraced, len(harness.cases))
        else:
            outcomes = harness.loop(args.seconds)
            metrics = end_to_end(outcomes, [setup_s] + probe_setups(args.workload, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = [o for o in outcomes if o.reasons]
    for reasons, unexpected in sorted({(o.reasons, o.unexpected) for o in failed}):
        runs = [o for o in failed if (o.reasons, o.unexpected) == (reasons, unexpected)]
        cases = sorted({o.case for o in runs})
        print(f"failed {len(runs)} runs of {len(cases)} configs ({', '.join(cases[:3])}"
              f"{', ...' if len(cases) > 3 else ''}): {' + '.join(reasons)}"
              f"{' (UNEXPECTED)' if unexpected else ' (known defect)'}")
    for name in sorted(set(harness.mismatches)):
        print(f"NONDETERMINISTIC output across repeats of {name}")
    print(f"runs {len(outcomes)} of {len(harness.cases)} configs")
    print(f"digest {args.workload} {harness.workload_digest()}")
    failed_cases = failed_configs(outcomes)
    if "failed_ratio" not in metrics:
        print(f"failed_ratio {len(failed_cases) / len(harness.cases):.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not any(o.unexpected for o in failed) and not harness.mismatches,
        "attempted": len(harness.cases),
        "failed": len(failed_cases),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
