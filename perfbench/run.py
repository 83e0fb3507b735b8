#!/usr/bin/env python3
"""Benchmark for svshrink's two user paths: replication sweeps
(`svshrink experiment`) and single-matrix denoising (`svshrink denoise`).

Run from the repository root:

    python3 perfbench/run.py --workload fig2-sweep --seed 20240811 --seconds 30 --trace 0
    python3 perfbench/run.py --workload denoise-mix --trace 1     # per-layer metrics
    python3 perfbench/run.py --gates                              # acceptance-gate timing

Every run is one closed-loop client in this process, calling the in-process
CLI entry point ``svshrink.cli.main``.  The program is imported from ``src/``
of the checkout this file sits in.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The lines before it give the same numbers for reading, the
machine block, and the details behind each metric.  See README.md here.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, set before NumPy loads OpenBLAS: on a few shared cores,
# spinning BLAS threads make the timings follow the host's scheduler.  The
# gate mode restores the caller's settings for its pytest child.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALLER_BLAS_ENV = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import MODULES  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("fig2-sweep", "fig5-rankcap", "denoise-mix")
IMPORT_REPEATS = 5  # fresh interpreters timed per run for setup_s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it

# Timings are in `cal` units: multiples of the calibration kernel's time
# measured beside them (see Calibrator).  The same timings in seconds are in
# the `raw` block of the details line.
END_TO_END = (
    ("op_cost_cal", "cal"),
    ("cpu_cost_cal", "cal"),
    ("latency_p50_cal", "cal"),
    ("latency_tail_cal", "cal"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

RAW_UNITS = {"ops_per_s": "ops/s", "cpu_ms_per_op": "ms", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "calibration_ms": "ms"}

_RISK = ("sure_gaussian", "gsure_gamma", "sukls_gamma", "pure_poisson", "pukla_poisson",
         "mc_divergence", "mc_theta_divergence_gamma")

# (metric, unit): per-op means of the traced ops unless the doc says otherwise.
PER_LAYER = (
    ("linalg.svd.calls", "count"), ("linalg.svd.self_s", "s"), ("linalg.svd.gflop", "GFLOP"),
    ("linalg.svd.distinct_ratio", "ratio"),
    ("linalg.compose.calls", "count"), ("linalg.compose.self_s", "s"),
    ("linalg.directional_derivative.calls", "count"), ("linalg.directional_derivative.self_s", "s"),
    ("linalg.check_distinct.calls", "count"), ("linalg.check_distinct.self_s", "s"),
    ("risk.divergence_closed_form.calls", "count"), ("risk.divergence_closed_form.self_s", "s"),
    *((f"risk.{fn}.{stat}", unit) for fn in _RISK for stat, unit in (("calls", "count"), ("self_s", "s"))),
    ("risk.downdated_entries.self_s", "s"), ("risk.downdated_entries.positions", "count"),
    ("shrinkage.minimize_bounded.calls", "count"), ("shrinkage.minimize_bounded.self_s", "s"),
    ("shrinkage.minimize_bounded.evals", "count"), ("shrinkage.minimize_bounded.nit", "count"),
    ("shrinkage.minimize_bounded.nonconverged", "count"),
    ("shrinkage.soft_threshold_fit.self_s", "s"), ("shrinkage.optimize_weights_greedy.self_s", "s"),
    ("shrinkage.weights_gaussian.self_s", "s"),
    ("activeset.aic.calls", "count"), ("activeset.aic.self_s", "s"),
    ("activeset.active_set_greedy.self_s", "s"),
    ("models.log_likelihood.self_s", "s"), ("models.sample.self_s", "s"),
    ("metrics.metric.calls", "count"), ("metrics.metric.self_s", "s"),
    ("experiments.fit_estimator.calls", "count"), ("experiments.fit_estimator.self_s", "s"),
    ("experiments.generate_signal.self_s", "s"), ("experiments.run_experiment.self_s", "s"),
    ("matrixio.read_matrix.self_s", "s"), ("matrixio.read_matrix.bytes", "B"),
    ("matrixio.write_matrix_csv.self_s", "s"), ("matrixio.write_matrix_csv.bytes", "B"),
    ("cli.main.self_s", "s"),
    *((f"layer.{mod}.self_share", "ratio") for mod in MODULES),
    *((f"{mod}.fail", "count") for mod in MODULES),
    ("trace.overhead", "ratio"), ("trace.self_sum_gap", "ratio"), ("trace.ops", "count"),
)


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources, configs...)."""


def load_package():
    """Import svshrink from this checkout's src/, and nowhere else."""
    if not (SRC / "svshrink" / "__init__.py").is_file():
        raise BenchError(f"no svshrink sources under {SRC}")
    if not (ROOT / "configs").is_dir():
        raise BenchError(f"no experiment configs under {ROOT / 'configs'}")
    sys.path.insert(0, str(SRC))
    import svshrink
    import svshrink.cli  # noqa: F401

    if not Path(svshrink.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"svshrink was imported from {svshrink.__file__}, not from {SRC}")
    return svshrink


def child_env(caller_blas: bool = False) -> dict:
    env = dict(os.environ)
    if caller_blas:
        for var, value in CALLER_BLAS_ENV.items():
            if value is None:
                env.pop(var, None)
            else:
                env[var] = value
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing svshrink.cli."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import svshrink.cli"], env=child_env(),
                       cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# calibration

CAL_MATRIX = np.random.default_rng(0).standard_normal((100, 100))


def calibration_kernel() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed computation with the program's mix of
    work: small dense SVDs and an interpreted loop (about 50 ms)."""
    cpu0 = time.process_time()
    start = time.perf_counter()
    for _ in range(20):
        np.linalg.svd(CAL_MATRIX)
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start, time.process_time() - cpu0


class Calibrator:
    """Runs the calibration kernel after every timed command.  A command's
    cost in `cal` units is its time over the mean kernel time just before and
    just after it.  The host's speed drifts by up to 1.6x over minutes on a
    shared machine; the kernel slows with it, so the ratio does not."""

    def __init__(self):
        self.last = calibration_kernel()
        self.walls = [self.last[0]]

    def scale(self, wall: float, cpu: float) -> tuple[float, float]:
        after = calibration_kernel()
        before, self.last = self.last, after
        self.walls.append(after[0])
        return 2.0 * wall / (before[0] + after[0]), 2.0 * cpu / (before[1] + after[1])


# ---------------------------------------------------------------------------
# workloads: each exposes ops_per_pass, run_pass(tracer, cal) -> Pass


# A missing or malformed output file is a failed op, not a benchmark crash.
UNREADABLE = (OSError, ValueError, KeyError, TypeError, csv.Error)


@dataclass
class Pass:
    """One timed pass: wall and CPU seconds, per-command latencies, the same
    in `cal` units (when calibrated), failed ops."""

    wall: float = 0.0
    cpu: float = 0.0
    latencies: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    cpu_cost: float = 0.0
    failed: int = 0
    problems: list = field(default_factory=list)


class SweepWorkload:
    """`svshrink experiment --threads 1` on a reduced repo config; an op is
    one replication task, a pass is one command."""

    def __init__(self, pkg, name: str, seed: int, work: Path, check, reference: bool):
        self.pkg, self.check = pkg, check
        self.config = inputs.sweep_config(ROOT, name, seed)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")
        self.out = work / "out"
        self.argv = ["experiment", "--config", str(config_path), "--out-dir", str(self.out),
                     "--threads", "1"]
        self.ops_per_pass = inputs.expected_sweep_shape(self.config)[0]
        self.reference = check.load_reference(name) if reference else None
        self.golden = None

    def outputs(self) -> bytes:
        return (self.out / "records.csv").read_bytes() + (self.out / "summary.json").read_bytes()

    def run_pass(self, tracer=None, cal=None) -> Pass:
        result = Pass()
        rc = _call_main(self.pkg, self.argv, result, tracer)
        result.latencies = [result.wall]
        if cal is not None:
            cost, result.cpu_cost = cal.scale(result.wall, result.cpu)
            result.costs = [cost]
        if rc == 0:
            try:
                outputs = self.outputs()
                if outputs != self.golden:
                    result.problems = self.check.check_sweep(self.out, self.config, self.reference)
                    if not result.problems and self.golden is None:
                        self.golden = outputs
            except UNREADABLE as exc:
                result.problems.append(f"unreadable output: {exc!r}")
        elif rc is not None:
            result.problems.append(f"exit code {rc}")
        if result.problems:
            result.failed = self.ops_per_pass
        return result


class DenoiseWorkload:
    """In-process `svshrink denoise` over a fixed cycle of request classes; an
    op is one request, a pass is one cycle."""

    def __init__(self, pkg, name: str, seed: int, work: Path, check, reference: bool):
        self.pkg, self.check = pkg, check
        reference = check.load_reference(name) if reference else {}
        self.requests = []
        for req_name, path, observed, req in inputs.denoise_inputs(work, seed):
            output = work / f"{req_name}.csv"
            argv = ["denoise", "--input", str(path), *req.args, "--seed", str(seed),
                    "--output", str(output)]
            family = req.args[req.args.index("--family") + 1]
            self.requests.append((req_name, argv, output, observed, family, reference.get(req_name)))
        self.ops_per_pass = len(self.requests)
        self.golden = {}

    def outputs(self, output: Path):
        sidecar = json.loads(output.with_suffix(output.suffix + ".json").read_text(encoding="utf-8"))
        return output.read_bytes(), self.check.sidecar_values(sidecar)

    def run_pass(self, tracer=None, cal=None) -> Pass:
        result = Pass()
        for req_name, argv, output, observed, family, reference in self.requests:
            one = Pass()
            rc = _call_main(self.pkg, argv, one, tracer)
            result.wall += one.wall
            result.cpu += one.cpu
            result.latencies.append(one.wall)
            if cal is not None:
                cost, cpu_cost = cal.scale(one.wall, one.cpu)
                result.costs.append(cost)
                result.cpu_cost += cpu_cost
            problems = one.problems + ([f"exit code {rc}"] if rc not in (0, None) else [])
            if rc == 0:
                try:
                    outputs = self.outputs(output)
                    if outputs != self.golden.get(req_name):
                        problems = self.check.check_denoise(output, observed, family, reference)
                        if not problems and req_name not in self.golden:
                            self.golden[req_name] = outputs
                except UNREADABLE as exc:
                    problems = [f"unreadable output: {exc!r}"]
            if problems:
                result.failed += 1
                result.problems += [f"{req_name}: {p}" for p in problems]
        return result


def _call_main(pkg, argv, result: Pass, tracer) -> int | None:
    """Time one in-process CLI call into ``result``; None when it raised."""
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        if tracer is None:
            return pkg.cli.main(argv)
        with tracer.op():
            return pkg.cli.main(argv)
    except Exception:  # an op that raises is a failed op; keep running
        result.problems.append(traceback.format_exc(limit=3))
        return None
    finally:
        result.wall += time.perf_counter() - start
        result.cpu += time.process_time() - cpu0


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, on a 0.1 grid, that
    leaves at least TAIL_BEYOND samples beyond it (the median at least)."""
    n = len(latencies)
    pct = max(50.0, math.floor(1000.0 * (1.0 - TAIL_BEYOND / n)) / 10.0)
    return pct, float(np.percentile(latencies, pct))


def end_to_end(timed: list[Pass], ops_per_pass: int, setup_s: float, attempted: int,
               failed: int, cal: Calibrator) -> tuple[dict, dict]:
    latencies = [x for p in timed for x in p.latencies]
    costs = [x for p in timed for x in p.costs]
    ops = ops_per_pass * len(timed)
    pct, tail_cost = tail(costs)
    values = {
        "op_cost_cal": statistics.median(sum(p.costs) for p in timed) / ops_per_pass,
        "cpu_cost_cal": statistics.median(p.cpu_cost for p in timed) / ops_per_pass,
        "latency_p50_cal": statistics.median(costs),
        "latency_tail_cal": tail_cost,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    raw = {
        "ops_per_s": ops_per_pass / statistics.median(p.wall for p in timed),
        "cpu_ms_per_op": 1e3 * statistics.median(p.cpu for p in timed) / ops_per_pass,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail(latencies)[1],
        "calibration_ms": 1e3 * statistics.median(cal.walls),
    }
    details = {"passes": len(timed), "ops": ops, "latency_samples": len(costs),
               "latency_tail_percentile": pct, "fail_ratio": failed / attempted, "raw": raw}
    return values, details


def per_layer(tracer, traced: list[Pass], untraced: list[Pass], ops_per_pass: int) -> dict:
    ops = ops_per_pass * len(traced)
    stats = tracer.stats
    values = {}
    for name, _ in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if head.startswith(("layer.", "trace")) or head in MODULES:
            continue  # rollups, filled in below
        st = stats.get(head)
        if st is None:
            values[name] = 0.0
        elif stat == "calls":
            values[name] = st.calls / ops
        elif stat == "self_s":
            values[name] = st.self_s / ops
        elif stat == "distinct_ratio":
            values[name] = st.extra["distinct"] / st.calls if st.calls else 1.0
        else:
            values[name] = st.extra[stat] / ops
    total_self = sum(st.self_s for st in stats.values())
    for mod in MODULES:
        in_mod = [st for key, st in stats.items() if key.split(".")[0] == mod]
        values[f"layer.{mod}.self_share"] = sum(st.self_s for st in in_mod) / total_self
        values[f"{mod}.fail"] = float(sum(st.fail for st in in_mod))
    values["trace.overhead"] = (statistics.median(sum(p.costs) for p in traced)
                                / statistics.median(sum(p.costs) for p in untraced) - 1.0)
    values["trace.self_sum_gap"] = max(abs(wall - self_sum) / wall
                                       for _, wall, self_sum in tracer.op_walls)
    values["trace.ops"] = float(ops)
    return {name: values[name] for name, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# entry points


def make_workload(name: str, seed: int, work: Path, reference: bool):
    pkg = load_package()
    import check  # imports svshrink, so only after load_package

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cls = DenoiseWorkload if name == "denoise-mix" else SweepWorkload
    return pkg, cls(pkg, name, seed, work, check, reference and seed == inputs.DEFAULT_SEED)


def write_reference(name: str) -> None:
    """Run one pass at the default seed, check it without a reference, and
    record its outputs as the reference (after a reviewed program change)."""
    _, workload = make_workload(name, inputs.DEFAULT_SEED, WORK / f"{name}-reference", reference=False)
    done = workload.run_pass()
    if done.problems:
        raise BenchError("; ".join(done.problems))
    if isinstance(workload, SweepWorkload):
        summary = json.loads((workload.out / "summary.json").read_text(encoding="utf-8"))
        ref = {"seed": inputs.DEFAULT_SEED, "replications": workload.config["replications"],
               "cells": summary["cells"]}
    else:
        ref = {req[0]: workload.outputs(req[2])[1] for req in workload.requests}
    path = HERE / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def run_workload(args) -> dict:
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    pkg, workload = make_workload(args.workload, args.seed, work, reference=True)

    import_s = import_seconds()
    warm = workload.run_pass()
    setup_s = import_s + warm.wall
    passes = [warm]

    tracer = tracing.Tracer(pkg) if args.trace else None
    cal = Calibrator()
    timed, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (tracer and not traced):
        # The traced run alternates untraced and traced passes, so the
        # overhead is measured against passes made at the same time.
        if tracer is not None and len(timed) > len(traced):
            tracer.install()
            try:
                traced.append(workload.run_pass(tracer, cal))
            finally:
                tracer.uninstall()
        else:
            timed.append(workload.run_pass(cal=cal))
    passes += timed + traced

    attempted = workload.ops_per_pass * len(passes)
    failed = sum(p.failed for p in passes)
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p.problems]
    e2e, details = end_to_end(timed, workload.ops_per_pass, setup_s, attempted, failed, cal)
    details.update(import_s=import_s, warmup_s=warm.wall)
    if isinstance(workload, DenoiseWorkload):
        details["request_median_ms"] = {
            req[0]: 1e3 * statistics.median(p.latencies[i] for p in timed)
            for i, req in enumerate(workload.requests)}
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "details": details,
              "problems": problems[:20],
              "pass_wall_s": [p.wall for p in timed], "calibration_s": cal.walls}
    if tracer is not None:
        metrics, units = per_layer(tracer, traced, timed, workload.ops_per_pass), dict(PER_LAYER)
        tracer.write_spans(work / "spans.csv")
        total_self = sum(st.self_s for st in tracer.stats.values())
        details["traced_passes"] = len(traced)
        details["top_self_share"] = {
            name: round(st.self_s / total_self, 4)
            for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)[:12]}
    else:
        metrics, units = e2e, dict(END_TO_END)
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    result["end_to_end"] = e2e
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in details["raw"].items():
        print(f"raw {name} = {value:.6g} {RAW_UNITS[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": result["metrics"]}


def run_gates() -> dict:
    """Wall time of each acceptance criterion beside its own wall-clock gate."""
    test_file = ROOT / "tests" / "test_acceptance.py"
    if not test_file.is_file():
        raise BenchError(f"no acceptance tests at {test_file}")
    source = test_file.read_text(encoding="utf-8")
    gates = {}
    for chunk in re.split(r"\ndef (?=test_criterion_)", source)[1:]:
        name = chunk.split("(", 1)[0]
        found = re.findall(r"elapsed < ([0-9.]+)", chunk)
        gates[name] = float(found[-1]) if found else None
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(test_file), "--durations=0", "--durations-min=0", "-q",
         "-p", "no:cacheprovider"],
        env=child_env(caller_blas=True), cwd=ROOT, capture_output=True, text=True, timeout=3600,
    )
    durations = {}
    for match in re.finditer(r"^([0-9.]+)s call\s+\S+::(test_criterion_\w+)", proc.stdout, re.M):
        durations[match.group(2)] = float(match.group(1))
    rows = []
    for name, gate in gates.items():
        wall = durations.get(name)
        rows.append({"test": name, "wall_s": wall, "gate_s": gate,
                     "share_of_gate": None if wall is None or not gate else wall / gate})
        print(f"{name}: {wall if wall is not None else 'n/a'} s of {gate} s gate")
    return {"pytest_exit": proc.returncode, "machine": machine(), "criteria": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gates", action="store_true",
                        help="time each acceptance criterion against its gate (slow; not a workload)")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed outputs of --workload as its reference")
    args = parser.parse_args(argv)
    try:
        if args.gates:
            print(json.dumps(run_gates()))
            return 0
        if args.workload is None:
            parser.error("--workload is required unless --gates is given")
        if args.write_reference:
            write_reference(args.workload)
            return 0
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        print(json.dumps(run_workload(args)))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
