"""Tests of the benchmark's own checker, tracer and metric definitions.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

svshrink = run.load_package()
import check  # noqa: E402
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402


def _denoise_argv(tmp_path: Path, family: str, method_args: list[str]) -> tuple[list, Path, np.ndarray]:
    spec = inputs.Matrix("small", family, (24, 20), (300.0, 100.0), 4.0 if family == "gamma" else 1.0)
    y = inputs.observation(spec, np.random.default_rng(5))
    path = tmp_path / "y.ssmx"
    inputs.write_ssmx(path, y)
    output = tmp_path / "xhat.csv"
    argv = ["denoise", "--input", str(path), "--family", family, *method_args, "--output", str(output)]
    return argv, output, y


def _denoise(tmp_path: Path, family: str, method_args: list[str]) -> tuple[Path, np.ndarray]:
    argv, output, y = _denoise_argv(tmp_path, family, method_args)
    assert svshrink.cli.main(argv) == 0
    return output, y


def _perturb_entry(output: Path, i: int, j: int, delta: float) -> None:
    out = np.loadtxt(output, delimiter=",", comments="#", ndmin=2)
    out[i, j] += delta
    svshrink.matrixio.write_matrix_csv(output, out, header="denoised matrix")


@pytest.mark.parametrize("family, args", [
    ("gaussian", ["--tau", "1", "--method", "weights"]),
    ("gamma", ["--L", "4", "--method", "soft", "--objective", "sukls"]),
])
def test_denoise_check_catches_one_perturbed_entry(tmp_path, family, args):
    output, y = _denoise(tmp_path, family, args)
    assert check.check_denoise(output, y, family) == []
    _perturb_entry(output, 3, 4, 1e-4)
    problems = check.check_denoise(output, y, family)
    assert problems and "rebuilt" in problems[0]


def test_denoise_check_pins_the_reference_fit(tmp_path):
    output, y = _denoise(tmp_path, "gaussian", ["--tau", "1", "--method", "soft"])
    sidecar = json.loads(output.with_suffix(".csv.json").read_text())
    reference = check.sidecar_values(sidecar)
    assert check.check_denoise(output, y, "gaussian", reference) == []
    wrong = dict(reference, **{"lambda": reference["lambda"] * 1.01})
    assert any("lambda" in p for p in check.check_denoise(output, y, "gaussian", wrong))


def _sweep(tmp_path: Path) -> tuple[Path, dict]:
    config = json.loads((run.ROOT / "configs" / "fig2.json").read_text())
    config.update(n=20, m=20, replications=3)
    config["sweep"]["values"] = [1.0, 3.0]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["experiment", "--config", str(config_path), "--out-dir", str(out), "--threads", "1"]
    assert svshrink.cli.main(argv) == 0
    return out, config


def test_sweep_check_catches_one_dropped_record(tmp_path):
    out, config = _sweep(tmp_path)
    assert check.check_sweep(out, config) == []
    lines = (out / "records.csv").read_text().splitlines(keepends=True)
    (out / "records.csv").write_text("".join(lines[:5] + lines[6:]))
    problems = check.check_sweep(out, config)
    assert any("records" in p for p in problems)


def test_sweep_check_catches_one_perturbed_record(tmp_path):
    out, config = _sweep(tmp_path)
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][4] = repr(float(rows[1][4]) * 1.5)
    with open(out / "records.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert any("does not summarize" in p for p in check.check_sweep(out, config))


def test_sweep_reference_tolerance_separates_reassociation_from_a_wrong_fit(tmp_path):
    out, config = _sweep(tmp_path)
    summary = json.loads((out / "summary.json").read_text())
    reference = {"cells": summary["cells"]}
    assert check.check_sweep(out, config, reference) == []
    nudged = [dict(c, median=c["median"] * (1 + 1e-12)) for c in summary["cells"]]
    assert check.check_sweep(out, config, {"cells": nudged}) == []
    wrong = [dict(c, median=c["median"] * (1 + 1e-3)) for c in summary["cells"]]
    assert check.check_sweep(out, config, {"cells": wrong})


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_keeps_ten_samples_beyond():
    pct, value = run.tail([float(i) for i in range(100)])
    assert pct == 90.0 and value == pytest.approx(89.1)
    assert run.tail([1.0] * 12)[0] == 50.0


def test_tracer_self_times_cover_the_op_and_uninstall_restores(tmp_path):
    originals = {name: getattr(svshrink.linalg, name) for name in tracing.FUNCTIONS["linalg"]}
    argv, _, _ = _denoise_argv(tmp_path, "poisson", ["--method", "soft", "--objective", "pukla"])
    tracer = tracing.Tracer(svshrink)
    tracer.install()
    try:
        with tracer.op():
            assert svshrink.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert all(getattr(svshrink.linalg, n) is f for n, f in originals.items())
    (_, wall, self_sum), = tracer.op_walls
    assert abs(wall - self_sum) <= 0.05 * wall
    assert tracer.stats["cli.main"].calls == 1
    svd = tracer.stats["linalg.svd"]
    assert svd.calls > svd.extra["distinct"] >= 1  # the fit refactorizes the same Y
    assert tracer.stats["shrinkage.minimize_bounded"].extra["nit"] > 0


def test_missing_output_counts_as_failed_ops(tmp_path, monkeypatch):
    _, workload = run.make_workload("fig2-sweep", 1, tmp_path / "work", reference=False)
    monkeypatch.setattr(svshrink.cli, "main", lambda argv: 0)  # exits 0, writes nothing
    done = workload.run_pass()
    assert done.failed == workload.ops_per_pass
    assert "unreadable output" in done.problems[0]


def test_calibrated_costs_divide_by_the_kernel_time_around_each_command(tmp_path, monkeypatch):
    kernel = iter([(0.1, 0.1), (0.3, 0.2)])
    monkeypatch.setattr(run, "calibration_kernel", lambda: next(kernel))
    cal = run.Calibrator()
    assert cal.scale(0.4, 0.3) == (pytest.approx(2.0), pytest.approx(2.0))
    assert cal.walls == [0.1, 0.3]


def test_blas_is_single_threaded_and_gates_get_the_callers_setting():
    assert all(run.os.environ[var] == "1" for var in run.BLAS_THREAD_VARS)
    env = run.child_env(caller_blas=True)
    for var, value in run.CALLER_BLAS_ENV.items():
        assert env.get(var) == value
