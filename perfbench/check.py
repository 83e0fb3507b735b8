"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the output passed.
The default-seed references live in ``perfbench/reference/``.

Tolerances.  Outputs are compared with the reference at ``REF_RTOL`` relative
(plus ``REF_ATOL`` absolute for values fitted by the bounded scalar solver,
whose stopping rule is ``xatol = 1e-6``).  Floating-point reassociation moves
values by about 1e-12 relative, or a fitted weight or threshold by at most
the solver tolerance; a wrong fit moves them by orders of magnitude more.
A denoised matrix must equal its rebuild from the sidecar to ``REBUILD_RTOL``
of its largest entry.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
from svshrink import linalg

from inputs import CLAMP_FLOOR, expected_sweep_shape

REF_RTOL = 1e-6
REF_ATOL = 1e-5
REBUILD_RTOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _close(a: float, b: float, rtol: float = REF_RTOL, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# sweeps


def _cell_key(sweep_param, estimator: str, metric_name: str) -> tuple:
    return ("" if sweep_param is None else repr(float(sweep_param)), estimator, metric_name)


def check_sweep(out_dir: Path, config: dict, reference: dict | None = None) -> list[str]:
    """records.csv and summary.json of one `svshrink experiment` pass:
    record count, finite nonnegative values, no failures, summary cells that
    match their records, and (given a reference) the reference cells."""
    _, n_records, n_cells = expected_sweep_shape(config)
    problems = []
    with open(out_dir / "records.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_records:
        problems.append(f"records.csv has {len(rows)} records, expected {n_records}")
    groups = defaultdict(list)
    for row in rows:
        value = float(row["value"])
        if not (math.isfinite(value) and value >= 0.0):
            problems.append(f"record {row} has a non-finite or negative value")
        groups[(row["sweep_param"], row["estimator"], row["metric_name"])].append(value)

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if summary["failures"]:
        problems.append(f"{len(summary['failures'])} replication tasks failed: {summary['failures'][0]}")
    cells = summary["cells"]
    if len(cells) != n_cells:
        problems.append(f"summary.json has {len(cells)} cells, expected {n_cells}")
    for cell in cells:
        key = _cell_key(cell["sweep_param"], cell["estimator"], cell["metric_name"])
        values = groups.get(key, [])
        if cell["count"] != config["replications"] or len(values) != cell["count"]:
            problems.append(f"cell {key} counts {cell['count']} with {len(values)} records, "
                            f"expected {config['replications']}")
            continue
        q10, med, q90 = np.quantile(values, [0.1, 0.5, 0.9])
        if not all(_close(cell[k], v, 1e-12) for k, v in (("q10", q10), ("median", med), ("q90", q90))):
            problems.append(f"cell {key} does not summarize its records")

    if reference is not None:
        ref_cells = {_cell_key(c["sweep_param"], c["estimator"], c["metric_name"]): c
                     for c in reference["cells"]}
        for cell in cells:
            key = _cell_key(cell["sweep_param"], cell["estimator"], cell["metric_name"])
            ref = ref_cells.get(key)
            if ref is None:
                problems.append(f"cell {key} is not in the reference")
            elif not all(_close(cell[k], ref[k], atol=1e-12) for k in ("q10", "median", "q90")):
                problems.append(f"cell {key} differs from the reference: "
                                f"median {cell['median']!r} vs {ref['median']!r}")
    return problems


# ---------------------------------------------------------------------------
# denoise


def sidecar_values(sidecar: dict) -> dict:
    """The fitted quantities the reference pins, without the timing."""
    return {k: v for k, v in sidecar.items() if k != "timing_seconds"}


def check_denoise(output: Path, observed: np.ndarray, family: str,
                  reference: dict | None = None) -> list[str]:
    """One `svshrink denoise` output: shape, finiteness, the clamp floor, and
    equality with the shrinkage rebuilt from the sidecar's fit."""
    problems = []
    out = np.loadtxt(output, delimiter=",", comments="#", ndmin=2)
    sidecar = json.loads(output.with_suffix(output.suffix + ".json").read_text(encoding="utf-8"))
    if out.shape != observed.shape:
        return [f"output shape {out.shape} differs from the input shape {observed.shape}"]
    if not np.all(np.isfinite(out)):
        problems.append("output has non-finite entries")
    floor = None if family == "gaussian" else CLAMP_FLOOR
    if floor is not None and out.min() < floor:
        problems.append(f"output entry {out.min()!r} is below the clamp floor {floor}")

    fact = linalg.svd(observed)
    s = fact.singular_values
    active = [int(k) for k in sidecar["active_set"]]
    if "weights" in sidecar:
        weights = {int(k): float(w) for k, w in sidecar["weights"].items()}
        if sorted(weights) != sorted(active):
            problems.append(f"weights {sorted(weights)} do not cover the active set {active}")
        values = np.zeros_like(s)
        for k, w in weights.items():
            values[k - 1] = w * s[k - 1]
    elif "lambda" in sidecar:
        values = linalg.soft_threshold_values(s, float(sidecar["lambda"]))
    else:
        return problems + ["sidecar holds neither weights nor lambda"]
    rebuilt = linalg.compose(fact, values)
    if floor is not None:
        rebuilt = np.maximum(rebuilt, floor)
    gap = float(np.max(np.abs(out - rebuilt)))
    if gap > REBUILD_RTOL * max(1.0, float(np.max(np.abs(rebuilt)))):
        problems.append(f"output differs from the rebuilt shrinkage by {gap:.3g}")

    if reference is not None:
        problems += _compare_sidecar(sidecar_values(sidecar), reference)
    return problems


def _compare_sidecar(got: dict, ref: dict) -> list[str]:
    problems = []
    if got["active_set"] != ref["active_set"]:
        problems.append(f"active set {got['active_set']} differs from the reference {ref['active_set']}")
    if "weights" in ref:
        if set(got.get("weights", {})) != set(ref["weights"]):
            problems.append("fitted weight indices differ from the reference")
        else:
            for k, w in ref["weights"].items():
                if not _close(got["weights"][k], w, atol=REF_ATOL):
                    problems.append(f"weight {k} = {got['weights'][k]!r} differs from the reference {w!r}")
    if "lambda" in ref and not _close(got.get("lambda", math.nan), ref["lambda"], atol=REF_ATOL):
        problems.append(f"lambda {got.get('lambda')!r} differs from the reference {ref['lambda']!r}")
    if "risk" in ref:
        value = got.get("risk", {}).get("value", math.nan)
        if not _close(value, ref["risk"]["value"], atol=1e-9):
            problems.append(f"risk {value!r} differs from the reference {ref['risk']['value']!r}")
    return problems
