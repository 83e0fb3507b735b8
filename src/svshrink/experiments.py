"""Seeded replication sweeps: signal generation, estimator fitting by tag,
metric records, and quantile summaries.

A run is fully determined by its config (JSON-serializable): data seeds are
derived from the root seed, the sweep index, and the replication index, so
results are reproducible and independent of any thread schedule.
"""

from __future__ import annotations

import csv
import functools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import activeset, linalg, metrics, rmt, shrinkage
from .errors import DomainError, NumericalError, ParameterError, SvshrinkError
from .linalg import SpectralFunction, SvdFactorization
from .models import Gaussian, NoiseModel, model_from_config

SWEEP_PARAMETERS = ("sigma1", "true_rank", "tau", "rsnr", "rank_cap")
_DATA_SWEEPS = ("sigma1", "true_rank", "tau", "rsnr")

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["n", "m", "model", "signal", "estimators", "replications", "root_seed"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 1, "maximum": 500},
        "m": {"type": "integer", "minimum": 1, "maximum": 500},
        "model": {
            "type": "object",
            "required": ["family"],
            "properties": {
                "family": {"enum": ["gaussian", "gamma", "poisson"]},
                "tau": {"type": "number", "exclusiveMinimum": 0},
                "L": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "signal": {
            "type": "object",
            "required": ["type"],
            "properties": {
                "type": {"enum": ["spike", "equal_spikes", "explicit"]},
                "sigmas": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
                "recipe": {"enum": ["quadratic_profile", "cosine"]},
                "gamma": {"type": "number", "exclusiveMinimum": 0},
                "rank": {"type": "integer", "minimum": 1},
                "entries": {"type": "array"},
            },
        },
        "estimators": {"type": "array", "minItems": 1, "items": {"type": "string"}},
        "metrics": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": list(metrics.METRIC_NAMES)},
        },
        "replications": {"type": "integer", "minimum": 1, "maximum": 2000},
        "root_seed": {"type": "integer", "minimum": 0},
        "clamp_floor": {"type": "number", "exclusiveMinimum": 0},
        "sweep": {
            "type": "object",
            "required": ["parameter", "values"],
            "additionalProperties": False,
            "properties": {
                "parameter": {"enum": list(SWEEP_PARAMETERS)},
                "values": {"type": "array", "minItems": 1, "items": {"type": "number"}},
            },
        },
    },
}


# ---------------------------------------------------------------------------
# signal generation


def quadratic_profile(n: int) -> np.ndarray:
    """Unit-norm positive vector with entries proportional to
    ``1 - (i/n - 1/2)^2``, i = 1..n."""
    t = np.arange(1, n + 1) / n
    p = 1.0 - (t - 0.5) ** 2
    return p / np.linalg.norm(p)


def _orthonormal_columns(raw: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(raw)
    anchor = np.argmax(np.abs(q), axis=0)
    signs = np.sign(q[anchor, np.arange(q.shape[1])])
    signs[signs == 0] = 1.0
    return q * signs


def profile_vectors(n: int, r: int) -> np.ndarray:
    """Orthonormal columns built from the positive quadratic profile modulated
    by low-frequency cosines; the first column is the profile itself."""
    if r > n:
        raise DomainError(f"cannot build {r} orthonormal vectors of length {n}")
    t = np.arange(1, n + 1) / n
    profile = 1.0 - (t - 0.5) ** 2
    raw = np.stack([profile * np.cos(np.pi * k * (t - 0.5 / n)) for k in range(r)], axis=1)
    return _orthonormal_columns(raw)


def cosine_vectors(n: int, r: int) -> np.ndarray:
    """Orthonormal cosine (DCT-like) columns; the first one is constant."""
    if r > n:
        raise DomainError(f"cannot build {r} orthonormal vectors of length {n}")
    i = np.arange(n)
    raw = np.stack([np.cos(np.pi * k * (i + 0.5) / n) for k in range(r)], axis=1)
    norms = np.linalg.norm(raw, axis=0)
    return raw / norms


_RECIPES = {"quadratic_profile": profile_vectors, "cosine": cosine_vectors}


@dataclass(frozen=True)
class SignalSpec:
    """Either an explicit matrix or a spiked low-rank construction."""

    kind: str
    sigmas: tuple[float, ...] = ()
    recipe: str = "quadratic_profile"
    gamma: Optional[float] = None
    rank: Optional[int] = None
    entries: Optional[np.ndarray] = None

    @classmethod
    def from_config(cls, config: dict) -> "SignalSpec":
        kind = config["type"]
        if kind == "spike":
            sigmas = tuple(float(s) for s in config.get("sigmas", ()))
            if not sigmas:
                raise ParameterError("spike signals need a nonempty 'sigmas' list")
            if any(b >= a for a, b in zip(sigmas, sigmas[1:])):
                raise ParameterError("spike strengths must be strictly decreasing")
            return cls("spike", sigmas=sigmas, recipe=config.get("recipe", "quadratic_profile"))
        if kind == "equal_spikes":
            if "gamma" not in config or "rank" not in config:
                raise ParameterError("equal-spike signals need 'gamma' and 'rank'")
            return cls(
                "equal_spikes",
                gamma=float(config["gamma"]),
                rank=int(config["rank"]),
                recipe=config.get("recipe", "cosine"),
            )
        if kind == "explicit":
            if "entries" not in config:
                raise ParameterError("explicit signals need 'entries'")
            return cls("explicit", entries=np.asarray(config["entries"], dtype=float))
        raise ParameterError(f"unknown signal type {kind!r}")

    def spike_strengths(self, n: int, m: int) -> tuple[float, ...]:
        if self.kind == "spike":
            return self.sigmas
        if self.kind == "equal_spikes":
            return tuple([self.gamma * (n / m) ** 0.25] * self.rank)
        raise ParameterError("explicit signals have no spike parameterization")


def generate_signal(spec: SignalSpec, n: int, m: int, model: Optional[NoiseModel] = None) -> np.ndarray:
    """Assemble the signal matrix; positive-support families get a positivity
    check on the result."""
    if spec.kind == "explicit":
        x = np.asarray(spec.entries, dtype=float)
        if x.shape != (n, m):
            raise DomainError(f"explicit signal has shape {x.shape}, expected {(n, m)}")
    else:
        sigmas = np.asarray(spec.spike_strengths(n, m), dtype=float)
        r = len(sigmas)
        build = _RECIPES[spec.recipe]
        u = build(n, r)
        v = build(m, r)
        x = (u * sigmas) @ v.T
    if model is not None and model.family in ("gamma", "poisson") and np.any(x <= 0):
        raise DomainError(
            "the generated signal must be strictly positive for Gamma/Poisson noise; "
            "use the quadratic_profile recipe with a dominant leading spike"
        )
    return x


def generate_observation(signal: np.ndarray, model: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    return model.sample(signal, rng)


def rsnr(signal: np.ndarray, tau: float) -> float:
    """Root signal-to-noise ratio of a square signal matrix:
    entrywise standard deviation about the grand mean, divided by ``tau``."""
    x = np.asarray(signal, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DomainError("the RSNR convention is defined for square signal matrices")
    if not tau > 0:
        raise ParameterError("tau must be positive")
    return float(np.sqrt(np.mean((x - x.mean()) ** 2)) / tau)


# ---------------------------------------------------------------------------
# estimator tags


@dataclass(frozen=True)
class FitMethod:
    """What to fit and how: a parsed estimator tag or ``svshrink denoise`` flags."""

    name: str  # pca | soft | weighted | shrinker | oracle-shrinker | oracle-weights | oracle-soft
    objective: Optional[str] = None
    active: str = "default"  # bulk | greedy | all | default
    rank: Optional[int] = None
    loss: str = "se"  # oracle-soft target

    @property
    def needs_signal(self) -> bool:
        return self.name.startswith("oracle-")


ESTIMATOR_NAMES = (
    "pca", "soft", "weighted", "shrinker", "oracle-shrinker", "oracle-weights", "oracle-soft",
)


def resolve_method(method: FitMethod, model: NoiseModel) -> FitMethod:
    """Check a fit request against the noise model and fill the family
    defaults (the objective of soft and weighted fits, and the active set).
    Estimator tags and ``svshrink denoise`` flags both pass through here."""
    if method.name not in ESTIMATOR_NAMES:
        raise ParameterError(f"unknown estimator {method.name!r}; known: {list(ESTIMATOR_NAMES)}")
    gaussian = isinstance(model, Gaussian)
    if method.name in ("shrinker", "oracle-shrinker") and not gaussian:
        raise ParameterError(f"{method.name!r} is defined for Gaussian noise only")
    objective = method.objective
    if objective is not None or method.name in ("soft", "weighted"):
        objective = shrinkage.resolve_objective(model, objective)
    active = method.active
    if active == "default":
        active = "bulk" if gaussian else "greedy"
    if active not in ("bulk", "greedy", "all"):
        raise ParameterError(f"active must be bulk, greedy, or all, got {active!r}")
    if active == "bulk" and not gaussian:
        raise ParameterError("the bulk-edge active set needs Gaussian noise; use greedy")
    return replace(method, objective=objective, active=active)


def parse_estimator_tag(tag: str, model: NoiseModel) -> FitMethod:
    """Parse ``name[:key=value,...]`` tags, filling family defaults."""
    name, _, opts = tag.partition(":")
    fields = {"objective": None, "active": "default", "rank": None, "loss": "se"}
    if opts:
        for item in opts.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in fields or not value:
                raise ParameterError(f"bad option {item!r} in estimator tag {tag!r}")
            fields[key] = int(value) if key == "rank" else value.strip()
    return resolve_method(FitMethod(name.strip(), **fields), model)


def resolve_active(method: FitMethod, y, fact, model, clamp_floor) -> tuple[int, ...]:
    """The 1-based indices a resolved method keeps, capped at ``method.rank``."""
    if method.active == "all":
        selected = tuple(range(1, fact.rank_bound + 1))
    elif method.active == "bulk":
        selected = activeset.active_set_gaussian(fact, model.tau).selected
    else:
        selected = activeset.active_set_greedy(y, model, clamp_floor=clamp_floor, fact=fact).selected
    if method.rank is not None:
        selected = tuple(k for k in selected if k <= method.rank)
    return selected


def fit_estimator(
    method: FitMethod,
    observed: np.ndarray,
    fact: SvdFactorization,
    model: NoiseModel,
    rng: np.random.Generator,
    signal: Optional[np.ndarray] = None,
    clamp_floor: float = linalg.DEFAULT_CLAMP_FLOOR,
) -> tuple[SpectralFunction, dict]:
    """Fit one resolved method on one realization.

    Returns the fitted estimator and what the fit chose (active set, weights,
    threshold or scale).  This is the one place where fitted parameters
    become an estimator.
    """
    y = np.asarray(observed, dtype=float)
    s = fact.singular_values
    floor = None if isinstance(model, Gaussian) else clamp_floor

    if method.needs_signal and signal is None:
        raise ParameterError(f"{method.name} needs the true signal")

    if method.name == "pca":
        active = resolve_active(method, y, fact, model, clamp_floor)
        keep = np.zeros(fact.rank_bound)
        keep[np.asarray(active, dtype=int) - 1] = 1.0
        return linalg.weights_function(keep, floor), {"active_set": list(active)}

    if method.name == "soft":
        lam = shrinkage.soft_threshold_fit(
            y, model, method.objective, clamp_floor=floor, rng=rng, fact=fact
        )
        return linalg.soft_threshold_function(lam, floor), {"lambda": lam}

    if method.name == "weighted":
        active = resolve_active(method, y, fact, model, clamp_floor)
        w = _fit_weights(y, fact, model, method.objective, active, floor, rng)
        info = {"active_set": list(active), "weights": {str(k): float(w[k - 1]) for k in active}}
        return linalg.weights_function(w, floor), info

    if method.name == "oracle-soft":
        lam = shrinkage.oracle_soft_threshold(
            signal, y, model, method.loss, clamp_floor=floor, fact=fact
        )
        return linalg.soft_threshold_function(lam, floor), {"lambda": lam}

    if method.name == "oracle-weights":
        oracle = shrinkage.oracle_weights(signal, fact)
        return _fixed_values(oracle.values, floor), {"raw_weights": oracle.raw_weights.tolist()}

    c = fact.n / fact.m
    scale = model.tau * np.sqrt(fact.m) if isinstance(model, Gaussian) else 1.0

    if method.name == "shrinker":
        values = scale * np.asarray(rmt.shrinker_gd(s / scale, c))
        if method.rank is not None:
            values[method.rank:] = 0.0
        return _fixed_values(values, floor), {"scale": scale}

    if method.name == "oracle-shrinker":
        true_s = np.linalg.svd(signal, compute_uv=False) / scale
        values = np.zeros_like(s)
        r = int(np.sum(true_s > 1e-12 * max(true_s[0], 1.0)))
        for k in range(min(r, len(s))):
            # Undetectable spikes surface at the bulk edge, not at the
            # location map's algebraic value, so the oracle drops them.
            if true_s[k] > c**0.25:
                values[k] = scale * rmt.shrinker_gd(rmt.rho(true_s[k], c), c)
        return _fixed_values(values, floor), {"scale": scale}

    raise ParameterError(f"unhandled estimator {method.name!r}")


def _fit_weights(y, fact, model, objective, active, clamp_floor, rng) -> np.ndarray:
    """The weight vector of a weighted fit, with the fast paths: the Gaussian
    closed form, and the rank-one closed forms when the active set is
    exactly {1}."""
    if isinstance(model, Gaussian) and objective == "sure":
        return shrinkage.weights_gaussian(fact, model.tau, active)
    if active == (1,) and objective in ("sukls", "pukla"):
        w = np.zeros(fact.rank_bound)
        if objective == "sukls":
            w[0] = shrinkage.weight1_gamma_sukls(y, fact, model.shape, active)
        else:
            w[0] = shrinkage.weight1_poisson_pukla(y, fact, active)
        return w
    return shrinkage.optimize_weights_greedy(
        y, model, objective, active, clamp_floor=clamp_floor, rng=rng, fact=fact
    )


def _fixed_values(values: np.ndarray, clamp_floor: Optional[float]) -> SpectralFunction:
    """The oracle and asymptotic-shrinker estimators: values fixed at the
    observed spectrum, and no derivative, so no risk estimate applies."""

    def no_derivative(sigmas):
        raise ParameterError("oracle and asymptotic-shrinker estimators have no spectral derivative")

    return SpectralFunction(lambda sigmas: values, no_derivative, clamp_floor)


# ---------------------------------------------------------------------------
# experiment runner


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    m: int
    model: NoiseModel
    signal: SignalSpec
    estimators: tuple[str, ...]
    replications: int
    root_seed: int
    metrics: tuple[str, ...] = ("nmse",)
    sweep_parameter: Optional[str] = None
    sweep_values: tuple[float, ...] = ()
    clamp_floor: float = linalg.DEFAULT_CLAMP_FLOOR

    def __post_init__(self):
        # Both sweeps set the noise level by building a Gaussian model.
        if self.sweep_parameter in ("tau", "rsnr") and not isinstance(self.model, Gaussian):
            raise ParameterError(
                f"the {self.sweep_parameter} sweep needs Gaussian noise, not {self.model.family}"
            )

    @classmethod
    def from_config(cls, config: dict) -> "ExperimentConfig":
        validate_config(config)
        sweep = config.get("sweep")
        return cls(
            n=int(config["n"]),
            m=int(config["m"]),
            model=model_from_config(config["model"]),
            signal=SignalSpec.from_config(config["signal"]),
            estimators=tuple(config["estimators"]),
            replications=int(config["replications"]),
            root_seed=int(config["root_seed"]),
            metrics=tuple(config.get("metrics", ("nmse",))),
            sweep_parameter=None if sweep is None else sweep["parameter"],
            sweep_values=() if sweep is None else tuple(float(v) for v in sweep["values"]),
            clamp_floor=float(config.get("clamp_floor", linalg.DEFAULT_CLAMP_FLOOR)),
        )


@functools.cache
def _config_validator():
    """The validator of :data:`CONFIG_SCHEMA`, built on first use.  Building
    it once skips the metaschema check ``jsonschema.validate`` repeats on
    every call; jsonschema is imported here, not at module import."""
    import jsonschema

    return jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def validate_config(config: dict) -> None:
    """Schema-check a raw config dict, reporting the JSON location on failure.

    Raises the error ``jsonschema.validate`` would raise (the best match
    among all errors), as a :class:`ParameterError`.
    """
    from jsonschema.exceptions import best_match

    error = best_match(_config_validator().iter_errors(config))
    if error is not None:
        raise ParameterError(f"invalid experiment config at {error.json_path}: {error.message}") from error


@dataclass
class ExperimentResult:
    records: list[dict]
    summaries: list[dict]
    failures: list[dict] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sweep_param", "estimator", "replication", "metric_name", "value"])
            for rec in self.records:
                point = rec["sweep_param"]
                writer.writerow(
                    [
                        "" if point is None else repr(point),
                        rec["estimator"],
                        rec["replication"],
                        rec["metric_name"],
                        repr(rec["value"]),
                    ]
                )

    def summary_dict(self) -> dict:
        return {"cells": self.summaries, "failures": self.failures}

    def write_summary(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def median(self, sweep_value, estimator: str, metric_name: str) -> float:
        for cell in self.summaries:
            if (
                cell["sweep_param"] == sweep_value
                and cell["estimator"] == estimator
                and cell["metric_name"] == metric_name
            ):
                return cell["median"]
        raise KeyError((sweep_value, estimator, metric_name))


def _apply_sweep(config: ExperimentConfig, parameter: Optional[str], value):
    """Return (model, signal_spec) for one sweep point; a rank_cap sweep, or
    no sweep, keeps the config's."""
    model, signal = config.model, config.signal
    if parameter == "sigma1":
        if signal.kind != "spike":
            raise ParameterError("the sigma1 sweep needs a spike signal")
        sigmas = (float(value),) + signal.sigmas[1:]
        signal = SignalSpec("spike", sigmas=sigmas, recipe=signal.recipe)
    elif parameter == "true_rank":
        if signal.kind != "equal_spikes":
            raise ParameterError("the true_rank sweep needs an equal_spikes signal")
        signal = SignalSpec(
            "equal_spikes", gamma=signal.gamma, rank=int(value), recipe=signal.recipe
        )
    elif parameter == "tau":
        model = Gaussian(tau=float(value))
    elif parameter == "rsnr":
        x = generate_signal(signal, config.n, config.m)
        sd = float(np.sqrt(np.mean((x - x.mean()) ** 2)))
        model = Gaussian(tau=sd / float(value))
    return model, signal


def _replication_records(config: ExperimentConfig, sweep_idx: int, value, rep: int) -> list[dict]:
    """All records for one (sweep point, replication) cell; for rank_cap
    sweeps a single call covers every sweep value (shared data and fits)."""
    parameter = config.sweep_parameter
    shared_data = parameter == "rank_cap" or parameter is None
    model, signal_spec = _apply_sweep(config, parameter, value)
    data_key = [config.root_seed, 0 if shared_data else sweep_idx, rep]
    rng = np.random.default_rng(np.random.SeedSequence(data_key))
    x = generate_signal(signal_spec, config.n, config.m, model)
    y = generate_observation(x, model, rng)
    fact = linalg.svd(y)

    caps = [None] if parameter != "rank_cap" else [int(v) for v in config.sweep_values]
    sweep_labels = [value] if parameter != "rank_cap" else list(config.sweep_values)

    # Quadratic metrics of unclamped estimates are scored from the spectrum;
    # clamped estimates and the other metrics need the n x m estimate.
    spectral = metrics.SpectralScore(x, fact)
    records = []
    for est_idx, tag in enumerate(config.estimators):
        method = parse_estimator_tag(tag, model)
        est_rng = np.random.default_rng(
            np.random.SeedSequence([config.root_seed, 0 if shared_data else sweep_idx, rep, est_idx])
        )
        fn, _ = fit_estimator(method, y, fact, model, est_rng, signal=x, clamp_floor=config.clamp_floor)
        values = fn.values(fact.singular_values)
        for cap, label in zip(caps, sweep_labels):
            capped = values
            if cap is not None:
                capped = values.copy()
                capped[cap:] = 0.0
            xhat = None
            for metric_name in config.metrics:
                if fn.clamp_floor is None and metric_name in metrics.SPECTRAL_METRICS:
                    score = spectral.metric(metric_name, capped)
                else:
                    if xhat is None:
                        xhat = linalg.compose_clamped(fact, capped, fn.clamp_floor)
                    score = metrics.metric(metric_name, xhat, x, model)
                records.append(
                    {
                        "sweep_param": label,
                        "estimator": tag,
                        "replication": rep,
                        "metric_name": metric_name,
                        "value": score,
                    }
                )
    return records


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run every (sweep point, replication, estimator, metric) cell.

    Individual replication failures are recorded rather than fatal; the run
    aborts with :class:`NumericalError` only if more than 10% of the replication
    tasks fail.
    """
    parameter = config.sweep_parameter
    if parameter in ("rank_cap", None):
        tasks = [(0, config.sweep_values if parameter else None, rep) for rep in range(config.replications)]
    else:
        tasks = [
            (idx, val, rep)
            for idx, val in enumerate(config.sweep_values)
            for rep in range(config.replications)
        ]

    def run_task(task):
        idx, val, rep = task
        label = val if parameter not in ("rank_cap", None) else (None if parameter is None else 0.0)
        try:
            return _replication_records(config, idx, label, rep), None
        except (SvshrinkError, np.linalg.LinAlgError) as exc:
            point = None if parameter in ("rank_cap", None) else val
            return [], {"sweep_param": point, "replication": rep, "error": str(exc)}

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_task, tasks))
    else:
        outcomes = [run_task(t) for t in tasks]

    records, failures = [], []
    for recs, failure in outcomes:
        records.extend(recs)
        if failure is not None:
            failures.append(failure)
    if failures and len(failures) > 0.1 * len(tasks):
        raise NumericalError(
            f"{len(failures)} of {len(tasks)} replication tasks failed; first: {failures[0]}"
        )

    estimator_order = {tag: i for i, tag in enumerate(config.estimators)}
    metric_order = {name: i for i, name in enumerate(config.metrics)}
    sweep_order = {v: i for i, v in enumerate(config.sweep_values)}
    records.sort(
        key=lambda r: (
            sweep_order.get(r["sweep_param"], -1),
            estimator_order[r["estimator"]],
            r["replication"],
            metric_order[r["metric_name"]],
        )
    )

    summaries = []
    for value in (config.sweep_values or (None,)):
        label = value if parameter else None
        for tag in config.estimators:
            for metric_name in config.metrics:
                cell = [
                    r["value"]
                    for r in records
                    if r["sweep_param"] == label
                    and r["estimator"] == tag
                    and r["metric_name"] == metric_name
                ]
                if not cell:
                    continue
                q10, med, q90 = np.quantile(cell, [0.1, 0.5, 0.9], method="linear")
                summaries.append(
                    {
                        "sweep_param": label,
                        "estimator": tag,
                        "metric_name": metric_name,
                        "count": len(cell),
                        "q10": float(q10),
                        "median": float(med),
                        "q90": float(q90),
                    }
                )
    return ExperimentResult(records, summaries, failures)
