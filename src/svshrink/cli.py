"""Command-line front end.

Subcommands: ``denoise`` (shrink a matrix file), ``activeset`` (report the
selected singular-value indices), ``experiment`` (run a replication sweep
from a JSON config), and ``asymptotics`` (query the large-dimension
reference formulas).  Exit codes: 0 success, 1 usage error, 2 domain or
numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments, linalg, matrixio, risk, rmt
from .errors import NumericalError, ParameterError, SvshrinkError
from .models import Gamma, Gaussian, Poisson

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2

REPORT_MC_SAMPLES = 64  # probe directions for reported (not optimized) risks


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        raise UsageError(message)


@functools.cache  # parsing leaves no state in the parser, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="svshrink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    den = sub.add_parser("denoise", help="denoise a matrix file by singular-value shrinkage")
    den.add_argument("--input", required=True)
    den.add_argument("--family", required=True, choices=["gaussian", "gamma", "poisson"])
    den.add_argument("--tau", type=float)
    den.add_argument("--L", type=float)
    den.add_argument("--method", required=True, choices=["pca", "soft", "weights"])
    den.add_argument("--objective", choices=["sure", "gsure", "sukls", "pure", "pukla"])
    den.add_argument("--rank", type=int)
    den.add_argument("--active-set", choices=["bulk", "greedy", "all"])
    den.add_argument("--epsilon", type=float, default=linalg.DEFAULT_CLAMP_FLOOR)
    den.add_argument("--seed", type=int, default=0)
    den.add_argument("--output", required=True)

    act = sub.add_parser("activeset", help="report the selected active set of singular values")
    act.add_argument("--input", required=True)
    act.add_argument("--family", required=True, choices=["gaussian", "gamma", "poisson"])
    act.add_argument("--tau", type=float)
    act.add_argument("--L", type=float)
    act.add_argument("--method", choices=["bulk", "greedy"])
    act.add_argument("--epsilon", type=float, default=linalg.DEFAULT_CLAMP_FLOOR)
    act.add_argument("--output")

    exp = sub.add_parser("experiment", help="run a seeded replication sweep from a JSON config")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out-dir", required=True)
    exp.add_argument("--threads", type=int, default=1)

    asym = sub.add_parser("asymptotics", help="query the large-dimension reference formulas")
    asym.add_argument("--c", type=float, required=True)
    group = asym.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma", type=float)
    group.add_argument("--y", type=float)
    return parser


def _as_usage(check, *args):
    """``check(*args)``, its :class:`ParameterError` a usage error: it checks
    flags before any data-dependent work."""
    try:
        return check(*args)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc


def _model_from_args(args) -> Gaussian | Gamma | Poisson:
    if args.family == "gaussian":
        if args.tau is None:
            raise UsageError("--family gaussian requires --tau")
        if args.L is not None:
            raise UsageError("--L applies to the gamma family only")
        return Gaussian(tau=args.tau)
    if args.family == "gamma":
        if args.L is None:
            raise UsageError("--family gamma requires --L")
        if args.tau is not None:
            raise UsageError("--tau applies to the gaussian family only")
        return Gamma(shape=args.L)
    if args.tau is not None or args.L is not None:
        raise UsageError("--tau/--L do not apply to the poisson family")
    return Poisson()


def _check_epsilon(args) -> None:
    if not 0 < args.epsilon < np.inf:
        raise UsageError(f"--epsilon must be positive and finite, got {args.epsilon}")


def _fit_method(args, model) -> experiments.FitMethod:
    """The fit request the flags describe."""
    if args.rank is not None and args.active_set is not None:
        raise UsageError("--rank and --active-set are mutually exclusive")
    method = experiments.FitMethod(
        "weighted" if args.method == "weights" else args.method,
        args.objective,
        "all" if args.rank is not None else args.active_set or "default",
        args.rank,
    )
    return _as_usage(experiments.resolve_method, method, model)


def _cmd_denoise(args) -> int:
    started = time.perf_counter()
    path = Path(args.input)
    if not path.exists():
        raise UsageError(f"input file not found: {path}")
    model = _as_usage(_model_from_args, args)
    # Flag validation happens before any data-dependent work so that bad
    # combinations exit as usage errors, not domain errors.
    method = _fit_method(args, model)
    _check_epsilon(args)
    _as_usage(experiments.check_integer, args.seed, "--seed must be a nonnegative integer", 0)
    objective = method.objective or ("sure" if model.family == "gaussian" else None)
    y = matrixio.read_matrix(path)
    if isinstance(model, Gaussian):
        _as_usage(model.check_noise_energy, *y.shape)
    if args.rank is not None and args.rank > min(y.shape):
        raise UsageError(f"--rank must be in [0, {min(y.shape)}]")
    rng = np.random.default_rng(args.seed)
    fact = linalg.svd(y)

    obs = experiments.Observation(y, fact, model, args.epsilon)
    fn, sidecar = experiments.fit_estimator(method, obs, rng)
    if method.name == "soft":
        sidecar["active_set"] = list(obs.selected(method))
    denoised = linalg.reconstruct(fact, fn)
    if objective is not None:
        evaluate = risk.make_risk_objective(
            y, fact, model, objective, rng=rng, samples=REPORT_MC_SAMPLES, exact=True
        )
        sidecar["risk"] = evaluate(fn).to_json()

    matrixio.write_matrix_csv(args.output, denoised, header="denoised matrix")
    sidecar["timing_seconds"] = time.perf_counter() - started
    sidecar_path = Path(args.output).with_suffix(Path(args.output).suffix + ".json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_activeset(args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise UsageError(f"input file not found: {path}")
    model = _as_usage(_model_from_args, args)
    _check_epsilon(args)
    # The set a pca fit keeps: one rule picks the default and checks bulk.
    pca = experiments.FitMethod("pca", active=args.method or "default")
    method = _as_usage(experiments.resolve_method, pca, model)
    y = matrixio.read_matrix(path)
    obs = experiments.Observation(y, linalg.svd(y), model, args.epsilon)
    report = obs.bulk if method.active == "bulk" else obs.greedy
    payload = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    config_path = Path(args.config)
    if not config_path.exists():
        raise UsageError(f"config file not found: {config_path}")
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    try:
        config = experiments.ExperimentConfig.from_config(raw)
    except SvshrinkError as exc:
        raise UsageError(str(exc)) from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = experiments.run_experiment(config, threads=args.threads)
    result.write_csv(out_dir / "records.csv")
    result.write_summary(out_dir / "summary.json")
    return EXIT_OK


def _asymptotics(c: float, sigma, y) -> dict:
    """The reference quantities at aspect ratio ``c`` and a spike strength
    ``sigma`` or an observed singular value ``y``; the other one is ``None``."""
    edge = rmt.bulk_edge(c)
    if sigma is not None:
        y = rmt.rho(sigma, c)
    elif y > edge:
        sigma = rmt.sigma_from_rho(y, c)
    detectable = sigma is not None and sigma > c**0.25
    gd = rmt.shrinker_gd(y, c)
    return {
        "c": c,
        "bulk_edge": edge,
        "sigma": sigma,
        "rho": y,
        "shrinker_gd": gd,
        "shrinker_sigma": rmt.shrinker_sigma(sigma, c) if sigma is not None else gd,
        "optimal_weight": rmt.asymptotic_optimal_weight(sigma, c) if detectable else 0.0,
        "g_mp_at_rho_sq": rmt.mp_cauchy(np.square(y), c) if y > edge else None,
        "dof_term": rmt.asymptotic_dof([gd], [sigma], c) if detectable else 0.0,
    }


def _cmd_asymptotics(args) -> int:
    for flag in ("c", "sigma", "y"):
        value = getattr(args, flag)
        if value is not None and not np.isfinite(value):
            raise UsageError(f"--{flag} must be finite, got {value}")
    rmt.bulk_edge(args.c)  # validates the aspect ratio
    if args.sigma is not None and args.sigma <= 0:
        raise UsageError("--sigma must be positive")
    if args.y is not None and args.y < 0:
        raise UsageError("--y must be nonnegative")
    # A field outside the float range is reported by name below, not warned about.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = _asymptotics(args.c, args.sigma, args.y)
    for name, value in out.items():
        if value is not None and not np.isfinite(value):
            raise NumericalError(f"asymptotics field {name!r} is not finite: {value}")
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return EXIT_OK


_COMMANDS = {
    "denoise": _cmd_denoise,
    "activeset": _cmd_activeset,
    "experiment": _cmd_experiment,
    "asymptotics": _cmd_asymptotics,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SvshrinkError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
