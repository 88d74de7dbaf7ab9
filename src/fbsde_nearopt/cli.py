"""Command-line pipeline driver.

Configs are flat INI key/value files with one section per concern; unknown
sections or keys are rejected so committed configs stay canonical.  Exit
codes: 0 success (inconclusive verdicts included), 1 domain failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import inspect
import json
import math
import os
import sys
import time

import numpy as np

from .bsde import MAX_DEGREE, BasisSpec, backward_bundle
from .errors import FbsdeError
from .forward_sim import evaluate_cost_strong, simulate_forward
from .model import (
    BUILTIN_FAMILIES,
    LQParams,
    builtin_instance,
    constant_control,
    control_from_csv,
    control_to_csv,
    live_terms,
    validate_problem,
)
from .nearopt import certify_necessary, certify_sufficient, estimate_order
from .optimizer import DescentParams, order_study, smp_descent
from .oracle import enumerate_lattice, riccati_lq, riccati_open_loop_control
from .paths import MAX_BINOMIAL_PATHS, enumerate_binomial, make_time_grid, sample_noise

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

ENV_OUT_DIR = "FBSDE_NEAROPT_OUT"
# the largest N whose 4**N lattice paths fit the binomial budget
MAX_ORACLE_STEPS = (MAX_BINOMIAL_PATHS.bit_length() - 1) // 2

_SECTION_KEYS = {
    "grid": {"horizon", "steps"},
    "paths": {"n_paths", "seed"},
    "bsde": {"degree"},
    "validation": {"samples", "tol"},
    "certificate": {"c", "lambda", "epsilon"},
    "optimizer": {"max_iter", "step_rule", "tol_gap", "u0"},
    "order_study": {"deltas", "direction"},
    "oracle": {"steps", "control"},
    "output": {"dir"},
}


class ConfigError(Exception):
    pass


def _family_keys(family: str) -> set[str]:
    factory = BUILTIN_FAMILIES[family]
    keys = set()
    for name, param in inspect.signature(factory).parameters.items():
        if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY) and name != "params":
            keys.add(name)
    if family in ("lq", "lq_obs"):
        keys |= {f.name for f in dataclasses.fields(LQParams)}
    return keys


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _finite(value, where: str):
    """``value``, with a non-finite float a bad config: a NaN passes every
    range check, and an infinite horizon overflows the samplers."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value}")
    return value


@dataclasses.dataclass
class RunConfig:
    family: str
    instance_params: dict
    horizon: float
    steps: int
    n_paths: int
    seed: int
    degree: int
    validation_samples: int
    validation_tol: float
    certificate_C: float
    certificate_lambda: float
    certificate_epsilon: str | float
    max_iter: int
    tol_gap: float
    u0: str
    deltas: list[float]
    direction: float
    oracle_steps: int
    oracle_control: float
    out_dir: str

    def grid(self):
        return make_time_grid(self.horizon, self.steps)

    def instance(self):
        return builtin_instance(self.family, horizon=self.horizon, **self.instance_params)

    def lq_params(self) -> LQParams:
        return LQParams(horizon=self.horizon, **self.instance_params)

    def basis(self):
        return BasisSpec(degree=self.degree)


def load_config(path: str) -> RunConfig:
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
        return _run_config(parser)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None


def _run_config(parser: configparser.ConfigParser) -> RunConfig:
    known_sections = set(_SECTION_KEYS) | {"instance"}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown config section [{section}]")

    if not parser.has_section("instance") or not parser.has_option("instance", "family"):
        raise ConfigError("config needs [instance] with a 'family' key")
    family = parser.get("instance", "family")
    if family not in BUILTIN_FAMILIES:
        raise ConfigError(
            f"unknown family {family!r}; available: {sorted(BUILTIN_FAMILIES)}"
        )
    allowed = _family_keys(family) | {"family"}
    instance_params = {}
    for key, value in parser.items("instance"):
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in [instance] for family {family!r}")
        if key == "horizon":
            raise ConfigError("set the horizon in [grid], not [instance]")
        if key != "family":
            instance_params[key] = _finite(_coerce(value), f"[instance] {key}")

    for section, allowed_keys in _SECTION_KEYS.items():
        if parser.has_section(section):
            for key, _ in parser.items(section):
                if key not in allowed_keys:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")

    def get(section, key, default, cast=float):
        if parser.has_option(section, key):
            return _finite(cast(parser.get(section, key)), f"[{section}] {key}")
        return default

    def positive(value, name, strict=True):
        if (value <= 0) if strict else (value < 0):
            sign = "positive" if strict else "non-negative"
            raise ConfigError(f"{name} must be {sign}, got {value}")
        return value

    deltas_raw = get("order_study", "deltas", "0.04,0.08,0.12,0.2,0.3", str)
    tokens = deltas_raw.replace(";", ",").split(",")
    deltas = [_finite(float(tok), "[order_study] deltas") for tok in tokens if tok.strip()]

    step_rule = get("optimizer", "step_rule", "fw", str)
    if step_rule != "fw":
        raise ConfigError(f"step_rule must be fw, the only rule, got {step_rule!r}")

    degree = get("bsde", "degree", 2, int)
    if not 0 <= degree <= MAX_DEGREE:
        raise ConfigError(f"degree must be in [0, {MAX_DEGREE}], got {degree}")

    oracle_steps = int(positive(get("oracle", "steps", 4, int), "oracle steps"))
    if oracle_steps > MAX_ORACLE_STEPS:
        raise ConfigError(f"oracle steps must be at most {MAX_ORACLE_STEPS}, got {oracle_steps}")

    epsilon = get("certificate", "epsilon", "auto", str)
    if epsilon != "auto":
        epsilon = _finite(float(epsilon), "[certificate] epsilon")
        if epsilon < 0:
            raise ConfigError("epsilon must be >= 0")

    return RunConfig(
        family=family,
        instance_params=instance_params,
        horizon=positive(get("grid", "horizon", 1.0), "horizon"),
        steps=int(positive(get("grid", "steps", 64, int), "steps")),
        n_paths=int(positive(get("paths", "n_paths", 100_000, int), "n_paths")),
        seed=positive(get("paths", "seed", 0, int), "seed", strict=False),
        degree=degree,
        validation_samples=int(positive(get("validation", "samples", 100, int), "samples")),
        validation_tol=positive(get("validation", "tol", 1e-4), "tol"),
        certificate_C=positive(get("certificate", "c", 2.0), "C"),
        certificate_lambda=positive(get("certificate", "lambda", 0.5), "lambda"),
        certificate_epsilon=epsilon,
        max_iter=int(positive(get("optimizer", "max_iter", 100, int), "max_iter", strict=False)),
        tol_gap=positive(get("optimizer", "tol_gap", 1e-3), "tol_gap"),
        u0=get("optimizer", "u0", "center", str),
        deltas=deltas,
        direction=get("order_study", "direction", 1.0),
        oracle_steps=oracle_steps,
        oracle_control=get("oracle", "control", 0.0),
        out_dir=get("output", "dir", os.environ.get(ENV_OUT_DIR, "."), str),
    )


def _write_json(payload: dict, cfg: RunConfig, name: str, command: str) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    payload = dict(payload)
    payload["meta"] = {
        "command": command,
        "instance": cfg.family,
        "seed": cfg.seed,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "live_terms": dataclasses.asdict(live_terms(cfg.instance())),
    }
    with open(os.path.join(cfg.out_dir, name), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _oracle_epsilon(cfg: RunConfig, spec, bwd) -> float:
    """The configured epsilon, or an upper confidence bound on J(control) - J*.

    ``auto`` takes J(control) on the bundle ``bwd`` minus the Riccati value, plus
    three standard errors of J, floored at 0.  A point estimate clamped at
    0 would shrink the gap threshold to -3 stderr whenever Monte-Carlo noise
    puts J below J*, and an optimal control would then fail its certificate.
    """
    if cfg.certificate_epsilon != "auto":
        return float(cfg.certificate_epsilon)
    if cfg.family != "lq":
        raise FbsdeError(
            "epsilon = auto needs the lq family oracle; set [certificate] epsilon explicitly"
        )
    cost = evaluate_cost_strong(spec, bwd)
    sol = riccati_lq(cfg.lq_params())
    return max(cost.value - sol.optimal_cost + 3.0 * cost.stderr, 0.0)


def _initial_control(cfg: RunConfig, spec, grid):
    if cfg.u0 == "center":
        return constant_control(spec.control_set.center(), grid, spec.control_set)
    try:
        value = float(cfg.u0)
    except ValueError:
        return control_from_csv(cfg.u0, grid, spec.control_set)
    return constant_control(np.full(spec.dim_u, value), grid, spec.control_set)


def cmd_validate(cfg: RunConfig) -> int:
    spec = cfg.instance()
    report = validate_problem(
        spec, samples=cfg.validation_samples, seed=cfg.seed, tol=cfg.validation_tol
    )
    _write_json(report.to_dict(), cfg, "validate_report.json", "validate")
    print(f"validation {'passed' if report.passed else 'FAILED'}: validate_report.json")
    if not report.passed:
        print("failing coefficients: " + ", ".join(report.failing()))
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_solve(cfg: RunConfig) -> int:
    spec = cfg.instance()
    grid = cfg.grid()
    u0 = _initial_control(cfg, spec, grid)
    params = DescentParams(
        max_iter=cfg.max_iter,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
        tol_gap=cfg.tol_gap,
        basis=cfg.basis(),
    )
    trace = smp_descent(spec, u0, params)
    os.makedirs(cfg.out_dir, exist_ok=True)
    trace.to_csv(os.path.join(cfg.out_dir, "trace.csv"))
    control_to_csv(trace.final_control, os.path.join(cfg.out_dir, "final_control.csv"))

    summary = {
        "final_cost": trace.final_cost,
        "final_min_gap": trace.rows[-1].min_gap,
        "iterations": len(trace.rows) - 1,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "trace": "trace.csv",
        "control": "final_control.csv",
    }
    if cfg.family == "lq":
        sol = riccati_lq(cfg.lq_params())
        summary["oracle_cost"] = sol.optimal_cost
        summary["relative_error"] = abs(trace.final_cost - sol.optimal_cost) / abs(
            sol.optimal_cost
        )
    _write_json(summary, cfg, "solve_summary.json", "solve")
    print(f"solve finished: cost {trace.final_cost:.6g} ({trace.stop_reason})")
    return EXIT_OK


def cmd_certify(cfg: RunConfig, control_path: str, sufficient: bool) -> int:
    spec = cfg.instance()
    grid = cfg.grid()
    control = control_from_csv(control_path, grid, spec.control_set)

    noise = sample_noise(grid, cfg.n_paths, cfg.seed)
    bwd = backward_bundle(spec, simulate_forward(spec, control, noise), cfg.basis())
    epsilon = _oracle_epsilon(cfg, spec, bwd)
    if sufficient:
        certificate = certify_sufficient(
            spec, bwd, epsilon, cfg.certificate_lambda, cfg.certificate_C
        )
    else:
        certificate = certify_necessary(spec, bwd, epsilon, cfg.certificate_C)
    _write_json(certificate.to_dict(), cfg, "certificate.json", "certify")
    print(f"verdict: {certificate.verdict} (gap {certificate.gap:.3e})")
    return EXIT_OK


def cmd_order_study(cfg: RunConfig) -> int:
    spec = cfg.instance()
    grid = cfg.grid()
    deltas = [d for d in cfg.deltas if d != 0.0]
    dropped = len(cfg.deltas) - len(deltas)
    if len(deltas) < 3:
        print("order study needs at least 3 non-zero deltas", file=sys.stderr)
        return EXIT_DOMAIN
    if cfg.family != "lq":
        print("order study needs the lq family oracle", file=sys.stderr)
        return EXIT_DOMAIN
    lq = cfg.lq_params()
    sol = riccati_lq(lq)
    u_star = riccati_open_loop_control(sol, lq, grid, spec.control_set)
    direction = constant_control(
        np.full(spec.dim_u, cfg.direction), grid, spec.control_set
    )
    noise = sample_noise(grid, cfg.n_paths, cfg.seed)
    members = order_study(
        spec, u_star, deltas, direction, sol.optimal_cost, noise, cfg.basis()
    )

    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "order_study.csv"), "w") as handle:
        handle.write("delta,epsilon,min_gap,gap_stderr\n")
        for delta, _, eps, gap in members:
            handle.write(f"{delta!r},{eps!r},{gap.gap!r},{gap.stderr!r}\n")

    try:
        exponent, constant = estimate_order([(eps, gap.gap) for _, _, eps, gap in members])
    except FbsdeError as exc:
        print(f"order fit failed: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    summary = {
        "fitted_exponent": exponent,
        "fitted_C": constant,
        "points": len(members),
        "dropped_zero_deltas": dropped,
        "csv": "order_study.csv",
    }
    _write_json(summary, cfg, "order_summary.json", "order-study")
    print(f"fitted exponent {exponent:.3f}, constant {constant:.3f}")
    return EXIT_OK


def cmd_oracle_compare(cfg: RunConfig) -> int:
    spec = cfg.instance()
    steps = cfg.oracle_steps
    grid = make_time_grid(cfg.horizon, steps)
    control = constant_control(
        np.full(spec.dim_u, cfg.oracle_control), grid, spec.control_set
    )
    lattice = enumerate_lattice(spec, control, grid)
    basis = BasisSpec(degree=min(cfg.degree, 1))
    fwd = simulate_forward(spec, control, enumerate_binomial(grid))
    mc = evaluate_cost_strong(spec, backward_bundle(spec, fwd, basis))
    diff = abs(lattice.cost - mc.value)
    payload = {
        "lattice_cost": lattice.cost,
        "pipeline_cost": mc.value,
        "abs_diff": diff,
        "steps": steps,
        "paths": 4**steps,
    }
    if cfg.family == "lq":
        payload["riccati_cost"] = riccati_lq(cfg.lq_params()).optimal_cost
    _write_json(payload, cfg, "oracle_compare.json", "oracle-compare")
    print(f"lattice vs pipeline |diff| = {diff:.3e}")
    return EXIT_OK if diff <= 1e-12 else EXIT_DOMAIN


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fbsde-nearopt",
        description="Simulate partially observed forward-backward control systems "
        "and compute near-optimality certificates.",
    )
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override [paths] seed")
    parser.add_argument("--out", default=None, help="override output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate")
    sub.add_parser("solve")
    certify = sub.add_parser("certify")
    certify.add_argument("--control", required=True, help="control CSV from solve")
    certify.add_argument("--sufficient", action="store_true")
    sub.add_parser("order-study")
    sub.add_parser("oracle-compare")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        cfg = load_config(args.config)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ValueError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.seed is not None:
        if args.seed < 0:
            print(f"bad --seed: must be non-negative, got {args.seed}", file=sys.stderr)
            return EXIT_USAGE
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out

    try:
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "certify":
            return cmd_certify(cfg, args.control, args.sufficient)
        if args.command == "order-study":
            return cmd_order_study(cfg)
        if args.command == "oracle-compare":
            return cmd_oracle_compare(cfg)
    except FbsdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
