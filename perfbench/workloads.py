"""The benchmark workloads: CLI configs, control inputs and output checks.

Each workload is a cycle of CLI commands run against one config.  The
control CSVs a command reads are generated here; the CLI receives only these
files and a per-operation ``--seed``.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass
from typing import Callable

from fbsde_nearopt.model import LQParams, builtin_instance, constant_control, control_to_csv
from fbsde_nearopt.oracle import riccati_lq, riccati_open_loop_control
from fbsde_nearopt.paths import make_time_grid

import checks

C = 2.0
LAMBDA = 0.5
CONTROL_LOWER, CONTROL_UPPER = -1.0, 1.0
CONTROL = "<control.csv>"  # command token replaced by the generated control file


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    commands: tuple[tuple[str, ...], ...]
    # returns (problems, |gap|) for the outputs of one command
    check: Callable[[str, tuple[str, ...], dict], tuple[list[str], float]]
    control: Callable[[], object] | None = None

    def prepare(self, directory: str, seed: int) -> dict[str, str]:
        """Write the config (and control CSV) into ``directory``."""
        os.makedirs(directory, exist_ok=True)
        config = os.path.join(directory, "config.ini")
        with open(config, "w") as handle:
            handle.write(self.config.format(seed=seed))
        paths = {"config": config}
        if self.control is not None:
            paths["control"] = os.path.join(directory, "control.csv")
            control_to_csv(self.control(), paths["control"])
        return paths

    def settings(self, seed: int) -> dict[str, dict[str, str]]:
        """The config's sections as a dict: family, problem sizes, optimizer."""
        parser = configparser.ConfigParser()
        parser.read_string(self.config.format(seed=seed))
        return {section: dict(parser.items(section)) for section in parser.sections()}

    def argv(self, paths: dict[str, str], command: tuple[str, ...], seed: int, out_dir: str) -> list[str]:
        tail = [paths["control"] if token == CONTROL else token for token in command]
        return ["--config", paths["config"], "--seed", str(seed), "--out", out_dir, *tail]


def _load_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as handle:
        return json.load(handle)


def _certify_check(*, optimal: bool, agree: bool):
    def check(out_dir: str, command: tuple[str, ...], state: dict):
        cert = _load_json(out_dir, "certificate.json")
        sufficient = "--sufficient" in command
        problems = checks.certificate_problems(cert, sufficient=sufficient, C=C, lam=LAMBDA)
        if optimal:
            problems += checks.optimal_verdict_problems(cert, sufficient=sufficient)
        if agree:
            reference = state.setdefault("reference", cert)
            problems += checks.agreement_problems(cert, reference)
        return problems, abs(cert["gap"])

    return check


def _solve_check(steps: int):
    def check(out_dir: str, command: tuple[str, ...], state: dict):
        summary = _load_json(out_dir, "solve_summary.json")
        problems = checks.solve_problems(
            checks.read_trace_csv(os.path.join(out_dir, "trace.csv")),
            summary,
            checks.read_control_csv(os.path.join(out_dir, "final_control.csv")),
            steps=steps,
            lower=CONTROL_LOWER,
            upper=CONTROL_UPPER,
        )
        return problems, abs(summary["final_min_gap"])

    return check


def _riccati_control(dim: int, steps: int):
    params = LQParams(dim=dim)
    spec = builtin_instance("lq", dim=dim)
    grid = make_time_grid(params.horizon, steps)
    return riccati_open_loop_control(riccati_lq(params), params, grid, spec.control_set)


def _constant_control(family: str, value: float, steps: int):
    spec = builtin_instance(family)
    return constant_control(value, make_time_grid(spec.horizon, steps), spec.control_set)


CERTIFY = ("certify", "--control", CONTROL)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="certify-lq2",
            config=f"""[instance]
family = lq
dim = 2

[grid]
horizon = 1.0
steps = 64

[paths]
n_paths = 100000
seed = {{seed}}

[bsde]
degree = 2

[certificate]
c = {C}
lambda = {LAMBDA}
epsilon = auto
""",
            commands=(CERTIFY, (*CERTIFY, "--sufficient")),
            check=_certify_check(optimal=True, agree=False),
            control=lambda: _riccati_control(2, 64),
        ),
        Workload(
            name="certify-nonlinear",
            config=f"""[instance]
family = scalar_nonlinear

[grid]
horizon = 1.0
steps = 64

[paths]
n_paths = 100000
seed = {{seed}}

[bsde]
degree = 2

[certificate]
c = {C}
epsilon = 0.05
""",
            commands=(CERTIFY,),
            check=_certify_check(optimal=False, agree=True),
            control=lambda: _constant_control("scalar_nonlinear", 0.2, 64),
        ),
        Workload(
            name="solve-lq_obs",
            config=f"""[instance]
family = lq_obs
h_const = 0.5
sigma2 = 0.3
control_lower = {CONTROL_LOWER}
control_upper = {CONTROL_UPPER}

[grid]
horizon = 1.0
steps = 32

[paths]
n_paths = 20000
seed = {{seed}}

[bsde]
degree = 2

[optimizer]
max_iter = 6
step_rule = fw
tol_gap = 1e-3
u0 = center
""",
            commands=(("solve",),),
            check=_solve_check(32),
        ),
    )
}
