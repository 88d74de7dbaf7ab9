import json
import tracemalloc

import pytest

from fbsde_nearopt import (
    bsde,
    certify_necessary,
    certify_sufficient,
    cli,
    constant_control,
    evaluate_cost_strong,
    nearopt,
    optimizer,
    order_study,
    riccati_lq,
    riccati_open_loop_control,
    sample_noise,
    simulate_forward,
    solve_backward,
)
from fbsde_nearopt.model import (
    BUILTIN_FAMILIES,
    control_from_csv,
    control_to_csv,
    live_terms,
)


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


BASE = """
[instance]
family = lq

[grid]
horizon = 1.0
steps = 8

[paths]
n_paths = 2000
seed = 3

[optimizer]
max_iter = 10
tol_gap = 1e-3

[output]
dir = {out}
"""


def _base_config(tmp_path, extra="", family_block=None):
    body = BASE.format(out=tmp_path / "out")
    if family_block:
        body = body.replace("[instance]\nfamily = lq", family_block)
    return write_config(tmp_path, body + extra)


def test_validate_builtin_lq(tmp_path, capsys):
    cfg = _base_config(tmp_path)
    assert cli.main(["--config", cfg, "validate"]) == 0
    report = json.loads((tmp_path / "out" / "validate_report.json").read_text())
    assert report["passed"] is True
    assert capsys.readouterr().out == "validation passed: validate_report.json\n"


def test_validate_failure_exits_one(tmp_path, monkeypatch):
    import sys

    sys.path.insert(0, str(tmp_path.parent))
    from _instances import wrong_derivative_instance

    monkeypatch.setitem(BUILTIN_FAMILIES, "broken", lambda **kw: wrong_derivative_instance())
    cfg = _base_config(tmp_path, family_block="[instance]\nfamily = broken")
    assert cli.main(["--config", cfg, "validate"]) == 1
    report = json.loads((tmp_path / "out" / "validate_report.json").read_text())
    assert any(c["name"] == "drift_b" and c["max_discrepancy"] > 1e-4 for c in report["checks"])


def test_missing_config_exits_two(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "absent.ini"), "validate"]) == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        ("[output]", "[grid2]\nsteps = 3\n\n[output]"),
        ("[output]", "[certificate]\nbogus = 1\n\n[output]"),
        ("tol_gap = 1e-3", "tol_gap = 1e-3\nstep_rule = pg"),
        ("[output]", "[optimizer]\nmax_iter = 3\n\n[output]"),
        ("tol_gap = 1e-3", "tol_gap = 1e-3\ntol_gap = 1e-2"),
        ("\n[instance]", "stray = 1\n[instance]"),
        ("seed = 3", "seed = -3"),
        ("[output]", "[bsde]\ndegree = 7\n\n[output]"),
        ("[output]", "[oracle]\nsteps = 10\n\n[output]"),
        ("[output]", "[certificate]\nepsilon = nan\n\n[output]"),
        ("[output]", "[certificate]\nc = nan\n\n[output]"),
        ("horizon = 1.0", "horizon = inf"),
        ("[output]", "[order_study]\ndeltas = 0.1,nan,0.3\n\n[output]"),
        ("[output]", "[order_study]\ndirection = -inf\n\n[output]"),
        ("[output]", "[oracle]\ncontrol = nan\n\n[output]"),
        ("family = lq", "family = lq\nsigma = inf"),
    ],
    ids=[
        "unknown-section",
        "unknown-key",
        "unknown-step-rule",
        "duplicate-section",
        "duplicate-key",
        "no-section-header",
        "negative-seed",
        "degree-out-of-range",
        "oracle-steps-above-limit",
        "nan-epsilon",
        "nan-C",
        "infinite-horizon",
        "nan-delta",
        "infinite-direction",
        "nan-oracle-control",
        "infinite-instance-parameter",
    ],
)
def test_unknown_key_exits_two(tmp_path, edit):
    body = BASE.format(out=tmp_path / "out")
    assert edit[0] in body
    cfg = write_config(tmp_path, body.replace(*edit))
    assert cli.main(["--config", cfg, "validate"]) == 2


def test_negative_seed_flag_exits_two(tmp_path, capsys):
    assert cli.main(["--config", _base_config(tmp_path), "--seed", "-1", "validate"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_solve_writes_artifacts(tmp_path):
    cfg = _base_config(tmp_path)
    assert cli.main(["--config", cfg, "solve"]) == 0
    out = tmp_path / "out"
    assert (out / "trace.csv").exists()
    assert (out / "final_control.csv").exists()
    summary = json.loads((out / "solve_summary.json").read_text())
    assert summary["relative_error"] <= 0.05
    assert summary["meta"]["command"] == "solve"


def test_solve_outputs_name_files_relative_to_out(tmp_path):
    # one run written to two directories differs only in meta
    cfg = _base_config(tmp_path)
    outputs = {}
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["--config", cfg, "--out", str(out), "solve"]) == 0
        summary = json.loads((out / "solve_summary.json").read_text())
        summary.pop("meta")
        files = [(out / f).read_bytes() for f in (summary["trace"], summary["control"])]
        outputs[name] = (summary, files)
    assert outputs["a"] == outputs["b"]
    assert outputs["a"][0]["trace"] == "trace.csv"
    assert outputs["a"][0]["control"] == "final_control.csv"


def test_solve_zero_iterations_single_row(tmp_path):
    cfg = _base_config(tmp_path)
    with open(cfg) as handle:
        body = handle.read()
    cfg2 = write_config(tmp_path, body.replace("max_iter = 10", "max_iter = 0"), name="run0.ini")
    assert cli.main(["--config", cfg2, "solve"]) == 0
    lines = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the u0 diagnostics row


def test_solve_infeasible_u0_exits_one(tmp_path):
    bad = tmp_path / "u0.csv"
    bad.write_text("step,u0\n" + "\n".join(f"{i},5.0" for i in range(8)) + "\n")
    cfg = _base_config(tmp_path, extra=f"\n[optimizer]\nu0 = {bad}\n")
    # configparser merges duplicate sections; rewrite cleanly instead
    body = BASE.format(out=tmp_path / "out").replace(
        "max_iter = 10", f"max_iter = 10\nu0 = {bad}"
    )
    cfg = write_config(tmp_path, body, name="bad_u0.ini")
    assert cli.main(["--config", cfg, "solve"]) == 1


def test_certify_roundtrip(tmp_path):
    cfg = _base_config(tmp_path)
    assert cli.main(["--config", cfg, "solve"]) == 0
    control = str(tmp_path / "out" / "final_control.csv")
    assert cli.main(["--config", cfg, "certify", "--control", control]) == 0
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["verdict"] == "necessary-holds"

    assert cli.main(["--config", cfg, "certify", "--control", control, "--sufficient"]) == 0
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["verdict"] == "sufficient-near-optimal"


def test_certify_sufficient_inconclusive_on_double_well(tmp_path):
    body = BASE.format(out=tmp_path / "out").replace(
        "[instance]\nfamily = lq", "[instance]\nfamily = double_well"
    )
    body += "\n[certificate]\nepsilon = 0.1\nc = 10.0\n"
    cfg = write_config(tmp_path, body)
    control = tmp_path / "u.csv"
    control.write_text("step,u0\n" + "\n".join(f"{i},0.0" for i in range(8)) + "\n")
    code = cli.main(["--config", cfg, "certify", "--control", str(control), "--sufficient"])
    assert code == 0  # inconclusive is not a failure
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["verdict"] == "inconclusive"


def test_auto_epsilon_is_an_upper_confidence_bound(tmp_path):
    # at this seed the Riccati control's J lies below J*: the clamped point
    # estimate would give epsilon = 0, and the gap threshold only -3 stderr
    body = BASE.format(out=tmp_path / "out")
    body = body.replace("family = lq", "family = lq\ndim = 2")
    body = body.replace("steps = 8", "steps = 32").replace("n_paths = 2000", "n_paths = 20000")
    body = body.replace("seed = 3", "seed = 11") + "\n[certificate]\nepsilon = auto\n"
    cfg = write_config(tmp_path, body)
    run = cli.load_config(cfg)
    spec, grid, lq = run.instance(), run.grid(), run.lq_params()
    sol = riccati_lq(lq)
    u_star = riccati_open_loop_control(sol, lq, grid, spec.control_set)
    control = str(tmp_path / "u_star.csv")
    control_to_csv(u_star, control)
    assert cli.main(["--config", cfg, "certify", "--control", control]) == 0
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())

    noise = sample_noise(grid, run.n_paths, run.seed)
    fwd = simulate_forward(spec, u_star, noise)
    cost = evaluate_cost_strong(spec, solve_backward(spec, fwd))
    assert cost.value - sol.optimal_cost < 0.0
    assert cert["epsilon"] == max(cost.value - sol.optimal_cost + 3.0 * cost.stderr, 0.0)
    assert cert["epsilon"] > 0.0


def test_certify_infeasible_control_exits_one(tmp_path):
    cfg = _base_config(tmp_path)
    control = tmp_path / "u.csv"
    control.write_text("step,u0\n" + "\n".join(f"{i},9.0" for i in range(8)) + "\n")
    assert cli.main(["--config", cfg, "certify", "--control", str(control)]) == 1


def test_order_study(tmp_path):
    body = BASE.format(out=tmp_path / "out")
    body += "\n[order_study]\ndeltas = 0.0,0.05,0.1,0.2,0.3\n"
    cfg = write_config(tmp_path, body)
    assert cli.main(["--config", cfg, "order-study"]) == 0
    summary = json.loads((tmp_path / "out" / "order_summary.json").read_text())
    assert summary["dropped_zero_deltas"] == 1
    assert summary["points"] == 4
    assert summary["fitted_exponent"] >= 0.4
    assert summary["csv"] == "order_study.csv"
    csv_lines = (tmp_path / "out" / summary["csv"]).read_text().strip().splitlines()
    assert len(csv_lines) == 5


def test_order_study_too_few_deltas(tmp_path):
    body = BASE.format(out=tmp_path / "out") + "\n[order_study]\ndeltas = 0.0,0.1\n"
    cfg = write_config(tmp_path, body)
    assert cli.main(["--config", cfg, "order-study"]) == 1


def test_oracle_compare(tmp_path):
    cfg = _base_config(tmp_path)
    assert cli.main(["--config", cfg, "oracle-compare"]) == 0
    payload = json.loads((tmp_path / "out" / "oracle_compare.json").read_text())
    assert payload["abs_diff"] <= 1e-12
    assert "riccati_cost" in payload


def test_oracle_compare_runs_at_its_step_limit(tmp_path):
    cfg = _base_config(tmp_path, extra=f"\n[oracle]\nsteps = {cli.MAX_ORACLE_STEPS}\n")
    assert cli.main(["--config", cfg, "oracle-compare"]) == 0
    payload = json.loads((tmp_path / "out" / "oracle_compare.json").read_text())
    assert payload["steps"] == cli.MAX_ORACLE_STEPS == 9


def test_seed_flag_and_determinism(tmp_path):
    cfg = _base_config(tmp_path)
    control = tmp_path / "u.csv"
    control.write_text("step,u0\n" + "\n".join(f"{i},-0.4" for i in range(8)) + "\n")

    def run(out_name):
        code = cli.main(
            ["--config", cfg, "--seed", "11", "--out", str(tmp_path / out_name),
             "certify", "--control", str(control)]
        )
        assert code == 0
        payload = json.loads((tmp_path / out_name / "certificate.json").read_text())
        payload.pop("meta")
        return payload

    assert run("a") == run("b")


@pytest.mark.parametrize("family", ["lq", "lq_obs"])
def test_reports_show_the_live_terms(tmp_path, family):
    cfg = _base_config(
        tmp_path, extra="\n[certificate]\nepsilon = 0.05\n", family_block=f"[instance]\nfamily = {family}"
    )
    control = tmp_path / "u.csv"
    control.write_text("step,u0\n" + "\n".join(f"{i},-0.4" for i in range(8)) + "\n")
    assert cli.main(["--config", cfg, "certify", "--control", str(control)]) == 0
    meta = json.loads((tmp_path / "out" / "certificate.json").read_text())["meta"]
    # lq_obs observes through a constant h = 0.5 with sigma2 = 0.3: the density,
    # the sigma2 terms and q1, q2 are live; neither family reads y or z
    observed = family == "lq_obs"
    assert meta["live_terms"] == {
        "sigma2": observed,
        "density": observed,
        "backward": False,
        "driver": False,
        "k_partials": [],
        "value_system": False,
        "integrands": observed,
    }


PIPELINE_LAYERS = ("sample_noise", "simulate_forward", "solve_backward")


@pytest.fixture
def layer_calls(monkeypatch):
    """Count calls of the noise, forward and backward layers from the command
    paths, and from ``bsde``'s bundle helpers."""
    counts = dict.fromkeys(PIPELINE_LAYERS, 0)
    for module in (cli, nearopt, optimizer, bsde):
        for name in PIPELINE_LAYERS:
            if hasattr(module, name):

                def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                    counts[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize(
    "family, sufficient",
    [("lq", False), ("lq", True), ("scalar_nonlinear", False)],
    ids=["False", "True", "scalar_nonlinear"],
)
def test_certify_runs_each_layer_once(tmp_path, layer_calls, family, sufficient):
    block = f"[instance]\nfamily = {family}"
    extra = "\n[certificate]\nepsilon = 0.05\n" if family != "lq" else ""
    cfg = _base_config(tmp_path, extra=extra, family_block=block)
    control = tmp_path / "u.csv"
    control.write_text("step,u0\n" + "\n".join(f"{i},-0.4" for i in range(8)) + "\n")
    flags = ["--sufficient"] if sufficient else []
    assert cli.main(["--config", cfg, "certify", "--control", str(control), *flags]) == 0
    # neither the cost nor the adjoint reads y or z on lq or scalar_nonlinear
    # (its f_y only ever multiplies k = 0), so no backward equation is solved
    assert layer_calls == {"sample_noise": 1, "simulate_forward": 1, "solve_backward": 0}

    # the certificate equals the library's at the same seed and epsilon
    payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
    payload.pop("meta")
    run = cli.load_config(cfg)
    spec = run.instance()
    u = control_from_csv(str(control), run.grid(), spec.control_set)
    noise = sample_noise(run.grid(), run.n_paths, run.seed)
    bwd = solve_backward(spec, simulate_forward(spec, u, noise), run.basis())
    if sufficient:
        cert = certify_sufficient(
            spec, bwd, payload["epsilon"], run.certificate_lambda, run.certificate_C
        )
    else:
        cert = certify_necessary(spec, bwd, payload["epsilon"], run.certificate_C)
    assert json.loads(json.dumps(cert.to_dict())) == payload


def _assert_rows_are_the_library_study(out, run, spec):
    """``order_study.csv`` holds ``optimizer.order_study``'s (delta, epsilon,
    gap, stderr) at the config's seed, paths and basis, each by repr."""
    lq = run.lq_params()
    sol = riccati_lq(lq)
    u_star = riccati_open_loop_control(sol, lq, run.grid(), spec.control_set)
    direction = constant_control([run.direction], run.grid(), spec.control_set)
    noise = sample_noise(run.grid(), run.n_paths, run.seed)
    deltas = [d for d in run.deltas if d != 0.0]
    members = order_study(spec, u_star, deltas, direction, sol.optimal_cost, noise, run.basis())
    lines = (out / "order_study.csv").read_text().strip().splitlines()[1:]
    assert lines == [
        f"{delta!r},{eps!r},{gap.gap!r},{gap.stderr!r}" for delta, _, eps, gap in members
    ]


def test_order_study_runs_one_pass_per_member(tmp_path, layer_calls):
    body = BASE.format(out=tmp_path / "out")
    body += "\n[order_study]\ndeltas = 0.0,0.05,0.1,0.2,0.3\n"
    cfg = write_config(tmp_path, body)
    assert cli.main(["--config", cfg, "order-study"]) == 0
    assert layer_calls == {"sample_noise": 1, "simulate_forward": 4, "solve_backward": 0}

    # every row is the library order study's, digit for digit
    run = cli.load_config(cfg)
    _assert_rows_are_the_library_study(tmp_path / "out", run, run.instance())


def test_certify_and_order_study_measure_a_cost_that_reads_y(tmp_path, monkeypatch, layer_calls):
    """gamma = 0.5: the cost reads y(0), so each pass solves the backward
    equation once and runs the cost and the adjoint on that bundle."""
    from _instances import constant_gamma_instance

    spec = constant_gamma_instance()
    assert live_terms(spec).backward
    monkeypatch.setattr(cli.RunConfig, "instance", lambda self: spec)
    body = BASE.format(out=tmp_path / "out") + "\n[order_study]\ndeltas = 0.1,0.2,0.3\n"
    cfg = write_config(tmp_path, body)
    control = tmp_path / "u.csv"
    control.write_text("step,u0\n" + "\n".join(f"{i},-0.4" for i in range(8)) + "\n")
    # epsilon = auto measures the cost on the bundle certify runs the adjoint on
    assert cli.main(["--config", cfg, "certify", "--control", str(control)]) == 0
    assert cli.main(["--config", cfg, "order-study"]) == 0
    assert layer_calls["solve_backward"] == 1 + 3

    run = cli.load_config(cfg)
    sol = riccati_lq(run.lq_params())
    u = control_from_csv(str(control), run.grid(), spec.control_set)
    noise = sample_noise(run.grid(), run.n_paths, run.seed)
    bwd = solve_backward(spec, simulate_forward(spec, u, noise), run.basis())
    cost = evaluate_cost_strong(spec, bwd)
    epsilon = max(cost.value - sol.optimal_cost + 3.0 * cost.stderr, 0.0)
    payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
    payload.pop("meta")
    cert = certify_necessary(spec, bwd, epsilon, run.certificate_C)
    assert json.loads(json.dumps(cert.to_dict())) == payload

    _assert_rows_are_the_library_study(tmp_path / "out", run, spec)


def test_oracle_compare_runs_at_one_step(tmp_path):
    # 4 paths are too few to regress on, and a cost that reads no y or z never does
    cfg = _base_config(tmp_path, extra="\n[oracle]\nsteps = 1\n")
    assert cli.main(["--config", cfg, "oracle-compare"]) == 0


def test_oracle_compare_measures_its_cost_on_the_forward_bundle(tmp_path, layer_calls):
    assert cli.main(["--config", _base_config(tmp_path), "oracle-compare"]) == 0
    assert layer_calls["solve_backward"] == 0


def test_certify_on_lq_never_holds_a_backward_trajectory(tmp_path):
    P, N, d = 20000, 16, 2
    body = BASE.format(out=tmp_path / "out").replace("family = lq", "family = lq\ndim = 2")
    body = body.replace("steps = 8", f"steps = {N}").replace("n_paths = 2000", f"n_paths = {P}")
    cfg = write_config(tmp_path, body + "\n[certificate]\nepsilon = 0.01\n")
    run = cli.load_config(cfg)
    spec = run.instance()
    control = str(tmp_path / "u.csv")
    control_to_csv(constant_control([-0.4, -0.4], run.grid(), spec.control_set), control)
    # what certify must hold at once: dW and dY, x, rho, rho * H_u, and the
    # operator's design (6 monomials) and increment-target buffers
    must_hold = 8 * (2 * P * N + (N + 1) * P * d + (N + 1) * P + N * P * d + P * (6 + 2 * d))
    y_bytes = 8 * (N + 1) * P * d
    tracemalloc.start()
    try:
        assert cli.main(["--config", cfg, "certify", "--control", control]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the adjoint's per-step work fits under one y trajectory; y, z1 and z2 do not
    assert peak < must_hold + y_bytes


def test_bad_subcommand_exits_two(tmp_path):
    cfg = _base_config(tmp_path)
    assert cli.main(["--config", cfg, "frobnicate"]) == 2


def test_env_var_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "envout"))
    body = BASE.format(out=tmp_path / "ignored")
    body = body.replace(f"dir = {tmp_path / 'ignored'}", "").replace("[output]", "")
    cfg = write_config(tmp_path, body, name="envrun.ini")
    assert cli.main(["--config", cfg, "validate"]) == 0
    assert (tmp_path / "envout" / "validate_report.json").exists()


CHECK_KEYS = {
    "name", "max_discrepancy", "worst_partial", "worst_point", "finite", "bounded", "message"
}
CONVEXITY_KEYS = {
    "passed",
    "hamiltonian_ok",
    "worst_eigenvalue",
    "witness",
    "phi_ok",
    "worst_phi_violation",
    "gamma_ok",
    "worst_gamma_violation",
    "n_probes",
    "eig_tol",
}


def test_report_key_sets(tmp_path):
    cfg = _base_config(tmp_path)
    assert cli.main(["--config", cfg, "validate"]) == 0
    report = json.loads((tmp_path / "out" / "validate_report.json").read_text())
    assert report.keys() == {"passed", "tol", "samples", "seed", "checks", "meta"}
    assert [c["name"] for c in report["checks"]] == [
        "drift_b",
        "diffusion_sigma1",
        "diffusion_sigma2",
        "observation_h",
        "backward_f",
        "running_l",
        "terminal_phi",
        "terminal_Phi",
        "initial_gamma",
    ]
    assert all(c.keys() == CHECK_KEYS for c in report["checks"])

    # the double well fails its convexity probe, so the witness is filled in
    body = BASE.format(out=tmp_path / "dw").replace("family = lq", "family = double_well")
    cfg = write_config(tmp_path, body + "\n[certificate]\nepsilon = 0.1\n", name="dw.ini")
    control = tmp_path / "u.csv"
    control.write_text("step,u0\n" + "\n".join(f"{i},0.0" for i in range(8)) + "\n")
    assert cli.main(["--config", cfg, "certify", "--control", str(control), "--sufficient"]) == 0
    cert = json.loads((tmp_path / "dw" / "certificate.json").read_text())
    convexity = cert["provenance"]["convexity"]
    assert convexity.keys() == CONVEXITY_KEYS
    assert convexity["witness"].keys() == {"t", "x", "y", "z1", "z2", "u", "eigenvalue"}


def _control_rows(cells):
    return "step,u0\n" + "\n".join(f"{i},{c}" for i, c in enumerate(cells)) + "\n"


@pytest.mark.parametrize(
    "body",
    [
        pytest.param("", id="empty"),
        pytest.param(_control_rows(["zero"] * 8), id="non-numeric"),
        pytest.param(_control_rows(["0.0"] * 3 + ["0.0,0.1"] + ["0.0"] * 4), id="ragged"),
    ],
)
def test_certify_malformed_control_file_exits_one(tmp_path, capsys, body):
    cfg = _base_config(tmp_path)
    control = tmp_path / "u.csv"
    control.write_text(body)
    assert cli.main(["--config", cfg, "certify", "--control", str(control)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(control) in err


def test_certify_control_file_with_trailing_blank_line(tmp_path):
    cfg = _base_config(tmp_path)
    rows = _control_rows(["-0.4"] * 8)

    def certificate(name, text):
        control = tmp_path / f"{name}.csv"
        control.write_text(text)
        out = str(tmp_path / name)
        assert cli.main(["--config", cfg, "--out", out, "certify", "--control", str(control)]) == 0
        payload = json.loads((tmp_path / name / "certificate.json").read_text())
        payload.pop("meta")
        return payload

    assert certificate("blank", rows + "\n") == certificate("plain", rows)
