"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import PER_LAYER_UNITS, Span, Tracer, descendants_named, group_time, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# span arithmetic


def _nested_spans():
    return [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a", 2.0, 3.0, 1, 0),  # nested in a span of the same name
        Span("b", 5.0, 6.0, 0, 0),
        Span("c", 5.5, 7.0, 0, 0),  # overlaps its sibling b
        Span("d", 9.5, 11.0, 0, 0),  # runs past its parent's end
    ]


def test_self_time_subtracts_the_union_of_child_intervals():
    # root's children cover [1, 4], [5, 7] and [9.5, 10] of [0, 10]
    assert self_times(_nested_spans()) == pytest.approx([4.5, 2.0, 1.0, 1.0, 1.5, 1.5])


def test_group_time_counts_nested_members_once():
    spans = _nested_spans()
    assert group_time(spans, lambda name: name == "a") == pytest.approx(3.0)
    assert group_time(spans, lambda name: name in ("a", "b", "c")) == pytest.approx(3.0 + 1.0 + 1.5)
    assert descendants_named(spans, 0, "a") == 2
    assert descendants_named(spans, 1, "a") == 1
    assert descendants_named(spans, 3, "a") == 0


def test_optimizer_counts_come_from_spans_below_each_descent():
    tracer = Tracer()
    tracer.spans = [Span("optimizer.smp_descent", 0.0, 10.0, -1, 0)]
    # initial evaluation, three candidates, one accepted step, two adjoints
    for i, name in enumerate(["forward_sim.simulate_forward"] * 4 + ["bsde.solve_adjoint"] * 2):
        tracer.spans.append(Span(name, 1.0 + i, 2.0 + i, 0, 0))
    metrics = layer_metrics(tracer, 1)
    assert metrics["optimizer.evaluations"] == 4
    assert metrics["optimizer.iterations"] == 1
    assert metrics["optimizer.accept_ratio"] == pytest.approx(1 / 3)
    assert metrics["optimizer.smp_descent.self_s"] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# output checks


def _certificate(gap, verdict, *, stderr=1e-3, epsilon=0.01, convex=True):
    return {
        "gap": gap,
        "gap_stderr": stderr,
        "epsilon": epsilon,
        "verdict": verdict,
        "provenance": {"convexity": {"passed": convex}},
    }


def test_consistent_certificates_pass():
    for sufficient, verdict in ((False, "necessary-holds"), (True, "sufficient-near-optimal")):
        cert = _certificate(-1e-4, verdict)
        assert checks.certificate_problems(cert, sufficient=sufficient, C=2.0, lam=0.5) == []
        assert checks.optimal_verdict_problems(cert, sufficient=sufficient) == []
    violated = _certificate(-1.0, "necessary-violated")
    assert checks.certificate_problems(violated, sufficient=False, C=2.0, lam=0.5) == []
    assert checks.agreement_problems(_certificate(-1.001, "x"), _certificate(-1.0, "x")) == []


def test_positive_gap_is_rejected():
    cert = _certificate(0.05, "necessary-holds")
    assert any("positive" in p for p in checks.certificate_problems(cert, sufficient=False, C=2.0, lam=0.5))


def test_wrong_verdict_is_rejected():
    # threshold -2 * sqrt(0.01) - 3e-3 = -0.203: a gap of -1 violates it
    cert = _certificate(-1.0, "necessary-holds")
    assert any("recomputed" in p for p in checks.certificate_problems(cert, sufficient=False, C=2.0, lam=0.5))
    nonconvex = _certificate(-1e-4, "sufficient-near-optimal", convex=False)
    assert any("recomputed" in p for p in checks.certificate_problems(nonconvex, sufficient=True, C=2.0, lam=0.5))
    assert checks.optimal_verdict_problems(_certificate(-1.0, "necessary-violated"), sufficient=False)


def test_disagreeing_seeds_are_rejected():
    assert checks.agreement_problems(_certificate(-1.1, "x"), _certificate(-1.0, "x"))


def _rows(costs, stderr=1e-3):
    return [{"iteration": float(i), "cost": c, "cost_stderr": stderr} for i, c in enumerate(costs)]


def _solve_problems(rows, final_gap=-1e-3, control=None):
    control = [[0.0]] * 4 if control is None else control
    return checks.solve_problems(rows, {"final_min_gap": final_gap}, control, steps=4, lower=-1.0, upper=1.0)


def test_good_solve_passes():
    assert _solve_problems(_rows([1.0, 0.8, 0.8005, 0.7])) == []


def test_non_monotone_trace_is_rejected():
    assert any("cost rose" in p for p in _solve_problems(_rows([1.0, 0.8, 0.9, 0.7])))


def test_bad_solve_outputs_are_rejected():
    assert any("initial" in p for p in _solve_problems(_rows([1.0, 1.002])))
    assert any("positive" in p for p in _solve_problems(_rows([1.0, 0.8]), final_gap=1e-3))
    assert any("leaves" in p for p in _solve_problems(_rows([1.0, 0.8]), control=[[0.0], [0.0], [1.5], [0.0]]))
    assert any("steps" in p for p in _solve_problems(_rows([1.0, 0.8]), control=[[0.0]]))


# ---------------------------------------------------------------------------
# tracer


def _package_attributes():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "fbsde_nearopt" or name.startswith("fbsde_nearopt.")
        for attr, value in vars(module).items()
    }


def test_traced_cli_run_restores_every_module_attribute(tmp_path):
    import fbsde_nearopt.cli as cli
    from fbsde_nearopt.forward_sim import simulate_forward

    config = tmp_path / "config.ini"
    config.write_text(
        "[instance]\nfamily = lq\n[grid]\nsteps = 4\n[paths]\nn_paths = 200\n"
        "[certificate]\nepsilon = auto\n[optimizer]\nmax_iter = 2\n"
    )
    before = _package_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.simulate_forward is not simulate_forward
        argv = ["--config", str(config), "--out", str(tmp_path / "out")]
        assert tracer.span("cli.main", cli.main)(argv + ["solve"]) == 0
        control = str(tmp_path / "out" / "final_control.csv")
        assert tracer.span("cli.main", cli.main)(argv + ["certify", "--control", control, "--sufficient"]) == 0
    finally:
        tracer.uninstall()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = {span.name for span in tracer.spans}
    assert {"cli.main", "optimizer.smp_descent", "nearopt.certify_sufficient", "oracle.riccati_lq"} <= names
    assert any(name.startswith("model.") for name in names)
    metrics = layer_metrics(tracer, 2)
    assert metrics["forward_sim.simulate_forward.calls"] > 0
    assert metrics["bsde.out_bytes"] > 0

    tracer.write(str(tmp_path / "spans.jsonl"))
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(tracer.spans)
    assert json.loads(lines[0]).keys() == {"name", "start", "end", "parent", "op"}


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_names_the_metrics_and_workloads_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
