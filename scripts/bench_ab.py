"""Alternating parent/change runs of the benchmark, collected into one BENCH file.

    python3 scripts/bench_ab.py --parent ../parent --change . --out BENCH_<n>.json

``--parent`` and ``--change`` are two checkouts, each with its own
``perfbench/`` and ``src/`` (make the parent one with ``git archive``).
The workloads and the run length are the ones the change's
``BENCHMARK.json`` declares.  Pair i of a workload runs
``perfbench/run.py --workload W --seed FIRST_SEED + i --seconds N --trace 0``
once in each checkout, each in a fresh process, the parent first in even
pairs and the change first in odd ones.  The file holds each side's
provenance line (from its first run), every run's end-to-end metrics and,
per metric, both medians, the parent's interquartile range and the number
of pairs the change won.  It also holds one traced run (``--trace 1``, seed
TRACE_SEED) per workload and checkout with its per-layer metrics, and the
wall time and peak RSS of each CLI command on each ``configs/*.ini``, one
child process per command.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

END_TO_END = ("op_s.p50", "peak_rss_mb", "setup_s")
PAIRS = 10
FIRST_SEED = 100
TRACE_SEED = 7
RUN_TIMEOUT_S = 1800
CLI = "import sys; from fbsde_nearopt.cli import main; sys.exit(main(sys.argv[1:]))"


def perfbench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its provenance, summary and final JSON."""
    child = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    lines = child.stdout.strip().splitlines()

    def tagged(tag):
        return json.loads(next(line for line in lines if line.startswith(tag + " "))[len(tag) + 1:])

    result = json.loads(lines[-1])
    return {
        "provenance": tagged("provenance"),
        "fail_frac": tagged("summary")["fail_frac"],
        "correct": result["correct"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def summarize(pairs: list[dict]) -> dict:
    """Per end-to-end metric (lower is better): medians, the parent's
    quartile distance and the pairs the change won, ties counting for
    neither side."""
    out = {}
    for metric in END_TO_END:
        parent = [pair["parent"][metric] for pair in pairs]
        change = [pair["change"][metric] for pair in pairs]
        q1, _, q3 = statistics.quantiles(parent, n=4)
        out[metric] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": q3 - q1,
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def ab_pairs(args, workload: str, seconds: float, provenance: dict) -> dict:
    pairs = []
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            run = perfbench(getattr(args, side), workload, seed, seconds, 0)
            provenance.setdefault(side, run["provenance"])
            pair[side] = {**run["metrics"], "fail_frac": run["fail_frac"], "correct": run["correct"]}
        pairs.append(pair)
        print(f"{workload} pair {i}: " + ", ".join(
            f"{side} {pair[side]['op_s.p50']:.3f} s {pair[side]['peak_rss_mb']:.1f} MB" for side in order
        ), flush=True)
    return {"pairs": pairs, "summary": summarize(pairs)}


def command_table(checkout: str) -> list[dict]:
    """Wall time and peak RSS of each CLI command on each committed config."""
    rows = []
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    with tempfile.TemporaryDirectory() as out:
        for config in sorted(glob.glob(os.path.join(checkout, "configs", "*.ini"))):
            name = os.path.splitext(os.path.basename(config))[0]
            control = os.path.join(out, name, "final_control.csv")
            commands = [["validate"], ["oracle-compare"], ["solve"],
                        ["certify", "--control", control],
                        ["certify", "--control", control, "--sufficient"]]
            if name == "lq":
                commands.append(["order-study"])
            for command in commands:
                argv = ["--config", config, "--out", os.path.join(out, name), *command]
                start = time.perf_counter()
                child = subprocess.Popen([sys.executable, "-c", CLI, *argv], env=env,
                                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                _, status, usage = os.wait4(child.pid, 0)
                rows.append({
                    "config": name,
                    "command": " ".join(command).replace(control, "final_control.csv"),
                    "exit": os.waitstatus_to_exitcode(status),
                    "seconds": time.perf_counter() - start,
                    "peak_rss_mb": usage.ru_maxrss / 1024.0,
                })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = float(benchmark["run_seconds"])
    sides = ("parent", "change")
    provenance: dict = {}
    report = {
        "settings": {"pairs": PAIRS, "seconds": seconds, "first_seed": FIRST_SEED},
        "provenance": provenance,
        "workloads": {w: ab_pairs(args, w, seconds, provenance) for w in workloads},
        "traced": {
            w: {side: perfbench(getattr(args, side), w, TRACE_SEED, seconds, 1)["metrics"] for side in sides}
            for w in workloads
        },
        "commands": {side: command_table(getattr(args, side)) for side in sides},
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
