"""Benchmark of the fbsde-nearopt CLI, driven in-process through ``cli.main``.

    python3 perfbench/run.py --workload certify-lq2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

One client runs one CLI command at a time (a closed loop) in this process,
in whole cycles of the workload's commands, until the commands have taken
``--seconds``.
Every operation's outputs are checked.  The last line of standard output is
one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_ROOT = ROOT / ".perfbench_spans"
SETUP_REPEATS = 21
ALL_TIMEOUT_S = 900

END_TO_END_UNITS = {"op_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the cores this process may use."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))
    return cores


def import_cli():
    """Import the CLI of this checkout's ``src``, never another copy."""
    sys.path.insert(0, str(SRC))
    try:
        import fbsde_nearopt.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fbsde_nearopt from {SRC}: {exc}")
    if Path(fbsde_nearopt.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: fbsde_nearopt was imported from {fbsde_nearopt.__file__}, not {SRC}")
    return fbsde_nearopt.cli


# ---------------------------------------------------------------------------
# provenance


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                getter = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_int
            threads = getter()
            break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git() -> dict | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"commit": commit, "dirty": bool(dirty)}


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed: int, cores: int) -> dict:
    import numpy as np

    return {
        "workload": workload.name,
        "seed": seed,
        "config": workload.settings(seed),
        "commands": [" ".join(command) for command in workload.commands],
        "nproc": cores,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git": _git(),
        "src_sha256": _source_sha256(),
        "note": f"wall-clock timings on a small shared machine ({cores} cores) are noisy: "
        "compare medians of several runs made on one machine",
    }


# ---------------------------------------------------------------------------
# operations


def op_seed(seed: int, index: int) -> int:
    """The CLI seed of operation ``index`` in a run with workload seed ``seed``."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def measure_setup(name: str, seed: int, directory: Path) -> float:
    """Seconds a fresh interpreter takes to import the package and write the
    workload's inputs: what a user pays before the first command."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--prepare", name, "--seed", str(seed), "--dir", str(directory)],
        check=True,
    )
    return time.perf_counter() - start


def run_op(main, workload, paths, command, seed: int, out_dir: Path, state: dict) -> dict:
    """Run one CLI command, time it, and check its outputs."""
    argv = workload.argv(paths, command, seed, str(out_dir))
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    problems, gap_abs = [], None
    if code != 0:
        problems.append(f"exit code {code}: {captured.getvalue().strip()[-500:]}")
    else:
        try:
            problems, gap_abs = workload.check(str(out_dir), command, state)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return {"command": " ".join(command), "seed": seed, "seconds": seconds, "problems": problems, "gap_abs": gap_abs}


def report_op(index: int, op: dict, traced: bool = False) -> None:
    verdict = "ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"])
    mark = " traced" if traced else ""
    print(f"op {index}{mark} [{op['command']}] seed={op['seed']} {op['seconds']:.3f} s {verdict}", flush=True)


def timed_run(cli, workload, paths, seed: int, seconds: float, work: Path) -> tuple[list[dict], list[float]]:
    """Whole cycles of the workload's commands until they have taken
    ``seconds``, and ``SETUP_REPEATS`` set-up samples.

    The set-up samples are spread over the run in step with the operations'
    time, so the set-up median and the operation median see the same phases
    of a machine whose speed drifts.
    """
    ops: list[dict] = []
    setup: list[float] = []
    state: dict = {}
    op_seconds = 0.0

    def sample_setup(due: float) -> None:
        while len(setup) < due:
            setup.append(measure_setup(workload.name, seed, work / f"setup{len(setup)}"))

    while not ops or op_seconds < seconds:
        for command in workload.commands:
            sample_setup(max(1, SETUP_REPEATS * min(1.0, op_seconds / seconds)))
            index = len(ops)
            op = run_op(cli.main, workload, paths, command, op_seed(seed, index), work / f"op{index}", state)
            report_op(index, op)
            ops.append(op)
            op_seconds += op["seconds"]
    sample_setup(SETUP_REPEATS)
    return ops, setup


def traced_run(cli, workload, paths, seed: int, work: Path):
    """One cycle of commands, each run untraced and then traced at one seed.

    The schedule is fixed, so the counts it reports are exact at a seed.
    Every span is written to ``.perfbench_spans/<workload>-seed<seed>.jsonl``.
    """
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    traced_main = tracer.span("cli.main", cli.main)
    untraced_ops: list[dict] = []
    traced_ops: list[dict] = []
    state: dict = {}
    for index, command in enumerate(workload.commands):
        cli_seed = op_seed(seed, index)
        op = run_op(cli.main, workload, paths, command, cli_seed, work / f"op{index}", state)
        report_op(index, op)
        untraced_ops.append(op)
        tracer.op = index
        tracer.install()
        try:
            op = run_op(traced_main, workload, paths, command, cli_seed, work / f"op{index}-traced", state)
        finally:
            tracer.uninstall()
        report_op(index, op, traced=True)
        traced_ops.append(op)

    SPANS_ROOT.mkdir(exist_ok=True)
    spans_path = SPANS_ROOT / f"{workload.name}-seed{seed}.jsonl"
    tracer.write(str(spans_path))
    print(f"spans written to {spans_path}", flush=True)

    metrics = layer_metrics(tracer, len(traced_ops))
    metrics["trace.overhead"] = (
        statistics.median(op["seconds"] for op in traced_ops)
        / statistics.median(op["seconds"] for op in untraced_ops)
        - 1.0
    )
    gaps = [op["gap_abs"] for op in traced_ops if op["gap_abs"] is not None]
    metrics["gap_abs"] = statistics.median(gaps) if gaps else float("nan")
    return untraced_ops + traced_ops, metrics


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> int:
    cores = limit_blas_threads()
    cli = import_cli()
    from spans import PER_LAYER_UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        setup: list[float] = []
        paths = workload.prepare(str(work / "inputs"), args.seed)
        print("provenance " + json.dumps(provenance(workload, args.seed, cores), sort_keys=True), flush=True)
        if args.trace:
            ops, values = traced_run(cli, workload, paths, args.seed, work)
            units = PER_LAYER_UNITS
        else:
            ops, setup = timed_run(cli, workload, paths, args.seed, args.seconds, work)
            values = {
                "op_s.p50": statistics.median(op["seconds"] for op in ops),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(setup),
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    failed = sum(1 for op in ops if op["problems"])
    gaps = [op["gap_abs"] for op in ops if op["gap_abs"] is not None]
    summary = {
        "ops": len(ops),
        "fail_frac": failed / len(ops),
        "gap_abs": statistics.median(gaps) if gaps else None,
        "op_s": [round(op["seconds"], 4) for op in ops],
        "setup_s": [round(s, 4) for s in setup],
    }
    print("summary " + json.dumps(summary), flush=True)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; print every end-to-end metric."""
    import_cli()
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True,
            text=True,
            timeout=ALL_TIMEOUT_S,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exit code {child.returncode}\n{child.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        summary = json.loads(next(line for line in lines if line.startswith("summary "))[len("summary "):])
        print(f"{name}: {result['attempted']} operations, {result['failed']} failed")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        print(f"  fail_frac = {summary['fail_frac']:.6g} ratio")
        print(f"  gap_abs = {summary['gap_abs']} 1")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="workload to run")
    mode.add_argument("--all", action="store_true", help="run every workload untraced, one process each")
    mode.add_argument("--prepare", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.prepare:
        import_cli()
        from workloads import WORKLOADS

        WORKLOADS[args.prepare].prepare(args.dir, args.seed)
        return 0
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
