"""Benchmark of qkg: one workload per run, its inputs made from a seed.

    python3 perfbench/run.py --workload {sweep,solve_field,stack}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; qkg is imported from its src/.  Every
output is checked.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.  The
lines before it carry provenance and run details.  Load is a closed loop
from one client; every process started gets OPENBLAS/OMP/MKL_NUM_THREADS=1.
See README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracing
from worker import WORKLOADS as IN_PROCESS
from worker import calibrate, normalized_timings, speed_factors

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
WORKLOADS = ("sweep", *IN_PROCESS)

# Set-up is timed SETUP_REPEATS times before the workload and as many times
# after it, so that its median spans the run's changes in machine speed.
SETUP_REPEATS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# sweep: a v0 x theta grid, theta on [0, pi] in SWEEP_THETA points; 799 steps
# of pi/799 land exactly on pi, so both poles are grid points.
SWEEP_V0 = 48
SWEEP_THETA = 800
SWEEP_POINTS = SWEEP_V0 * SWEEP_THETA
SWEEP_WORKERS = 2
SWEEP_SECONDS_PER_CALL = 1.9
SWEEP_COLUMNS = "v0,theta,abs_c1,abs_c2,abs_c7,abs_c8,quaternionic_fraction"
FLUX_TOL = 1e-10
GRID_TOL = 1e-12
# Besides both poles, this many interior theta of every v0 are checked
# against amplitudes_closed.
REFERENCE_INTERIOR = 3


class BenchError(Exception):
    """The benchmark could not run to the end; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(cmd, env, tmp: Path, deadline: float, tag: str, check=True):
    """Run cmd to the end; return (exit code, started, wall s, peak RSS MB, stdout).

    started is the CLOCK_MONOTONIC time just before the process was created.
    The peak RSS is the largest of the process and of the children it waited
    for (the sweep's pool workers).  Linux also counts the resident set this
    process had when it forked the child, so this process must stay smaller
    than its children (see client_peak_rss_mb in the details line).  With
    check, a non-zero exit is an error.
    """
    out_path, err_path = tmp / f"{tag}.out", tmp / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err,
                                start_new_session=True)
    done = []
    waiter = threading.Thread(
        target=lambda: done.append((os.wait4(proc.pid, 0), time.monotonic())))
    waiter.start()
    waiter.join(max(0.0, deadline - time.monotonic()))
    timed_out = waiter.is_alive()
    if timed_out:
        os.killpg(proc.pid, signal.SIGKILL)
        waiter.join()
    (_, status, usage), ended = done[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out:
        raise BenchError(f"{tag} did not finish within {DEADLINE_S:.0f} s")
    if check and proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"{tag} exited {proc.returncode}: {tail}")
    return (proc.returncode, started, ended - started, usage.ru_maxrss / 1024,
            out_path.read_text())


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def measure_setup(args, env, tmp, deadline, tag) -> list:
    """Seconds from a fresh interpreter to qkg imported and inputs built,
    each divided by the speed factor measured around it."""
    times, calibrations = [], [calibrate()]
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(WORKER), "setup", args.workload,
               str(args.seed), str(args.seconds)]
        _, started, _, _, out = run_child(cmd, env, tmp, deadline,
                                          f"setup-{tag}{i}")
        times.append(last_json(out)["ready"] - started)
        calibrations.append(calibrate())
    return [t / f for t, f in zip(times, speed_factors(calibrations))]


# --- sweep: the qkg sweep command as a subprocess --------------------------

def sweep_grid(seed: int):
    """The seed's grid: CLI arguments, (v0 start, v0 step, theta step), and
    the spec and rows that are checked against amplitudes_closed."""
    rng = random.Random(seed)
    omega0 = rng.uniform(0.5, 2.0)
    a = rng.uniform(0.5, 5.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    v_start, v_stop = omega0 * rng.uniform(0.01, 0.05), 0.95 * omega0
    v_step = (v_stop - v_start) / (SWEEP_V0 - 1)
    t_step = math.pi / (SWEEP_THETA - 1)
    argv = ["sweep", "--a", repr(a), "--omega0", repr(omega0),
            "--phi", repr(phi),
            "--sweep", f"v0:{v_start!r}:{v_stop!r}:{v_step!r}",
            "--sweep", f"theta:0:{math.pi!r}:{t_step!r}", "--format", "csv"]
    rows = []
    for outer in range(SWEEP_V0):
        inner = [0, SWEEP_THETA - 1] + rng.sample(range(1, SWEEP_THETA - 1),
                                                  REFERENCE_INTERIOR)
        rows += [outer * SWEEP_THETA + i for i in sorted(inner)]
    reference = {"a": a, "omega0": omega0, "phi": phi, "rows": rows}
    return argv, (v_start, v_step, t_step), reference


def row_ok(line: str, index: int, grid) -> bool:
    v_start, v_step, t_step = grid
    outer, inner = divmod(index, SWEEP_THETA)
    v0, theta = v_start + outer * v_step, inner * t_step
    try:
        got_v0, got_theta, c1, c2, c7, c8, fraction = map(float, line.split(","))
    except ValueError:
        return False
    transmitted = c7 * c7 + c8 * c8
    return (abs(got_v0 - v0) <= GRID_TOL * max(1.0, v0)
            and abs(got_theta - theta) <= GRID_TOL * math.pi
            and abs(c1 * c1 + c2 * c2 + transmitted - 1.0) <= FLUX_TOL
            and abs(fraction - c8 * c8 / transmitted) <= GRID_TOL)


def sweep_failures(outputs: list, grid, wrong: set) -> int:
    """Failed grid points over all outputs (CSV paths, None for a failed call).

    A point fails when its row is missing, fails its check, is in wrong (the
    rows of the first output that disagree with the closed form), or differs
    from the same row of the first output (determinism across runs and
    between --workers 1 and --workers 2).  Outputs stay on disk so that this
    process stays small next to the processes whose peak RSS it reports.
    """
    if outputs[0] is None:
        return SWEEP_POINTS * len(outputs)
    reference = outputs[0].read_bytes()
    lines = reference.decode().split("\n")
    if lines[0] != SWEEP_COLUMNS or len(lines) != SWEEP_POINTS + 2:
        return SWEEP_POINTS * len(outputs)
    bad = wrong | {i for i in range(SWEEP_POINTS)
                   if not row_ok(lines[i + 1], i, grid)}
    failed = 0
    for path in outputs:
        if path is None:
            failed += SWEEP_POINTS
            continue
        data = path.read_bytes()
        if data == reference:
            failed += len(bad)
            continue
        other = data.decode(errors="replace").split("\n")
        failed += sum(1 for i in range(SWEEP_POINTS)
                      if i in bad or i + 1 >= len(other)
                      or other[i + 1] != lines[i + 1])
    return failed


def reference_check(path, reference, env, tmp, deadline) -> dict:
    """Recompute the sampled rows of one output in a child process, so that
    this process stays small; returns its report (bad rows, max difference)."""
    if path is None:
        return {"bad": [], "max_diff": None, "checked": 0}
    cmd = [sys.executable, str(WORKER), "reference", str(path),
           json.dumps(reference)]
    return last_json(run_child(cmd, env, tmp, deadline, "reference")[4])


def run_sweep(args, env, tmp, deadline) -> dict:
    argv, grid, reference = sweep_grid(args.seed)
    plain = [sys.executable, "-m", "qkg.cli", *argv]
    calls = max(3, round(args.seconds / SWEEP_SECONDS_PER_CALL))
    outputs, parallel, peak = [], [], 0.0
    if args.trace:
        layers, parallel, peak = trace_sweep(plain, argv, max(3, calls // 4),
                                             env, tmp, deadline, outputs)
        factors = [1.0] * len(parallel)   # timings are not reported
    else:
        calibrations = [calibrate()]
        for i in range(calls):
            wall, rss = sweep_call(plain, SWEEP_WORKERS, env, tmp, deadline,
                                   f"sweep-{i}", outputs)
            parallel.append(wall)
            peak = max(peak, rss)
            calibrations.append(calibrate())
        factors = speed_factors(calibrations)
    serial, rss = sweep_call(plain, 1, env, tmp, deadline, "sweep-serial",
                             outputs)
    peak = max(peak, rss)
    ops_per_s, p50, p99, samples = normalized_timings(
        [[wall] for wall in parallel], factors, SWEEP_POINTS)
    checked = reference_check(outputs[0], reference, env, tmp, deadline)
    run = {"ops_per_s": ops_per_s, "p50_s": p50, "p99_s": p99,
           "peak_rss_mb": peak,
           "details": {"grid_points": SWEEP_POINTS,
                       "calls_workers2": len(parallel),
                       "latency_samples": samples,
                       "call_wall_s": parallel,
                       "speed_factors": factors,
                       "workers1_ops_per_s": SWEEP_POINTS / serial,
                       "reference_rows": checked["checked"],
                       "reference_max_diff": checked["max_diff"]}}
    if args.trace:
        layers["cli.pool_speedup"] = serial / statistics.median(parallel)
        layers["repeat_share"] = 1.0 - SWEEP_V0 / SWEEP_POINTS
        run["layers"] = layers
    run["attempted"] = SWEEP_POINTS * len(outputs)
    run["failed"] = run["unexpected"] = sweep_failures(
        outputs, grid, set(checked["bad"]))
    return run


def sweep_call(cmd, workers, env, tmp, deadline, tag, outputs):
    """One sweep to a CSV file; returns (wall s, peak RSS MB)."""
    path = tmp / f"{tag}.csv"
    code, _, wall, rss, _ = run_child(
        cmd + ["--workers", str(workers), "--out", str(path)],
        env, tmp, deadline, tag, check=False)
    outputs.append(path if code == 0 else None)
    return wall, rss


def trace_sweep(plain, argv, pairs, env, tmp, deadline, outputs):
    """pairs of sweep calls, one untraced and one traced, alternating which
    goes first.

    Returns the per-layer metrics, the untraced wall times and the peak RSS.
    The tracing overhead is the median over pairs of the traced wall time
    over the untraced one, minus 1.
    """
    stats, imports, main_self, untraced, ratios, peak = {}, [], [], [], [], 0.0
    for i in range(pairs):
        walls = {}
        for traced in ((False, True), (True, False))[i % 2]:
            stats_dir = tmp / f"trace-{i}"
            cmd = plain
            if traced:
                stats_dir.mkdir()
                cmd = [sys.executable, str(WORKER), "cli", str(stats_dir), *argv]
            walls[traced], rss = sweep_call(
                cmd, SWEEP_WORKERS, env, tmp, deadline,
                f"{'traced' if traced else 'sweep'}-{i}", outputs)
            peak = max(peak, rss)
        untraced.append(walls[False])
        ratios.append(walls[True] / walls[False])
        for dump in stats_dir.iterdir():
            data = json.loads(dump.read_text())
            if dump.name == "main.json":
                imports.append(data["import_s"])
                main_self.append(data["stats"]["cli.main"][2] / 1e9)
            for name, sums in data["stats"].items():
                stats[name] = [x + y for x, y in
                               zip(stats.get(name, [0, 0, 0]), sums)]
    layers = layer_metrics(stats, field_points=0)
    layers.update({"cli.import_s": statistics.median(imports),
                   "cli.main_self_s": statistics.median(main_self),
                   "trace.overhead": statistics.median(ratios) - 1.0})
    return layers, untraced, peak


# --- solve_field and stack: ops through qkg's API in one process -----------

def run_in_process(args, env, tmp, deadline) -> dict:
    cmd = [sys.executable, str(WORKER), "run", args.workload, str(args.seed),
           str(args.seconds), str(int(args.trace))]
    _, started, _, rss, out = run_child(cmd, env, tmp, deadline, "worker")
    data = last_json(out)
    run = {"attempted": data["attempted"], "failed": data["failed"],
           "unexpected": data["unexpected"],
           "ops_per_s": data["ops_per_s"],
           "p50_s": data["p50_s"], "p99_s": data["p99_s"], "peak_rss_mb": rss,
           "details": {"ops": data["attempted"],
                       "round_ops_per_s": data["raw_rates"],
                       "speed_factors": data["speed_factors"],
                       "latency_samples": data["latency_samples"],
                       "known_defect_failures": data["failed"] - data["unexpected"],
                       "by_kind": data["kinds"],
                       "worker_setup_s": data["ready"] - started}}
    if args.trace:
        diag = data["diag"]
        layers = layer_metrics(data["trace"]["stats"], data["field_points"])
        layers.update({
            "cli.import_s": data["import_s"],
            "matcher.singular": data["singular"],
            "closedform.max_route_diff": diag.get("route_diff", 0.0),
            "matcher.max_condition": diag.get("condition", 0.0),
            "multilayer.max_flux_defect": diag.get("flux_defect", 0.0),
            "wavefield.max_continuity_residual": diag.get("continuity", 0.0),
            "repeat_share": data["repeat_share"],
            "trace.overhead": data["trace"]["overhead"]})
        run["layers"] = layers
    return run


def layer_metrics(stats: dict, field_points: int) -> dict:
    """Per-layer sums and per-function means from call statistics.

    A metric of a layer or function the workload does not reach reads 0.
    """
    def sums(name):
        return stats.get(name, [0, 0, 0])

    def micros(ns, calls):
        return ns / calls / 1e3 if calls else 0.0

    values = {}
    for layer in tracing.TRACED:
        rows = [v for k, v in stats.items() if tracing.layer_of(k) == layer]
        values[f"{layer}.calls"] = sum(r[0] for r in rows)
        values[f"{layer}.self_s"] = sum(r[2] for r in rows) / 1e9
    for name in ("model.mode_ratios", "closedform.amplitudes_closed",
                 "multilayer.segment_transfer"):
        values[f"{name}.calls"] = sums(name)[0]
    for name in ("model.mode_ratios", "matcher.build_system", "matcher.solve",
                 "closedform.amplitudes_closed", "multilayer.segment_transfer",
                 "multilayer.compose", "multilayer.ordering_report"):
        calls, total, _ = sums(name)
        values[f"{name}.us"] = micros(total, calls)
    calls, _, own = sums("multilayer.stack_scatter")
    values["multilayer.stack_scatter.self_us"] = micros(own, calls)
    calls, total, _ = sums("wavefield.sample_field")
    values["wavefield.sample_field.us_per_point"] = micros(total, calls * field_points)
    values.update({"cli.main_self_s": 0.0, "cli.pool_speedup": 0.0,
                   "matcher.singular": 0, "closedform.max_route_diff": 0.0,
                   "matcher.max_condition": 0.0,
                   "multilayer.max_flux_defect": 0.0,
                   "wavefield.max_continuity_residual": 0.0})
    return values


# --- provenance and output -------------------------------------------------

def provenance(args) -> dict:
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    revision = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            revision = proc.stdout.strip() or None
    return {"git_revision": revision, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": int(args.trace),
            "load": "closed loop, one client"}


def result_line(run: dict, setup: list, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        values, wanted = run["layers"], spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": run["ops_per_s"],
            "op_p50_ms": run["p50_s"] * 1e3,
            "op_p99_ms": run["p99_s"] * 1e3,
            # Laplace's rule of succession: the failure share, never 0.
            "failed_frac": (run["failed"] + 1) / (run["attempted"] + 2),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise BenchError("metrics do not match BENCHMARK.json: "
                         f"{sorted(set(values) ^ {m['name'] for m in wanted})}")
    return {"correct": run["unexpected"] == 0, "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qkg" / "__init__.py").is_file():
        print(f"error: no qkg sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({name: "1" for name in THREAD_VARS})
    env = child_env()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        deadline = time.monotonic() + DEADLINE_S
        setup = measure_setup(args, env, tmp, deadline, "before")
        runner = run_sweep if args.workload == "sweep" else run_in_process
        run = runner(args, env, tmp, deadline)
        setup += measure_setup(args, env, tmp, deadline, "after")
        result = result_line(run, setup, bool(args.trace))
        info = provenance(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    run["details"]["setup_s_samples"] = setup
    run["details"]["client_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps({"provenance": info}))
    print(json.dumps({"details": run["details"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
