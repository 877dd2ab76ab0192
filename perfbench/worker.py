"""Child process of the benchmark: one fresh interpreter per use.

    worker.py setup WORKLOAD SEED SECONDS         import qkg and build the inputs
    worker.py run WORKLOAD SEED SECONDS TRACE     ... then run an in-process workload
    worker.py cli STATS_DIR ARG...                qkg.cli.main(ARG...) with tracing
    worker.py reference CSV GRID_JSON             check sweep rows against closed form

``setup`` and ``run`` print one JSON object whose ``ready`` field is the
CLOCK_MONOTONIC time at which set-up finished; the parent subtracts the time
it started the process.  ``cli`` writes the call statistics of the CLI process
and of each sweep pool worker into STATS_DIR.  ``reference`` prints the
indices of the checked rows that disagree with ``amplitudes_closed``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import time
from pathlib import Path
from statistics import median

SRC = Path(__file__).resolve().parent.parent / "src"
ROUNDS = 60
# A traced run executes this many rounds twice each, untraced and traced.
TRACED_ROUNDS = 16
# The calibration kernel's sizes, and its median time on the 2-core x86-64
# box the benchmark was tuned on, without and with the solves (see calibrate).
CALIBRATION_LOOPS = 150_000
CALIBRATION_SOLVES = 700
CALIBRATION_NOMINAL_S = {False: 0.025, True: 0.05}
# In-process workload -> ops per second of each of its kinds for the seed
# program on a 2-core x86-64 box at nominal speed.  Each round gives every
# kind an equal share of SECONDS / ROUNDS at these rates, so a run measures
# about SECONDS there and its inputs, failures included, depend only on the
# seed and SECONDS.
WORKLOADS = {"solve_field": {"solve": 3500, "field": 260},
             "stack": {"stack": 60}}
# A sweep row must match amplitudes_closed on its own (v0, theta) this closely,
# by the relative max-norm over |c1|, |c2|, |c7|, |c8|.
REFERENCE_TOL = 1e-12


def import_qkg() -> float:
    """Import qkg.cli from the checkout's src/ and return the seconds taken."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qkg.cli

    elapsed = time.perf_counter() - start
    if not Path(qkg.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"qkg was imported from {qkg.cli.__file__}, not from {SRC}")
    return elapsed


def build_rounds(workload: str, seed: int, seconds: float):
    """Yield ROUNDS lists of (kind, input), each kind's hard cases stratified.

    Each round has a generator of its own, seeded by (seed, round), and is
    built only when it is asked for, so that a run holds one round's inputs
    at a time and its peak RSS is the program's.
    """
    import numpy as np

    from library import KINDS

    rates = WORKLOADS[workload]
    share = seconds / ROUNDS / len(rates)
    for index in range(ROUNDS):
        rng = np.random.default_rng([seed, index])
        items = []
        for kind, rate in rates.items():
            count = max(1, round(share * rate))
            items += [(kind, item) for item in KINDS[kind].inputs(rng, count)]
        yield [items[i] for i in rng.permutation(len(items))]


def calibrate(with_solves: bool = False) -> float:
    """How many times slower than nominal this process runs a fixed kernel.

    The box the benchmark was tuned on runs up to 1.6x faster or slower for
    seconds at a time.  Timing a kernel that does not use qkg between rounds
    measures that speed, and dividing each round's times by the speed factor
    around it (speed_factors) cancels most of the drift.  The kernel is
    Python complex arithmetic, like the closed form and the CLI; with
    with_solves it adds 8x8 LU solves through scipy, like the matcher and
    multilayer, for the processes that run them.  The benchmark's own
    process uses the pure-Python kernel only, so that it stays small next to
    the processes whose peak RSS it reports.
    """
    z, store = 0j, {}
    start = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        z = z * (0.5 - 0.25j) + 1j
        if i % 8 == 0:
            store[i & 255] = z.real
    if with_solves:
        import numpy as np
        import scipy.linalg

        matrix = np.eye(8) * 4.0 + (0.5 + 0.1j)
        rhs = np.ones(8, dtype=complex)
        for _ in range(CALIBRATION_SOLVES):
            lu_piv = scipy.linalg.lu_factor(matrix)
            scipy.linalg.lu_solve(lu_piv, rhs, check_finite=False)
    return (time.perf_counter() - start) / CALIBRATION_NOMINAL_S[with_solves]


def speed_factors(calibrations: list) -> list:
    """One speed factor per interval between calibrations.

    An interval's own factor is the mean of the calibrations at its ends; it
    gets the median of its own and its two neighbours', so that one kernel
    run caught in a brief stall or burst does not skew it.
    """
    means = [(before + after) / 2.0
             for before, after in zip(calibrations, calibrations[1:])]
    return [median(means[max(0, i - 1):i + 2]) for i in range(len(means))]


def normalized_timings(rounds: list, factors: list, ops_each: int = 1):
    """(ops/s, p50 s, p99 s, samples) at the nominal speed of the box.

    Each round is a list of latencies, each covering ops_each ops; each
    latency is divided by its round's speed factor.
    """
    times = sorted(t / factor for kept, factor in zip(rounds, factors)
                   for t in kept)
    return (ops_each * len(times) / sum(times), percentile(times, 50),
            percentile(times, 99), len(times))


class Tally:
    """Latencies, failures and diagnostics of the rounds run so far."""

    def __init__(self, kinds) -> None:
        self.per_round: list[list[float]] = []
        self.by_kind = {kind: [[], 0] for kind in kinds}
        self.failed = self.unexpected = self.singular = 0
        self.diag: dict[str, float] = {}

    def round(self, items) -> float:
        """Closed loop over one round: each op starts when the previous one
        has been checked.  Returns the round's ops per second of op time."""
        from qkg.errors import SingularSystemError
        from library import KINDS

        latencies = []
        clock = time.perf_counter
        for kind, item in items:
            handler = KINDS[kind]
            arg = handler.prepare(item)
            start = clock()
            try:
                out = handler.op(arg)
            except Exception as exc:  # a raising op is a counted failure
                out = exc
            elapsed = clock() - start
            latencies.append(elapsed)
            self.by_kind[kind][0].append(elapsed)
            if isinstance(out, Exception):
                ok = False
                self.singular += isinstance(out, SingularSystemError)
            else:
                ok = handler.check(item, out, self.diag)
            if not ok:
                self.failed += 1
                self.by_kind[kind][1] += 1
                self.unexpected += not handler.known_defect(item)
        self.per_round.append(latencies)
        return len(latencies) / sum(latencies)

    def summary(self, factors: list) -> dict:
        """Counts, and timings normalized by one speed factor per round."""
        kinds = {}
        for kind, (times, kind_failed) in self.by_kind.items():
            times = sorted(times)
            kinds[kind] = {"attempted": len(times), "failed": kind_failed,
                           "p50_ms": percentile(times, 50) * 1e3,
                           "p99_ms": percentile(times, 99) * 1e3}
        ops_per_s, p50, p99, samples = normalized_timings(self.per_round,
                                                          factors)
        return {"attempted": sum(map(len, self.per_round)),
                "failed": self.failed, "unexpected": self.unexpected,
                "singular": self.singular,
                "raw_rates": [len(t) / sum(t) for t in self.per_round],
                "speed_factors": factors,
                "ops_per_s": ops_per_s, "p50_s": p50, "p99_s": p99,
                "latency_samples": samples, "kinds": kinds, "diag": self.diag}


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def repeat_share(rounds) -> float:
    from library import KINDS

    seen, repeats, total = set(), 0, 0
    for items in rounds:
        for kind, item in items:
            for key in KINDS[kind].keys(item):
                repeats += key in seen
                seen.add(key)
                total += 1
    return repeats / total


def trace_rounds(tally: Tally, rounds) -> dict:
    """Run each round untraced and traced, alternating which goes first.

    The tracing overhead is the median over rounds of the untraced rate over
    the traced rate, minus 1: each pair runs back to back, so the machine's
    slow changes of speed cancel out of the ratio.
    """
    import tracing

    tracer = tracing.Tracer()
    ratios = []
    for index, items in enumerate(rounds):
        rates = {}
        for traced in ((False, True), (True, False))[index % 2]:
            uninstall = tracing.install(tracer) if traced else None
            rates[traced] = tally.round(items)
            if uninstall is not None:
                uninstall()
        ratios.append(rates[False] / rates[True])
    return {"stats": tracer.stats, "overhead": median(ratios) - 1.0}


def cmd_setup(workload: str, seed: int, seconds: float) -> dict:
    import_s = import_qkg()
    if workload in WORKLOADS:   # the sweep's inputs are its command line
        next(build_rounds(workload, seed, seconds))
    return {"ready": time.monotonic(), "import_s": import_s}


def cmd_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_s = import_qkg()
    from library import FIELD_POINTS

    rounds = build_rounds(workload, seed, seconds)
    rounds = itertools.chain([next(rounds)], rounds)   # set-up builds one
    ready = time.monotonic()
    tally = Tally(WORKLOADS[workload])
    if not trace:
        calibrations = [calibrate(with_solves=True)]
        for items in rounds:
            tally.round(items)
            calibrations.append(calibrate(with_solves=True))
        return dict(tally.summary(speed_factors(calibrations)), ready=ready,
                    import_s=import_s)
    # repeat_share keeps a key per evaluation, so it is only taken here, where
    # peak RSS is not reported.
    traced_rounds = list(itertools.islice(rounds, TRACED_ROUNDS))
    traced = trace_rounds(tally, traced_rounds)
    factors = [1.0] * len(tally.per_round)   # timings are not reported
    return dict(tally.summary(factors), ready=ready, import_s=import_s,
                trace=traced, repeat_share=repeat_share(traced_rounds),
                field_points=FIELD_POINTS)


def cmd_cli(stats_dir: str, argv: list) -> int:
    import multiprocessing.util
    from concurrent.futures import ProcessPoolExecutor

    import tracing

    import_s = import_qkg()
    import qkg.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)

    def start_pool_worker():
        # The CLI's pool forks its workers, which inherit the wrappers: count
        # only their own calls and write them out when the pool stops them.
        tracer.reset()
        path = os.path.join(stats_dir, f"pool-{os.getpid()}.json")
        multiprocessing.util.Finalize(None, tracer.dump, args=(path,),
                                      exitpriority=10)

    class TracedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, initializer=start_pool_worker, **kwargs)

    qkg.cli.ProcessPoolExecutor = TracedPool
    code = qkg.cli.main(argv)
    tracer.dump(os.path.join(stats_dir, "main.json"), import_s=import_s)
    return code


def cmd_reference(csv_path: str, grid: dict) -> dict:
    """Rows of grid["rows"] that disagree with amplitudes_closed.

    Each row is recomputed from its own v0 and theta, which the parent has
    checked against the grid; 17 significant digits give the exact floats.
    """
    import_qkg()
    from qkg.closedform import amplitudes_closed, quaternionic_fraction
    from qkg.model import BarrierSpec

    lines = Path(csv_path).read_text().split("\n")
    bad, worst = [], 0.0
    for index in grid["rows"]:
        try:
            v0, theta, *got = map(float, lines[index + 1].split(","))
            amps = amplitudes_closed(BarrierSpec(grid["a"], v0, grid["omega0"],
                                                 theta, grid["phi"]))
            want = [abs(amps.c1), abs(amps.c2), abs(amps.c7), abs(amps.c8)]
            diff = max(max(abs(g - w) for g, w in zip(got[:4], want)) / max(want),
                       abs(got[4] - quaternionic_fraction(amps)))
        except Exception:  # an unparsable row or a raising reference fails
            diff = math.inf
        worst = max(worst, diff)
        if not diff <= REFERENCE_TOL:
            bad.append(index)
    return {"bad": bad, "max_diff": worst, "checked": len(grid["rows"])}


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        return cmd_cli(args[0], args[1:])
    if mode == "reference":
        result = cmd_reference(args[0], json.loads(args[1]))
    elif mode == "setup":
        result = cmd_setup(args[0], int(args[1]), float(args[2]))
    else:
        result = cmd_run(args[0], int(args[1]), float(args[2]), args[3] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
