"""Benchmark of ``multimpact``: sampling post-impact sets and the baselines.

Run from the root of a source checkout (``src/multimpact`` must exist):

    python3 perfbench/run.py --workload compass_sobol --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--smoke``
runs every workload at a tiny size in both modes and exits 1 if a check
fails.  README.md describes the workloads, metrics and seeds.

Throughputs and set-up time are scaled to a reference machine speed.  A
fixed numpy kernel (``calibrate``) is timed next to every measured round,
and a fresh ``import numpy`` next to every set-up probe; each figure is
multiplied by that moment's slowdown against ``CAL_REF_S`` or
``SETUP_REF_S``.  The machine's raw speed drifts by tens of percent
between runs; the scaled figures drift by a few.
"""

import os

# One BLAS thread per process, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
OUT = HERE / "results"

WORKLOADS = ("compass_sobol", "disk_stack_uniform", "baselines")
PROBE_SCENES = {
    "compass_sobol": ["compass"],
    "disk_stack_uniform": ["disk_stack"],
    "baselines": ["ball", "phone", "compass", "box_wall", "disk_stack"],
}
SETUP_REPS = 7
SETUP_REF_S = 0.1  # `python3 -c 'import numpy'` on the reference machine
SERIAL_SHARE = 0.5  # of --seconds; the rest measures jobs=nproc
FANOUT_REPS = 5

# The calibration kernel: a Lemke-like rank-one pivot loop on a 25x26
# table, small dense numpy calls driven from Python as in the program's
# stepping.  It calls nothing in multimpact.  Of the kernels tried (this
# one, short vector updates, a pure-Python loop), its time followed the
# program's round times most closely as the machine's speed moved.
CAL_ITERS = 400
CAL_REF_S = 0.007  # its time on the reference machine


def calibrate() -> float:
    import numpy as np

    table = np.linspace(0.05, 1.0, 25 * 26).reshape(25, 26)
    column = np.linspace(1.0, 0.2, 25)
    start = time.perf_counter()
    for _ in range(CAL_ITERS):
        d = table[:, 1:] @ column
        eligible = np.flatnonzero(d > 0.1)
        row = int(eligible[np.argmin(table[eligible, 0] / d[eligible])])
        pivot_row = table[row] / d[row]
        table = table - 1e-3 * np.outer(d, pivot_row)
        table[row] = pivot_row
    return time.perf_counter() - start


class Phase:
    """Whole cycles of rounds ``round_fn(0 .. cycle-1)``, timed for at
    least ``seconds``.  A round that raises a ``MultimpactError`` counts
    all its ops as failed.
    """

    def __init__(self, round_fn, ops_per_round: int, seconds: float, cycle: int):
        from multimpact.errors import MultimpactError

        self.rates = []  # per round, scaled to the reference speed
        self.raw_rates = []
        self.ops = 0
        self.failed = 0
        self.busy_s = 0.0
        before = calibrate()
        end = time.perf_counter() + seconds
        k = 0
        while True:
            start = time.perf_counter()
            try:
                round_fn(k)
            except MultimpactError as exc:
                print(f"round failed: {exc!r}", file=sys.stderr)
                self.failed += ops_per_round
            took = time.perf_counter() - start
            after = calibrate()
            slowdown = 0.5 * (before + after) / CAL_REF_S
            self.rates.append(ops_per_round / took * slowdown)
            self.raw_rates.append(ops_per_round / took)
            self.ops += ops_per_round
            self.busy_s += took
            before = after
            k = (k + 1) % cycle
            if k == 0 and time.perf_counter() >= end:
                break

    @property
    def rate(self) -> float:
        return statistics.median(self.rates)

    @property
    def raw_rate(self) -> float:
        return statistics.median(self.raw_rates)


def measure_setup(workload: str, reps: int) -> dict:
    """Fresh-interpreter set-up: start, import, load, build, ``psi``.

    Each probe is scaled by the time a fresh interpreter takes to import
    numpy alone, timed just before and after it: start-up and import slow
    down with the machine in a way the numpy kernel does not follow.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "probe.py"), *PROBE_SCENES[workload]]
    reference = [sys.executable, "-c", "import numpy"]

    def interpreter_s(args) -> float:
        start = time.perf_counter()
        subprocess.run(args, env=env, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    interpreter_s(cmd)  # writes bytecode
    totals, imports, builds = [], [], []
    before = interpreter_s(reference)
    for _ in range(reps):
        start = time.perf_counter()
        with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            took = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        after = interpreter_s(reference)
        parts = json.loads(line)
        totals.append(took * SETUP_REF_S / (0.5 * (before + after)))
        imports.append(parts["import_s"])
        builds.append(parts["build_s"])
        before = after
    return {
        "setup_s": statistics.median(totals),
        "import_s": statistics.median(imports),
        "build_s": statistics.median(builds),
    }


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def plain_run(wl, seconds: float, setup: dict) -> dict:
    serial = Phase(wl.serial_round, wl.serial_ops, SERIAL_SHARE * seconds, wl.cycle)
    wl.start_jobs()
    jobs = Phase(wl.jobs_round, wl.jobs_ops, (1.0 - SERIAL_SHARE) * seconds, wl.cycle)
    print(
        f"{wl.name}: raw ops_per_s {serial.raw_rate:.1f}, raw ops_per_s_jobs "
        f"{jobs.raw_rate:.1f}, rounds {len(serial.rates)} + {len(jobs.rates)}"
    )
    return {
        "attempted": serial.ops + jobs.ops,
        "failed": serial.failed + jobs.failed,
        "metrics": {
            "ops_per_s": metric(serial.rate, "1/s"),
            "ops_per_s_jobs": metric(jobs.rate, "1/s"),
            "setup_s": metric(setup["setup_s"], "s"),
            "peak_rss_mb": metric(peak_rss_mb(resource.RUSAGE_SELF), "MB"),
        },
    }


def traced_run(wl, seconds: float, setup: dict, trace_path: Path) -> dict:
    """Untraced and traced jobs=1 phases, then the fan-out figures."""
    import numpy as np
    from multimpact import scenes

    from tracer import Tracer
    import workloads

    share = seconds / 3.0
    plain = Phase(wl.serial_round, wl.serial_ops, share, wl.cycle)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Phase(wl.serial_round, wl.serial_ops, share, wl.cycle)
        ops, busy = traced.ops, traced.busy_s
        if wl.name != "baselines":
            for _ in range(20):
                scenes.build_problem(wl.scene)
    finally:
        tracer.remove()

    fanout_s = 0.0
    efficiency = 0.0
    wl.start_jobs()
    jobs = Phase(wl.jobs_round, wl.jobs_ops, share, wl.cycle)
    if wl.name != "baselines":
        times = []
        for _ in range(FANOUT_REPS):
            start = time.perf_counter()
            wl.fanout_round()
            times.append(time.perf_counter() - start)
        fanout_s = statistics.median(times)
        efficiency = jobs.rate / (workloads.NPROC * plain.rate)

    def per_call_us(name, self_time=False):
        layer = tracer.layer(name)
        took = layer.self_s if self_time else layer.total_s
        return 1e6 * took / layer.calls if layer.calls else 0.0

    lemke = tracer.layer("lcp.lemke_solve")
    pivots = np.array(tracer.pivots or [0])
    solves = sum(tracer.supports.values())
    top64 = sum(count for _, count in tracer.supports.most_common(64))
    rows = tracer.csv_rows
    csv_set = tracer.layer("io.set_to_csv")
    csv_cmp = tracer.layer("io.compare_to_csv")
    steps = np.array(tracer.steps or [0])
    values = {
        "setapprox.sobol_block.us_per_call": (per_call_us("setapprox.sobol_block"), "us"),
        "setapprox.sobol_block.share": (tracer.layer("setapprox.sobol_block").total_s / busy, "ratio"),
        "setapprox.fanout_s": (fanout_s, "s"),
        "setapprox.parallel_efficiency": (efficiency, "ratio"),
        "setapprox.rejected": (wl.rejected(), "count"),
        "lcp.lemke_solve.calls_per_op": (lemke.calls / ops, "per_op"),
        "lcp.lemke_solve.us_per_call": (per_call_us("lcp.lemke_solve"), "us"),
        "lcp.lemke_solve.share": (lemke.total_s / busy, "ratio"),
        "lcp.lemke_solve.pivots_mean": (pivots.mean(), "count"),
        "lcp.lemke_solve.pivots_max": (pivots.max(), "count"),
        "lcp.lemke_solve.us_per_pivot": (1e6 * lemke.total_s / max(1, int(pivots.sum())), "us"),
        "lcp.supports_distinct": (len(tracer.supports), "count"),
        "lcp.supports_top64_share": (top64 / solves if solves else 0.0, "ratio"),
        "lcp.residuals.us_per_call": (per_call_us("lcp.residuals"), "us"),
        "resolution.sim.steps_per_op": (steps.mean(), "per_op"),
        "resolution.sim.steps_max": (steps.max(), "count"),
        "resolution.sim_step.self_us_per_call": (
            per_call_us("resolution.sim_step", self_time=True), "us"
        ),
        "resolution.assemble_impact_lcp.us_per_call": (
            per_call_us("resolution.assemble_impact_lcp"), "us"
        ),
        "resolution.finishing_solves": (tracer.finishing_solves / ops, "per_op"),
        "resolution.anitescu_resolve.us_per_call": (per_call_us("resolution.anitescu_resolve"), "us"),
        "resolution.sequential_resolve.us_per_call": (
            per_call_us("resolution.sequential_resolve"), "us"
        ),
        "resolution.compute_r.us_per_call": (per_call_us("resolution.compute_r"), "us"),
        "contact.in_linear_cone.us_per_call": (per_call_us("contact.in_linear_cone"), "us"),
        "contact.is_impacting.calls_per_op": (tracer.layer("contact.is_impacting").calls / ops, "per_op"),
        "scenes.build_problem.us_per_call": (per_call_us("scenes.build_problem"), "us"),
        "io.set_to_csv.rows_per_s": (rows["set"] / csv_set.total_s if csv_set.calls else 0.0, "rows/s"),
        "io.set_to_csv.bytes": (tracer.csv_bytes["set"] / csv_set.calls if csv_set.calls else 0, "B"),
        "io.compare_to_csv.rows_per_s": (
            rows["compare"] / csv_cmp.total_s if csv_cmp.calls else 0.0, "rows/s"
        ),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.build_s": (setup["build_s"], "s"),
        "trace.overhead": (traced.rate / plain.rate, "ratio"),
        "workers.peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
    }
    trace_path.write_text(
        json.dumps(
            {
                "workload": wl.name,
                "layers": {
                    name: vars(stats) for name, stats in sorted(tracer.stats.items())
                },
                "span_fields": ["id", "name", "start", "end", "parent"],
                "spans": tracer.spans,
            }
        )
    )
    failed = plain.failed + traced.failed + jobs.failed
    return {
        "attempted": plain.ops + traced.ops + jobs.ops,
        "failed": failed,
        "metrics": {name: metric(v, unit) for name, (v, unit) in values.items()},
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads

    OUT.mkdir(exist_ok=True)
    setup = measure_setup(name, 1 if smoke else SETUP_REPS)
    if name == "baselines":
        wl = workloads.BaselinesWorkload(seed, OUT, smoke)
    else:
        wl = workloads.SamplingWorkload(name, seed, OUT, smoke)
    try:
        wl.serial_round(0)  # warm-up: bytecode and per-problem caches
        if trace:
            result = traced_run(wl, seconds, setup, OUT / f"trace_{name}.json")
        else:
            result = plain_run(wl, seconds, setup)
    finally:
        wl.close()
    faults = wl.check()
    for fault in faults[:20]:
        print(f"CHECK FAILED: {fault}", file=sys.stderr)
    print(
        f"{name}: workers peak_rss_mb {peak_rss_mb(resource.RUSAGE_CHILDREN):.1f} "
        f"(largest child process; {workloads.NPROC} workers)"
    )
    if name != "baselines":
        print(f"{name}: farthest baseline outcome {wl.coverage_share:.4f} |v0|_M from a sample")
    return {
        "correct": not faults,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload, tiny sizes")
    args = parser.parse_args(argv)
    if not (SRC / "multimpact" / "__init__.py").is_file():
        print(f"no multimpact sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                result = run(name, args.seed, 0.0, trace, smoke=True)
                ok &= result["correct"] and result["failed"] == 0
                print(json.dumps({"workload": name, "trace": trace, **result}))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    (OUT / f"result_{args.workload}_trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
