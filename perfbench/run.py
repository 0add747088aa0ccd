#!/usr/bin/env python3
"""End-to-end benchmark of the paper grid.

Builds `run_suite` and the traced pass from this checkout's sources, runs
one workload and prints its metrics; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload grid_cold --seed 1 --trace 0
    python3 perfbench/run.py --workload all   # every workload, both passes

--trace 0 times untraced `run_suite` children from outside (wall, wait4
rusage) and reports the end-to-end metrics. --trace 1 runs one untraced
child, then the traced pass (perfbench_trace) over the same cells, and
reports per-layer self times and counts. Every child runs with 4 worker
threads and only the scale, seed, width and cache knobs set. Caches,
reports and span files live in a temporary directory under the build
directory and are removed at exit. perfbench/NOTES.md explains the
workloads, the metrics and the traced pass.
"""

import argparse
import collections
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
THREADS = 4
CHILD_TIMEOUT_S = 120.0


Workload = collections.namedtuple("Workload",
                                  "filter_text sample repeats warm")


WORKLOADS = {
    # All six default units (39 cells, 10 figure panels) on an empty cache.
    "grid_cold": Workload("", 1000, 3, warm=False),
    # The same grid re-run over the cache its set-up filled.
    "grid_warm": Workload("", 1000, 3, warm=True),
    # folk/outliers (3 cells x 9 cleaning methods) at the paper's sample.
    "paper_slice": Workload("folk/outliers", 15000, 2, warm=False),
}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]

# Per-layer metrics of the traced pass: name, unit.
PER_LAYER = [
    ("ml.tune.xgboost_s", "s"), ("ml.predict.xgboost_s", "s"),
    ("ml.gbdt.round_filters", "count"),
    ("ml.tune.knn_s", "s"), ("ml.predict.knn_s", "s"),
    ("ml.knn.distance_pairs", "count"),
    ("ml.tune.log-reg_s", "s"), ("ml.predict.log-reg_s", "s"),
    ("ml.encode_s", "s"), ("ml.tuning.folds_materialized", "count"),
    ("detect.outliers-if_s", "s"), ("detect.mislabels_s", "s"),
    ("detect.outliers-sd_s", "s"), ("detect.outliers-iqr_s", "s"),
    ("detect.missing_values_s", "s"), ("detect.calls", "count"),
    ("repair.s", "s"), ("repair.calls", "count"),
    ("core.prepare_s", "s"), ("fairness.confusion_s", "s"),
    ("core.disparity_s", "s"), ("core.impact_s", "s"),
    ("datasets.generate_s", "s"),
    ("exec.cache_load_s", "s"), ("exec.cache_hits", "count"),
    ("io.bytes_read", "bytes"),
    ("exec.checkpoint_s", "s"), ("exec.repeats_run", "count"),
    ("io.bytes_written", "bytes"),
    ("sched.cpu_util", "ratio"), ("sched.artifacts_produced", "count"),
    ("sched.artifacts_reused", "count"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
    ("trace.slices_checked", "count"), ("trace.slices_matched", "count"),
    ("trace.panels_checked", "count"), ("trace.panels_matched", "count"),
]

# Program counters the traced pass reads from the metrics registry.
COUNTER_METRICS = {
    "ml.gbdt.round_filters": "ml.gbdt.round_filters",
    "ml.knn.distance_pairs": "ml.knn.distance_pairs",
    "ml.tuning.folds_materialized": "ml.tuning.folds_materialized",
    "exec.cache_hits": "driver.cache_hits",
    "exec.repeats_run": "driver.repeats_run",
    "exec.checkpoint_s": "driver.stage_wall_s.checkpoint",
    "io.bytes_read": "io.bytes_read",
    "io.bytes_written": "io.bytes_written",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ----------------------------------------------------------------- build --

def build(targets):
    """Configures the build dir (once) and builds `targets`. Untraced runs
    build only run_suite, so they keep working when a layer API the traced
    pass calls changes."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no fairclean sources next to %s" % BENCH_DIR)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(THREADS),
                  "--target"] + targets)
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError("build step failed: %s" % " ".join(step))


# -------------------------------------------------------------- children --

def child_env(workload, seed):
    """The environment of every child: the parent's minus every FAIRCLEAN_*
    knob, plus exactly the scale, seed and width knobs (each call adds
    FAIRCLEAN_CACHE_DIR)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FAIRCLEAN_")}
    env.update(FAIRCLEAN_SAMPLE=str(workload.sample),
               FAIRCLEAN_REPEATS=str(workload.repeats),
               FAIRCLEAN_SEED=str(seed),
               FAIRCLEAN_THREADS=str(THREADS))
    return env


ChildRun = collections.namedtuple(
    "ChildRun", "exit_code wall_s cpu_s peak_rss_mb stdout")


def run_child(args, env, work_dir):
    """Runs one child to completion; wall time from launch to exit, CPU
    and max RSS from this child's own wait4 rusage."""
    out_path = work_dir / "child.out"
    err_path = work_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, env=env, stdout=out, stderr=err,
                                cwd=work_dir, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    # wait4 reaped the child; record its status on the Popen object too.
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log("child %s exited %d: %s" % (
            Path(args[0]).name, proc.returncode,
            err_path.read_text(errors="replace")[-2000:]))
    return ChildRun(proc.returncode, wall_s, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0,
                    out_path.read_text(errors="replace"))


def suite_args(workload, *args):
    """A run_suite command line for the workload's cells."""
    args = [str(BUILD_DIR / "run_suite"), *args]
    if workload.filter_text:
        args += ["--filter", workload.filter_text]
    return args


def expected_cells(workload, env, work_dir):
    """Cells the workload attempts, from `run_suite --list`."""
    env = dict(env, FAIRCLEAN_CACHE_DIR=str(work_dir))
    listed = subprocess.run(suite_args(workload, "--list"), env=env,
                            cwd=work_dir, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            timeout=60)
    if listed.returncode != 0:
        raise BenchError("run_suite --list failed: %s" % listed.stderr)
    cells = sum(1 for line in listed.stdout.splitlines()
                if line.strip().startswith("[cell]"))
    if cells == 0:
        raise BenchError("workload selects no cells")
    return cells


class Session:
    """One benchmark run of one workload: a temp dir, the set-up, and the
    timed children with their report checks."""

    def __init__(self, name, seed, root):
        self.name = name
        self.workload = WORKLOADS[name]
        self.dir = Path(tempfile.mkdtemp(prefix=name + ".", dir=root))
        self.env = child_env(self.workload, seed)
        self.cells = 0  # set by setup()
        self.setup_s = []
        self.runs = []
        self.attempted = 0
        self.failed = 0
        self.retried = 0
        self.reference = None  # report bytes every later run must equal
        self.filled_cache = None
        self.counter = 0

    def fresh_path(self, stem):
        self.counter += 1
        return self.dir / ("%s%d" % (stem, self.counter))

    def setup(self):
        """Brings the workload to its start state and returns its cache
        dir. One set-up lists the workload's cells (`run_suite --list`) and
        makes a fresh, empty cache dir; a warm workload's set-up also fills
        that cache with a full cold run of the same grid, once, and later
        set-ups reuse it. Cold set-ups run several times and record their
        median, so the figure is steady."""
        if self.filled_cache is not None:
            return self.filled_cache
        samples = []
        caches = []
        for _ in range(1 if self.workload.warm else 5):
            start = time.perf_counter()
            self.cells = expected_cells(self.workload, self.env, self.dir)
            caches.append(self.fresh_path("cache"))
            caches[-1].mkdir()
            if self.workload.warm:
                if self._run(caches[-1], measured=False).exit_code != 0:
                    raise BenchError("warm set-up: the filling run failed")
                self.filled_cache = caches[-1]
            samples.append(time.perf_counter() - start)
        for unused in caches[:-1]:
            unused.rmdir()
        self.setup_s.append(benchlib.median(samples))
        return caches[-1]

    def _run(self, cache, measured=True):
        report = self.fresh_path("report").with_suffix(".json")
        env = dict(self.env, FAIRCLEAN_CACHE_DIR=str(cache))
        run = run_child(suite_args(self.workload, "--report", str(report)),
                        env, self.dir)
        report_bytes = report.read_bytes() if report.is_file() else b""
        failed, retried = benchlib.failed_cells(
            run.exit_code, report_bytes, self.cells, self.reference)
        self.retried += retried
        if self.reference is None and failed == 0:
            self.reference = report_bytes
        self.attempted += self.cells
        self.failed += failed
        if failed:
            log("%s: %d of %d cells failed the report check" % (
                self.name, failed, self.cells))
        if measured:
            self.runs.append(run)
        return run

    def measure_once(self):
        cache = self.setup()
        run = self._run(cache)
        if not self.workload.warm:
            shutil.rmtree(cache, ignore_errors=True)
        return run

    def measure(self, seconds):
        """Timed children until `seconds` have passed: at least one, and
        none started that would end past 1.5x the budget. A warm
        workload's one-off fill happens before the clock starts."""
        if self.workload.warm:
            self.setup()
        start = time.perf_counter()
        while True:
            self.measure_once()
            elapsed = time.perf_counter() - start
            last = self.runs[-1].wall_s
            if elapsed >= seconds or elapsed + last > 1.5 * seconds:
                return

    def samples(self):
        """Every sample of each end-to-end metric taken in this run."""
        return {
            "wall_s": [r.wall_s for r in self.runs],
            "cpu_s": [r.cpu_s for r in self.runs],
            "peak_rss_mb": [r.peak_rss_mb for r in self.runs],
            "setup_s": self.setup_s,
        }


# ---------------------------------------------------------------- traced --

ARTIFACTS_RE = re.compile(r"artifacts produced=(\d+) reused=(\d+)")


def traced_pass(session):
    """One untraced child, then the traced pass over the same cells.
    Returns (per-layer metrics, whether the pass ran)."""
    untraced = session.measure_once()
    workload = session.workload
    if workload.warm:
        cache = session.filled_cache
    else:
        cache = session.fresh_path("cache")
        cache.mkdir()
    spans_path = session.dir / "spans.tsv"
    summary_path = session.dir / "summary.json"
    args = [str(BUILD_DIR / "perfbench_trace"), "--spans", str(spans_path),
            "--summary", str(summary_path)]
    if workload.filter_text:
        args += ["--filter", workload.filter_text]
    if workload.warm:
        args.append("--warm")
    env = dict(session.env, FAIRCLEAN_CACHE_DIR=str(cache))
    traced = run_child(args, env, session.dir)
    if traced.exit_code != 0 or not summary_path.is_file():
        return {name: 0.0 for name, _ in PER_LAYER}, False
    summary = json.loads(summary_path.read_text())
    seconds, counts = benchlib.layer_rollup(
        benchlib.read_spans(spans_path))
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(seconds)
    metrics.update(counts)
    for name, counter in COUNTER_METRICS.items():
        metrics[name] = summary["counters"].get(counter, 0.0)
    match = ARTIFACTS_RE.search(untraced.stdout)
    if match:
        metrics["sched.artifacts_produced"] = float(match.group(1))
        metrics["sched.artifacts_reused"] = float(match.group(2))
    metrics["sched.cpu_util"] = untraced.cpu_s / (untraced.wall_s * THREADS)
    metrics["trace.overhead_s"] = summary["traced_wall_s"] - untraced.wall_s
    metrics["trace.coverage"] = (
        sum(seconds.values()) + metrics["exec.checkpoint_s"]) / untraced.cpu_s
    for key in ("slices_checked", "slices_matched", "panels_checked",
                "panels_matched"):
        metrics["trace." + key] = float(summary[key])
    unknown = set(seconds) - {name for name, _ in PER_LAYER}
    if unknown:
        log("spans outside the per-layer list: %s" % sorted(unknown))
    if (summary["slices_matched"] != summary["slices_checked"] or
            summary["panels_matched"] != summary["panels_checked"]):
        log("%s: traced pass differs from the program on some slices; its "
            "layer split is unattributed" % session.name)
    return metrics, True


# ---------------------------------------------------------------- output --

def print_table(title, rows):
    print(title)
    for name, value, unit, *spread in rows:
        print("  %-30s %16.6g %-6s%s" % (name, value, unit,
                                         spread[0] if spread else ""))


def run_workload(name, seed, seconds, trace, root):
    session = Session(name, seed, root)
    if trace:
        metrics, ran = traced_pass(session)
        table = [(n, metrics[n], u) for n, u in PER_LAYER]
        spec = PER_LAYER
    else:
        session.measure(seconds)
        samples = session.samples()
        metrics = {n: benchlib.median(v) for n, v in samples.items()}
        ran = True
        table = [(n, metrics[n], u, "  median of %d, p10 %.6g, p90 %.6g" % (
            len(samples[n]), benchlib.percentile(samples[n], 10),
            benchlib.percentile(samples[n], 90))) for n, u in END_TO_END]
        spec = END_TO_END
    frac = benchlib.cells_failed_frac(session.failed, session.attempted)
    table.append(("cells_failed_frac", frac, "ratio"))
    table.append(("cells_retried", session.retried, "count"))
    print_table("%s (seed %d, %s, %d runs)" % (
        name, seed, "traced" if trace else "untraced",
        len(session.runs)), table)
    result = {
        "correct": session.failed == 0 and ran,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in spec},
    }
    return result, metrics


def layer_ranking(metrics):
    """Layers by share of summed traced self time, largest first."""
    layers = {n: metrics[n] for n, u in PER_LAYER
              if u == "s" and not n.startswith("trace.") and metrics[n] > 0}
    total = sum(layers.values())
    return [(n, v / total) for n, v in
            sorted(layers.items(), key=lambda kv: -kv[1])]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    try:
        traced = opts.trace == 1 or opts.workload == "all"
        build(["run_suite"] + (["perfbench_trace"] if traced else []))
        (BUILD_DIR / "runs").mkdir(exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="run.", dir=BUILD_DIR / "runs"))
        try:
            if opts.workload != "all":
                result, _ = run_workload(opts.workload, opts.seed,
                                         opts.seconds, opts.trace, root)
                print(json.dumps(result))
                return 0
            correct = True
            for name in WORKLOADS:
                result, _ = run_workload(name, opts.seed, opts.seconds,
                                         False, root)
                correct &= result["correct"]
            for name in WORKLOADS:
                result, metrics = run_workload(name, opts.seed, opts.seconds,
                                               True, root)
                correct &= result["correct"]
                print("  layer ranking: " + ", ".join(
                    "%s %.1f%%" % (n, 100 * share)
                    for n, share in layer_ranking(metrics)[:8]))
            return 0 if correct else 1
        finally:
            shutil.rmtree(root, ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError) as error:
        log("benchmark failed: %s" % error)
        return 2


if __name__ == "__main__":
    sys.exit(main())
