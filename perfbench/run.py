"""margintree benchmark: planted workloads through the user-facing CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload planted-small --seed 0 --seconds 34 --trace 0

Set-up generates a panel of planted datasets with ``margintree generate``.
The run then calls ``margintree cluster`` and ``margintree evaluate`` on them
in-process through ``margintree.cli.main``: one client, one process, ops
back to back (a closed loop). Every op's output is checked. The end-to-end
op times are reference-core seconds, which do not move with the speed the
shared host gives the benchmark's vCPU (see speed.py). With ``--trace 1``
untraced and traced cycles alternate, and the traced ones report per-layer
metrics (see layers.py). The last line of standard output is the result
object; the line before it is the full record (sample counts, tails, failure
messages, environment). See README.md for the metrics and how to use them.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported: numpy links a multithreaded OpenBLAS,
# and a second thread on a two-core machine makes timings depend on load.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

import layers  # noqa: E402  (next to this file, so on sys.path already)
import speed  # noqa: E402


@dataclass(frozen=True)
class Workload:
    why: str
    branching: int
    per_class: int
    k: int
    max_leaves: int
    panel: int  # datasets generated per run; each is clustered at least once


# Every workload uses the default planted tree of `margintree generate`
# (depth 2, 30 features, magnitudes 5,3) and hmmc with alpha = beta = 0.01
# and one restart. The panel averages the differences in work between planted
# datasets (one cluster op's time has a standard deviation of about 15% over
# datasets on each workload); its size is fixed so that every run measures
# the same inputs for a given seed, however fast the program is, and chosen
# so that one pass over it takes about a 34 s run even when the host runs the
# benchmark's vCPU at its slow speed throughout.
WORKLOADS = {
    "planted-small": Workload(
        why="N=200, K=2: the weight update is nearly all of a build, so an optim or objective change shows here "
        "and a flow change should not",
        branching=2, per_class=50, k=2, max_leaves=4, panel=8,
    ),
    "planted-large": Workload(
        why="N=1600, K=2: the min-cost-flow assignment is about a third of a build (2% on planted-small), and csv "
        "load, O(n^2) pair scoring and feature copies grow with n",
        branching=2, per_class=400, k=2, max_leaves=4, panel=4,
    ),
    "planted-wide": Workload(
        why="branching 4, K=4: the general-K flow path, ancestor chains and discarded candidate splits, so a "
        "builder or K=2-only change shows here",
        branching=4, per_class=50, k=4, max_leaves=10, panel=3,
    ),
}

# The result line carries these, as BENCHMARK.json lists them.
END_TO_END = {"cluster_s": "s", "evaluate_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ri": "1", "sp": "1", "ps": "1"}
# Only in the record: the objective differs up to fivefold between planted
# datasets on planted-wide (k-means init of the K=4 child splits), so no panel
# that fits in a run makes it steady; failed_fraction is 0 on a correct run,
# and the result line's attempted/failed carry it.
RECORD_ONLY = {"objective": "1", "failed_fraction": "1", "cluster_wall_s": "s"}
QUALITY = ("ri", "sp", "ps", "objective")
REPORT_KEYS = {"ri": "rand_index", "sp": "sp", "ps": "ps"}
MAX_PROBLEMS_SHOWN = 20
SETUP_SAMPLES = 7
# evaluate is cheap next to cluster; more samples steady evaluate_s.
EVALUATE_REPEATS = 3


class BenchmarkError(Exception):
    """The benchmark cannot run: no program to measure, or set-up failed."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import margintree from the checkout's src/; returns cli.main and the
    numpy version."""
    if not (SRC / "margintree" / "cli.py").is_file():
        raise BenchmarkError(f"no margintree sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    from margintree.cli import main

    return main, numpy.__version__


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


@dataclass
class Op:
    rc: int | None
    seconds: float  # reference-core seconds untraced (see speed.py), wall seconds traced
    wall_s: float
    stderr: str


def run_op(main, argv: list[str], sampler: speed.SpeedSampler, tracer: layers.Tracer | None = None) -> Op:
    """One CLI command in-process; stdout is discarded, exceptions become a
    failed op with the traceback. An untraced op is timed by the speed
    sampler, a traced one by the wall clock alone, so that no kernel samples
    land inside the spans."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    timed = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer:
                rc = tracer.span("cli", main, argv)
            else:
                rc, timed = sampler.time(main, argv)
    except Exception:  # a crashing op is a failed op; the run goes on
        rc = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    if timed is None:
        return Op(rc, wall, wall, err.getvalue()[-2000:])
    return Op(rc, timed.reference_s, timed.wall_s, err.getvalue()[-2000:])


class Panel:
    """The run's planted datasets and everything measured on them."""

    def __init__(self, main, workload: Workload, seed: int, workdir: Path):
        self.main = main
        self.sampler = speed.SpeedSampler()
        self.w = workload
        self.workdir = workdir
        self.data_seeds = [seed * 100 + j for j in range(workload.panel)]
        self.n = workload.branching**2 * workload.per_class
        self.generate_s: list[float] = []
        self.cluster_s: dict[int, list[float]] = {j: [] for j in range(workload.panel)}
        self.cluster_wall_s: dict[int, list[float]] = {j: [] for j in range(workload.panel)}
        self.evaluate_s: dict[int, list[float]] = {j: [] for j in range(workload.panel)}
        self.quality: dict[int, dict[str, float]] = {}
        self.first_hierarchy: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def path(self, j: int, name: str) -> str:
        return str(self.workdir / f"d{j}.{name}")

    def generate_argv(self, j: int) -> list[str]:
        return [
            "generate", "--out", self.path(j, "csv"), "--truth-out", self.path(j, "truth.json"),
            "--branching", str(self.w.branching), "--per-class", str(self.w.per_class),
            "--seed", str(self.data_seeds[j]),
        ]

    def generate(self) -> None:
        """Set-up. setup_s is the median of SETUP_SAMPLES `margintree generate`
        processes, each timed from start to exit so that interpreter start and
        imports count too; they write panel datasets 0, 1, ... (again from
        the start on a small panel: same seed, same bytes). Datasets beyond
        those are generated in-process, untimed."""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for i in range(SETUP_SAMPLES):
            argv = [sys.executable, "-m", "margintree.cli", *self.generate_argv(i % self.w.panel)]
            start = time.perf_counter()
            proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
            self.generate_s.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise BenchmarkError(f"generate failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
        for j in range(SETUP_SAMPLES, self.w.panel):
            op = run_op(self.main, self.generate_argv(j), self.sampler)
            if op.rc != 0:
                raise BenchmarkError(f"generate failed (exit {op.rc}): {op.stderr}")

    def _fail(self, j: int, what: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            if len(self.problems) < MAX_PROBLEMS_SHOWN:
                self.problems.append(f"dataset {j} ({what}): {problem}")

    def cycle(self, j: int, tracer: layers.Tracer | None = None) -> tuple[dict | None, float, float]:
        """cluster, then evaluate on its hierarchy, on dataset j. Returns the
        cluster report (None when the cluster op failed its checks), the
        cluster op's wall seconds and the cycle's wall seconds. A traced cycle runs one
        evaluate, so that per-layer values cover one op of each kind."""
        csv, truth, hier = self.path(j, "csv"), self.path(j, "truth.json"), self.path(j, "hierarchy.json")
        report_path, eval_path = self.path(j, "report.json"), self.path(j, "evaluate.json")
        self.attempted += 1
        cluster = run_op(self.main, [
            "cluster", "--input", csv, "--label-column", "--truth-tree", truth, "--method", "hmmc",
            "--k", str(self.w.k), "--max-leaves", str(self.w.max_leaves), "--alpha", "0.01", "--beta", "0.01",
            "--restarts", "1", "--seed", str(self.data_seeds[j]), "--hierarchy-out", hier,
            "--dot-out", self.path(j, "dot"), "--report-out", report_path,
        ], self.sampler, tracer)
        problems, report = self.check_cluster(j, cluster, hier, report_path)
        if problems:
            self._fail(j, "cluster", problems)
            return None, cluster.wall_s, cluster.wall_s
        if tracer is None:
            self.cluster_s[j].append(cluster.seconds)
            self.cluster_wall_s[j].append(cluster.wall_s)

        cycle_s = cluster.wall_s
        for _ in range(1 if tracer else EVALUATE_REPEATS):
            self.attempted += 1
            evaluate = run_op(self.main, [
                "evaluate", "--hierarchy", hier, "--input", csv, "--label-column", "--truth-tree", truth,
                "--report-out", eval_path,
            ], self.sampler, tracer)
            cycle_s += evaluate.wall_s
            problems = self.check_evaluate(evaluate, eval_path, report)
            if problems:
                self._fail(j, "evaluate", problems)
            elif tracer is None:
                self.evaluate_s[j].append(evaluate.seconds)
        return report, cluster.wall_s, cycle_s

    def check_cluster(self, j: int, op: Op, hier: str, report_path: str) -> tuple[list[str], dict | None]:
        """The problems with one cluster op's outputs, and its report. Records
        the dataset's quality scores from the first report that passes."""
        if op.rc != 0:
            return [f"exit code {op.rc}: {op.stderr.strip()}"], None
        try:
            raw = Path(hier).read_bytes()
            nodes = {record["id"]: record for record in json.loads(raw)["nodes"]}
            report = json.loads(Path(report_path).read_text())
            quality = {key: report["metrics"][REPORT_KEYS[key]] for key in ("ri", "sp", "ps")}
            quality["objective"] = report["objective"]
            dot = Path(self.path(j, "dot")).read_text()
            problems = []
            members = sorted(m for r in nodes.values() if not r["children"] for m in r.get("members", ()))
            if members != list(range(self.n)):
                problems.append("the leaves do not hold each of the N instance ids exactly once")
            for record in nodes.values():
                if not record["children"]:
                    continue
                n, k = record["size"], len(record["children"])
                lower, upper = (9 * n) // (10 * k), -((-11 * n) // (10 * k))
                sizes = [nodes[child]["size"] for child in record["children"]]
                if k != self.w.k or sum(sizes) != n or not all(lower <= s <= upper for s in sizes):
                    problems.append(f"node {record['id']} (n={n}) split into {sizes}, outside [{lower}, {upper}]")
        except (OSError, ValueError, KeyError, TypeError) as err:
            return [f"unreadable output: {type(err).__name__}: {err}"], None
        if report.get("leaf_count") != self.w.max_leaves or report.get("incomplete") is not False:
            problems.append(f"leaf_count {report.get('leaf_count')}, incomplete {report.get('incomplete')}")
        if not dot.startswith("digraph"):
            problems.append("the dot export is not a digraph")
        if raw != self.first_hierarchy.setdefault(j, raw):
            problems.append("hierarchy json differs from an earlier op on the same input")
        if not problems:
            self.quality.setdefault(j, quality)
        return problems, report

    @staticmethod
    def check_evaluate(op: Op, eval_path: str, report: dict) -> list[str]:
        """The problems with one evaluate op: its scores must equal the
        cluster report's."""
        if op.rc != 0:
            return [f"exit code {op.rc}: {op.stderr.strip()}"]
        try:
            scores = json.loads(Path(eval_path).read_text())["metrics"]
        except (OSError, ValueError, KeyError, TypeError) as err:
            return [f"unreadable output: {type(err).__name__}: {err}"]
        return [
            f"{key}: evaluate {scores.get(key)!r} != cluster {report['metrics'][key]!r}"
            for key in ("sp", "ps", "rand_index")
            if scores.get(key) != report["metrics"][key]
        ]


def panel_mean(samples: dict[int, list[float]]) -> float | None:
    """Mean over the panel's datasets of each dataset's median. The median
    drops an op slowed by a burst of load when a dataset ran more than once;
    the mean counts every dataset once, like the time to process the whole
    panel, and moves smoothly when some datasets need much more work."""
    medians = [statistics.median(v) for v in samples.values() if v]
    return statistics.fmean(medians) if medians else None


def describe(samples: dict[int, list[float]]) -> dict:
    """Pooled sample count, median and the highest percentile with at least
    ten samples beyond it (None when there are too few samples), and each
    dataset's median."""
    pooled = sorted(x for v in samples.values() for x in v)
    out = {
        "samples": len(pooled), "median": statistics.median(pooled) if pooled else None, "tail": None,
        "per_dataset": [statistics.median(v) if v else None for _, v in sorted(samples.items())],
    }
    for pct in (99, 95, 90, 75, 50):
        if len(pooled) * (100 - pct) / 100 >= 10:
            out["tail"] = {"percentile": pct, "value": statistics.quantiles(pooled, n=100)[pct - 1]}
            break
    return out


def measure(panel: Panel, seconds: float) -> None:
    """Untraced run: the whole panel once, then repeats in panel order while
    another cycle fits before the deadline. A repeat also checks that the
    hierarchy json is byte-identical on the same input."""
    deadline = time.perf_counter() + seconds
    last = [panel.cycle(j)[2] for j in range(panel.w.panel)]
    j = 0
    while time.perf_counter() + last[j] <= deadline:
        last[j] = panel.cycle(j)[2]
        j = (j + 1) % panel.w.panel


def measure_traced(panel: Panel, seconds: float) -> tuple[dict, list[str]]:
    """Traced run: per dataset an untraced cycle, then a traced one, while the
    next pair fits before the deadline. Dataset 0 always runs, with a second
    traced cycle for the exact-count self-check. Returns the per-layer record
    and the benchmark faults found."""
    tracer = layers.Tracer()
    deadline = time.perf_counter() + seconds
    per_layer: dict[str, dict[int, list[float]]] = {name: {} for name in layers.LAYER_METRICS}
    traced_cluster_s: dict[int, list[float]] = {}
    absent: dict[str, str] = {}
    counts: list[dict[str, float | None]] = []
    flow_calls = []
    for j in range(panel.w.panel):
        started = time.perf_counter()
        panel.cycle(j)
        for repeat in range(2 if j == 0 else 1):
            tracer.reset()
            tracer.install()
            try:
                report, cluster_s, _ = panel.cycle(j, tracer)
            finally:
                tracer.uninstall()
            if report is None:
                continue
            rounds = (report["leaf_count"] - 1) // (panel.w.k - 1)
            values, missing = layers.layer_values(tracer, rounds)
            absent.update(missing)
            for name, value in values.items():
                per_layer[name].setdefault(j, []).append(value)
            traced_cluster_s.setdefault(j, []).append(cluster_s)
            if j == 0:
                counts.append({name: values.get(name) for name in layers.EXACT_COUNTS})
                if repeat == 0:
                    flow_calls = [list(call) for call in tracer.flow_calls]
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    faults = []
    if len(counts) < 2:
        faults.append("the exact-count self-check did not get two traced cycles")
    elif counts[0] != counts[1]:
        faults.append(f"exact counts differ between two traced cycles on one input: {counts[0]} vs {counts[1]}")
    metrics = {name: panel_mean(samples) for name, samples in per_layer.items() if samples}
    paired = [d for d in traced_cluster_s if panel.cluster_wall_s[d]]
    if paired:  # wall time against wall time: the kernel samples are left out of the untraced ops
        traced = sum(statistics.median(traced_cluster_s[d]) for d in paired)
        untraced = sum(statistics.median(panel.cluster_wall_s[d]) for d in paired)
        metrics["trace.overhead"] = traced / untraced - 1.0
    record = {
        "metrics": metrics,
        "absent": {**tracer.absent, **absent},
        "datasets_traced": len(traced_cluster_s),
        "exact_counts_dataset0": counts,
        "flow_calls_dataset0": {"columns": ["n", "k", "s"], "calls": flow_calls},
    }
    return record, faults


def end_to_end(panel: Panel) -> dict[str, dict]:
    """Every end-to-end metric of an untraced run, with unit and sample count."""
    out = {
        "cluster_s": {"value": panel_mean(panel.cluster_s), **describe(panel.cluster_s)},
        "cluster_wall_s": {"value": panel_mean(panel.cluster_wall_s), **describe(panel.cluster_wall_s)},
        "evaluate_s": {"value": panel_mean(panel.evaluate_s), **describe(panel.evaluate_s)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "samples": 1},
        "setup_s": {
            "value": statistics.median(panel.generate_s), "samples": len(panel.generate_s),
        },
        "failed_fraction": {"value": panel.failed / panel.attempted, "samples": panel.attempted},
    }
    for key in QUALITY:
        per_dataset = [panel.quality[j][key] for j in sorted(panel.quality)]
        out[key] = {
            "value": statistics.fmean(per_dataset) if per_dataset else None,
            "samples": len(per_dataset), "per_dataset": per_dataset,
        }
    for name, unit in {**END_TO_END, **RECORD_ONLY}.items():
        out[name]["unit"] = unit
    return out


def run(args) -> tuple[dict, dict]:
    main, numpy_version = import_program()
    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        panel = Panel(main, workload, args.seed, workdir)
        panel.generate()
        if args.trace:
            per_layer, faults = measure_traced(panel, args.seconds)
            units = {name: unit for name, (unit, _better, _read) in layers.LAYER_METRICS.items()}
            units["trace.overhead"] = "1"
            values = per_layer["metrics"]
            record = {"per_layer": per_layer}
        else:
            measure(panel, args.seconds)
            record = {"end_to_end": end_to_end(panel)}
            units = END_TO_END
            values = {name: record["end_to_end"][name]["value"] for name in END_TO_END}
            faults = [f"no successful op to measure {name}" for name, value in values.items() if value is None]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update({
        "environment": environment(args, numpy_version),
        "workload": {"name": args.workload, **vars(workload), "n": panel.n, "data_seeds": panel.data_seeds},
        "attempted": panel.attempted,
        "failed": panel.failed,
        "problems": panel.problems,
        "faults": faults,
    })
    result = {
        "correct": panel.failed == 0 and not faults,
        "attempted": panel.attempted,
        "failed": panel.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if values.get(name) is not None
        },
    }
    return record, result


def cli(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its scratch directory (run's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record, result = run(args)
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    except ImportError as err:
        print(f"benchmark error: cannot import the program: {err}", file=sys.stderr)
        return 2
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(cli())
