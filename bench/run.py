"""The lafte benchmark: drives the real CLI and prints its metrics.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload pipeline-1e6 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, untraced and traced
    python3 bench/run.py --workload all --smoke  # toy sizes, as bench/tests runs them

Each workload writes its seeded inputs under ``.bench_work/``, then runs its
command sequence (one *pass*) as child processes ``python -m lafte.cli ...
--format structured`` against ``src/``: a closed loop with one client and
one child at a time. Passes repeat until ``--seconds`` have elapsed, and at
least twice. Every report goes through the correctness gate (``gate.py``);
a command that fails it, or exits with an unexpected code, counts as failed.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median wall time of
a fresh interpreter running ``import lafte.cli``), ``wall_s`` (median pass
time) and ``peak_rss_mb`` (median over passes of the largest child max-RSS,
from ``os.wait4``), and the median wall time of each subcommand the workload
runs. Only the first three are in the final JSON line: they exist on every
workload, and a single call's time spreads too much from run to run on a
shared machine to gate on.

``--trace 1`` alternates untraced passes with passes whose commands run under
``tracer.py``, and prints per-layer self times, work counts, the import
breakdown from ``python -X importtime`` and the tracing overhead. Spans are
written to ``.bench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric, including per-command times and ``ops_failed_frac``, with
units and sample counts, and the run's metadata.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import gate
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 1
SETUP_REPS = 5
MIN_PASSES = 2
# Every run exits within 180 s: no pass starts that would end past the
# budget, and a child still running at the deadline is killed.
RUN_BUDGET_S = 165.0
DEADLINE_S = 175.0

# Per-layer metrics taken from the span names of a traced pass.
TRACED_FUNCTIONS = (
    "data.load_table", "data.save_table", "data.from_arrays", "data.derive",
    "regression.ols", "regression.tsls", "regression.fit_stacked",
    "regression.stack", "regression.wald_joint",
    "strata.sample", "strata.analytic_moments", "verify.verify_identities",
)
CALL_COUNTED = ("data.derive", "regression.ols", "regression.tsls",
                "regression.fit_stacked", "regression.stack", "regression.wald_joint")
SELF_TIMED_LAYERS = ("import", "cli", "report", "regression", "estimands",
                     "diagnostics", "bounds")


@dataclass
class Call:
    """One finished child process."""

    command: workloads.Command
    wall: float
    rss_mb: float
    problems: list = field(default_factory=list)
    spans: list | None = None


class Runner:
    """Runs commands for one workload run and applies the correctness gate."""

    def __init__(self, root: Path, work: Path, inputs: workloads.Inputs,
                 reference: dict | None, started: float):
        self.root = root
        self.work = work
        self.inputs = inputs
        self.reference = reference
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.contrasts = {name: workloads.contrasts(spec)
                          for name, spec in inputs.populations.items()}
        self.signatures: dict[str, str] = {}
        self.reports: dict[str, dict] = {}
        self.calls: list[Call] = []
        # Problems of the run as a whole, such as work counts that differ
        # between traced passes.
        self.problems: list[str] = []

    def spawn(self, argv: list[str], stdout, stderr) -> tuple[float, float, int]:
        """Wall seconds, max RSS in MB and exit code of one child."""
        remaining = self.started + DEADLINE_S - time.monotonic()
        if remaining <= 0:
            return 0.0, 0.0, -signal.SIGKILL
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                 stdout=stdout, stderr=stderr)
        killer = threading.Timer(remaining, child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
            code, rss_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0
        except ChildProcessError:  # reaped by the deadline timer's kill
            code, rss_mb = -signal.SIGKILL, 0.0
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        child.returncode = code
        return wall, rss_mb, code

    def setup_time(self) -> float:
        with open(os.devnull, "wb") as null:
            wall, _, code = self.spawn([sys.executable, "-c", "import lafte.cli"], null, null)
        if code != 0:
            raise RuntimeError("importing lafte.cli failed")
        return wall

    def import_breakdown(self) -> tuple[float, float]:
        err = self.work / "importtime.txt"
        with open(os.devnull, "wb") as null, open(err, "wb") as handle:
            _, _, code = self.spawn([sys.executable, "-X", "importtime", "-c",
                                     "import lafte.cli"], null, handle)
        if code != 0:
            raise RuntimeError("importing lafte.cli failed")
        return parse_importtime(err.read_text(encoding="utf-8"))

    def run(self, command: workloads.Command, traced: bool) -> Call:
        out, err = self.work / "stdout.json", self.work / "stderr.txt"
        spans_path = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "lafte.cli"]
        argv += [*command.argv, "--format", "structured"]
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            wall, rss, code = self.spawn(argv, stdout, stderr)
        call = Call(command, wall, rss)
        if traced and code == 0:
            call.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        call.problems = self.check(command, code, out, err)
        self.calls.append(call)
        return call

    def check(self, command: workloads.Command, code: int, out: Path, err: Path) -> list[str]:
        if code != 0:
            tail = err.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            return [f"exit code {code}: {tail}"]
        digest = hashlib.sha256(out.read_bytes())
        for name in command.writes:
            digest.update((self.work / name).read_bytes())
        signature = digest.hexdigest()
        first = self.signatures.setdefault(command.key, signature)
        if first != signature:
            return ["output differs from the first run of the same command"]
        if command.key in self.reports:
            return []
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
            self.reports[command.key] = report
            problems = gate.check_report(command, report, self.contrasts[command.truth],
                                         self.work)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed report: {exc!r}"]
        if self.reference is not None:
            expected = self.reference.get(command.key)
            if expected is None:
                problems.append("no reference report for this command")
            else:
                problems += gate.compare_reference(expected, report)[:5]
        return problems

    def more_passes(self, seconds: float, measuring: float, passes: list[float],
                    minimum: int) -> bool:
        """Whether to start another pass, given the walls of those done."""
        now = time.monotonic()
        if passes and now + 1.2 * passes[-1] > self.started + RUN_BUDGET_S:
            return False
        return len(passes) < minimum or now - measuring < seconds

    def run_pass(self, traced: bool) -> list[Call]:
        return [self.run(command, traced) for command in self.inputs.commands]


def parse_importtime(text: str) -> tuple[float, float]:
    """Cumulative import seconds of ``lafte.cli`` and of scipy, from ``-X importtime``."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        name = name[1:]
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    lafte_cli = scipy = 0.0
    ancestors: list[tuple[int, bool]] = []
    # Children are printed before their parent; walk parents first.
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(flag for _, flag in ancestors):
            scipy += cumulative
        if name == "lafte.cli":
            lafte_cli = cumulative
        ancestors.append((depth, is_scipy))
    return lafte_cli, scipy


def span_self_times(spans: list) -> list[float]:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(calls: list[Call]) -> tuple[dict, dict]:
    """Self times and work counts of one traced pass."""
    times: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = Counter()
    inclusive: dict[str, float] = defaultdict(float)
    moved: dict[str, int] = Counter()
    fits = duplicates = 0
    spanned = 0.0
    for call in calls:
        seen = set()
        spans = call.spans or []
        for (name, start, end, _, attrs), self_s in zip(spans, span_self_times(spans)):
            layer = name.split(".")[0]
            times[f"{layer}.self_s"] += self_s
            times[f"{name}.self_s"] += self_s
            spanned += self_s
            inclusive[name] += end - start
            counts[f"{name}.calls"] += 1
            if not attrs:
                continue
            if "bytes" in attrs:
                moved[name] += attrs["bytes"]
            if name == "regression.stack":
                counts["regression.stacked_rows"] += attrs["rows"]
            if "digest" in attrs:
                fits += 1
                counts["regression.rows_fitted"] += attrs["rows"]
                counts["regression.cluster_fits"] += attrs["clustered"]
                duplicates += attrs["digest"] in seen
                seen.add(attrs["digest"])
    counts["regression.fits"] = fits
    wall = sum(call.wall for call in calls)
    out_times = {f"{layer}.self_s": times[f"{layer}.self_s"] for layer in SELF_TIMED_LAYERS}
    for name in TRACED_FUNCTIONS:
        out_times[f"{name}.self_s"] = times[f"{name}.self_s"]
    for name in ("data.load_table", "data.save_table"):
        seconds = inclusive[name]
        out_times[f"{name}.mb_per_s"] = moved[name] / 1e6 / seconds if seconds else 0.0
    out_times["trace.bookkeeping_s"] = times["trace.self_s"]
    # The rest of the wall is process start-up before the tracer's first
    # clock reading, and process exit.
    out_times["trace.accounted_frac"] = spanned / wall
    out_counts = {f"{name}.calls": counts[f"{name}.calls"] for name in CALL_COUNTED}
    for name in ("regression.fits", "regression.rows_fitted", "regression.stacked_rows",
                 "regression.cluster_fits"):
        out_counts[name] = counts[name]
    out_counts["regression.duplicate_fit_frac"] = duplicates / fits if fits else 0.0
    return out_times, out_counts


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def metadata(args, inputs: workloads.Inputs, work: Path, workload: str) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "workload": workload, "seed": args.seed, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "blas_threads": blas_threads(),
        "rows": inputs.rows,
        "input_bytes": {name: (work / name).stat().st_size
                        for name in sorted(inputs.rows) if (work / name).exists()},
    }


def load_reference(workload: str, seed: int, smoke: bool) -> dict | None:
    if smoke or seed != DEFAULT_SEED:
        return None
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        raise RuntimeError(f"missing reference report {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def save_reference(workload: str, runner: Runner) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    reports = {key: {k: v for k, v in report.items() if k != "metadata"}
               for key, report in runner.reports.items()}
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(reports, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def measure(args, root: Path, workload: str, trace: int) -> tuple[dict, list[str]]:
    """One workload run: returns the result object and the report lines."""
    started = time.monotonic()
    work = root / ".bench_work" / f"{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = workloads.WORKLOADS[workload](work, args.seed, args.smoke)
        reference = None if args.update_reference else load_reference(
            workload, args.seed, args.smoke)
        runner = Runner(root, work, inputs, reference, started)
        runner.setup_time()  # compiles bytecode and warms the file cache
        if trace:
            metrics, lines = traced_run(args, runner, workload)
        else:
            metrics, lines = untraced_run(args, runner, workload)
        if args.update_reference:
            save_reference(workload, runner)
        meta = metadata(args, inputs, work, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((root / ".bench_work").iterdir()):
            (root / ".bench_work").rmdir()

    calls = runner.calls
    failed = [call for call in calls if call.problems]
    lines.append(f"  ops_failed_frac           {len(failed) / len(calls):.4f}  "
                 f"({len(failed)} of {len(calls)} commands)")
    for call in failed[:10]:
        lines.append(f"  FAILED {call.command.key}: {'; '.join(call.problems)}")
    lines.append("# meta " + json.dumps(meta, sort_keys=True))
    for problem in runner.problems:
        lines.append(f"  FAILED {problem}")
    result = {"correct": not failed and not runner.problems,
              "attempted": len(calls), "failed": len(failed), "metrics": metrics}
    return result, lines


def _metric(name: str, value: float, unit: str) -> dict:
    return {name: {"value": value, "unit": unit}}


def untraced_run(args, runner: Runner, workload: str) -> tuple[dict, list[str]]:
    reps = 2 if args.smoke else SETUP_REPS
    setups = [runner.setup_time() for _ in range(reps)]
    passes, rss = [], []
    measuring = time.monotonic()
    while runner.more_passes(args.seconds, measuring, passes, MIN_PASSES):
        calls = runner.run_pass(traced=False)
        passes.append(sum(call.wall for call in calls))
        rss.append(max(call.rss_mb for call in calls))
    per_command = defaultdict(list)
    for call in runner.calls:
        per_command[call.command.name].append(call.wall)
    metrics = {}
    metrics.update(_metric("setup_s", median(setups), "s"))
    metrics.update(_metric("wall_s", median(passes), "s"))
    metrics.update(_metric("peak_rss_mb", median(rss), "MB"))
    lines = [f"workload {workload}: {len(passes)} passes, seed {args.seed}",
             f"  setup_s                   {median(setups):.4f} s   (median of {len(setups)})",
             f"  wall_s                    {median(passes):.4f} s   (median of {len(passes)})",
             f"  peak_rss_mb               {median(rss):.1f} MB  (median of {len(rss)} passes)"]
    for name, walls in per_command.items():
        lines.append(f"  {name + '_s':<25} {median(walls):.4f} s   (median of {len(walls)})")
    return metrics, lines


def traced_run(args, runner: Runner, workload: str) -> tuple[dict, list[str]]:
    lafte_cli_s, scipy_s = runner.import_breakdown()
    plain, traced, layer_times, layer_counts = [], [], defaultdict(list), []
    measuring = time.monotonic()
    while runner.more_passes(args.seconds, measuring,
                             [p + t for p, t in zip(plain, traced)], 1):
        plain.append(sum(call.wall for call in runner.run_pass(traced=False)))
        calls = runner.run_pass(traced=True)
        traced.append(sum(call.wall for call in calls))
        times, counts = layer_metrics(calls)
        for name, value in times.items():
            layer_times[name].append(value)
        layer_counts.append(counts)
    if any(counts != layer_counts[0] for counts in layer_counts):
        runner.problems.append("work counts differ between traced passes")
    values = {"import.lafte_cli_s": (lafte_cli_s, "s"), "import.scipy_s": (scipy_s, "s")}
    for name, samples in layer_times.items():
        unit = "MB/s" if name.endswith("mb_per_s") else (
            "fraction" if name.endswith("_frac") else "s")
        values[name] = (median(samples), unit)
    for name, value in layer_counts[0].items():
        values[name] = (value, "fraction" if name.endswith("_frac") else "count")
    values["trace.overhead_frac"] = (median(traced) / median(plain) - 1.0, "fraction")
    metrics = {}
    lines = [f"workload {workload}: {len(traced)} traced and {len(plain)} untraced "
             f"passes, seed {args.seed}"]
    for name, (value, unit) in values.items():
        metrics.update(_metric(name, value, unit))
        lines.append(f"  {name:<34} {value if unit == 'count' else f'{value:.6g}'} {unit}")
    out = runner.root / ".bench_out"
    out.mkdir(exist_ok=True)
    spans = [{"id": i, "argv": call.command.argv, "wall_s": call.wall, "spans": call.spans}
             for i, call in enumerate(runner.calls) if call.spans is not None]
    (out / f"{workload}-seed{args.seed}.spans.json").write_text(
        json.dumps(spans) + "\n", encoding="utf-8")
    return metrics, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1 for the traced per-layer run; both runs when omitted")
    parser.add_argument("--smoke", action="store_true",
                        help="toy input sizes; checks that every metric is produced")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite reference/<workload>.json from this run "
                             f"(default seed {DEFAULT_SEED} only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lafte" / "__init__.py").is_file():
        print("error: run from the root of a lafte checkout (src/lafte not found)",
              file=sys.stderr)
        return 2
    if args.update_reference and (args.smoke or args.seed != DEFAULT_SEED):
        print(f"error: references are made at full size with seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [(name, trace) for name in names
            for trace in ((0, 1) if args.trace is None else (args.trace,))]
    results = {}
    try:
        for name, trace in runs:
            results[f"{name} --trace {trace}"], lines = measure(args, root, name, trace)
            print("\n".join(lines), flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results.popitem()[1] if len(results) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
