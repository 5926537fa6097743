"""eventcrawl benchmark: index, crawl and eval as users run them.

    python3 bench/run.py --workload {ingest,crawl,eval,all} --seed N --seconds S --trace {0,1}

Set-up builds the workload's inputs from the seed. The run then repeats
the workload's commands for S seconds, each in a fresh child process,
and builds the inputs again twice in between, for a median ``setup_s``.
It checks every output against the generator's ground truth and prints
the metrics: end-to-end ones with ``--trace 0``, per-layer ones from
traced child processes of the primary commands with ``--trace 1``. The
last line of stdout is the JSON result; with ``--workload all`` it
covers the three workloads in turn, with metric names prefixed by the
workload. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

from inputs import ROOT, WORKLOADS, Sizes, import_eventcrawl

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
HARD_LIMIT_S = 170  # every run must end within 180 s
SECONDARY_RUNS = 4  # times each secondary command runs in a measured run
# One open takes tens of milliseconds, so an open child repeats it for
# OPEN_SECONDS and reports the median.
OPEN_SECONDS = 0.3

# Commands a run measures, in the order a cycle runs them. The primary
# ones are what the workload exists to measure, and the traced run traces
# them. The others give every end-to-end metric a value on every workload.
CYCLE = {
    "ingest": ("index", "open", "crawl", "eval"),
    "crawl": ("open", "crawl", "eval"),
    "eval": ("open", "crawl", "eval"),
}
PRIMARY = {"ingest": ("index", "open"), "crawl": ("crawl",), "eval": ("eval",)}
# Commands that run in every cycle, so that their samples spread over the
# whole run. The rest of CYCLE runs SECONDARY_RUNS times, spread evenly
# over the run, so most of the time goes to the primary commands. On
# ingest the budget makes crawl and eval cheap (about 1 s and 1.7 s, as
# long as index), so they run every cycle too and get as many samples.
EVERY_CYCLE = {
    "ingest": ("index", "open", "crawl", "eval"),
    "crawl": ("open", "crawl"),
    "eval": ("open", "eval"),
}
# Operations counted by attempted/failed on each workload.
OPERATIONS = {"ingest": "index", "crawl": "crawl", "eval": "eval"}

END_TO_END = {
    "setup_s": "s",
    "index_s": "s",
    "open_s": "s",
    "crawl_docs_per_s": "docs/s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}
BASE = {"index": "records scanned", "crawl": "frontier pops", "eval": "strategies"}


@dataclass
class Step:
    """One command's outcome."""

    command: str
    wall: float
    rss_mb: float
    value: float = 0.0  # the command's end-to-end metric
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""


class ChildTimeout(RuntimeError):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout("a benchmark command exceeded the run's time limit")


class Bench:
    def __init__(self, workload: str, seed: int, sizes: Sizes, work: Path):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.inputs = work / "inputs"
        self.hard_deadline = perf_counter() + HARD_LIMIT_S
        self.open_seconds = OPEN_SECONDS
        self.truth = None

    # -- processes -----------------------------------------------------

    def child(self, argv: list[str], spans: Path | None = None) -> tuple[float, float, int, str]:
        """Run bench/child.py; returns (wall s, peak RSS MB, exit code, stdout).

        A traced command that fails stops the run with its error output,
        which names any trace hook that no longer matches the program.
        """
        rss_path = self.work / "child.rss"
        rss_path.unlink(missing_ok=True)
        command = [sys.executable, str(BENCH / "child.py"), "--rss", str(rss_path)]
        if spans is not None:
            command += ["--spans", str(spans)]
        out_path, err_path = self.work / "child.stdout", self.work / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            wall, code = self._wait(command + argv, out, err)
        if spans is not None and code != 0:
            raise RuntimeError(f"traced command {argv[:2]} failed:\n{err_path.read_text()[-2000:]}")
        rss_mb = int(rss_path.read_text()) / 1024.0 if rss_path.exists() else 0.0
        return wall, rss_mb, code, out_path.read_text(encoding="utf-8")

    def _wait(self, command, out, err) -> tuple[float, int]:
        started = perf_counter()
        process = subprocess.Popen(command, stdout=out, stderr=err, cwd=ROOT)
        signal.alarm(max(1, int(self.hard_deadline - perf_counter())))
        try:
            _, status = os.waitpid(process.pid, 0)
        except ChildTimeout:
            process.kill()
            os.waitpid(process.pid, 0)
            raise
        finally:
            signal.alarm(0)
        wall = perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        return wall, process.returncode

    # -- set-up --------------------------------------------------------

    def setup(self) -> tuple[float, float | None]:
        """Build the inputs from the seed; returns the set-up and index wall times.

        A later call builds the same inputs again in the same place; it is
        checked to write what the first one wrote.
        """
        shutil.rmtree(self.inputs, ignore_errors=True)
        command = [
            sys.executable, str(BENCH / "inputs.py"), "--sizes", json.dumps(asdict(self.sizes)),
            "--seed", str(self.seed), "--out", str(self.inputs),
        ]
        with open(self.work / "setup.log", "wb") as log:
            wall, code = self._wait(command, log, log)
        if code != 0:
            raise RuntimeError(f"input generation failed: {(self.work / 'setup.log').read_text()}")
        index_wall = None
        if self.sizes.index_in_setup:
            step = self.index(self.inputs / "index.cdx", check=False)
            if step.problems:
                raise RuntimeError(f"set-up index failed: {step.problems}")
            index_wall = step.wall
            wall += step.wall
        from checks import Truth, check_index

        record = json.loads((self.inputs / "truth.json").read_text())
        if self.truth is None:
            self.truth = Truth(record, self.inputs / "warcs")
        elif record != self.truth.record:
            raise RuntimeError("a repeated set-up wrote other inputs than the first")
        if self.sizes.index_in_setup:
            problems = check_index(self.inputs / "index.cdx", self.truth, self.seed)
            if problems:
                raise RuntimeError(f"set-up index is wrong: {problems}")
        return wall, index_wall

    # -- commands ------------------------------------------------------

    def index(self, index_path: Path, spans: Path | None = None, check: bool = True) -> Step:
        from checks import check_index, digest

        wall, rss, code, stdout = self.child(
            ["cli", "index", "--warc-dir", str(self.inputs / "warcs"), "--index", str(index_path)], spans
        )
        step = Step("index", wall, rss, value=wall)
        match = re.search(r"\((\d+) skipped\)", stdout)
        step.failed = int(match.group(1)) if match else 0
        if code != 0 or not match:
            step.problems.append(f"index exited {code}: {stdout.strip()}")
        elif check:
            step.attempted = self.truth.record["records"]
            step.problems += check_index(index_path, self.truth, self.seed)
            step.digest = digest(index_path)
        return step

    def open(self, index_path: Path, spans: Path | None = None) -> Step:
        from checks import check_open

        wall, rss, code, stdout = self.child(["open", str(index_path), str(self.open_seconds)], spans)
        step = Step("open", wall, rss)
        if code != 0:
            step.problems.append(f"open exited {code}")
            return step
        result = json.loads(stdout.strip().splitlines()[-1])
        step.value = result["open_s"]
        step.problems += check_open(result, self.truth)
        step.digest = str(result["captures"])
        return step

    def crawl(self, index_path: Path, out: Path, spans: Path | None = None) -> Step:
        from checks import check_crawl, digest

        wall, rss, code, _ = self.child(
            ["cli", "crawl", "--spec", str(self.inputs / "spec.json"), "--index", str(index_path),
             "--strategy", "ct-f", "--out", str(out)],
            spans,
        )
        step = Step("crawl", wall, rss)
        if code != 0:
            step.problems.append(f"crawl exited {code}")
            return step
        step.problems, step.attempted, step.failed, fetched = check_crawl(out, self.truth)
        step.value = fetched / wall
        step.digest = digest(out)
        return step

    def eval(self, index_path: Path, out: Path, spans: Path | None = None) -> Step:
        from checks import check_eval, digest

        wall, rss, code, _ = self.child(
            ["cli", "eval", "--spec", str(self.inputs / "spec.json"), "--index", str(index_path),
             "--strategy", "all", "--out", str(out)],
            spans,
        )
        step = Step("eval", wall, rss, value=wall, attempted=4)
        step.problems, step.failed = check_eval(out, code)
        step.digest = digest(out)
        return step

    def cycle(self, commands, cycle_dir: Path, traced: bool = False) -> dict[str, Step]:
        """Run one cycle of commands; any failed check fails all of its operations."""
        cycle_dir.mkdir(parents=True)
        index_path = (cycle_dir if "index" in commands else self.inputs) / "index.cdx"
        steps = {}
        for command in commands:
            spans = cycle_dir / f"{command}.spans.json" if traced else None
            try:
                if command == "index":
                    step = self.index(index_path, spans)
                elif command == "open":
                    step = self.open(index_path, spans)
                else:
                    step = getattr(self, command)(index_path, cycle_dir / command, spans)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                step = Step(command, 0.0, 0.0, problems=[f"{command} output unreadable: {exc!r}"])
            steps[command] = step
        if any(step.problems for step in steps.values()):
            main = steps.get(OPERATIONS[self.workload])
            if main is not None:
                main.failed = main.attempted = max(main.attempted, 1)
        return steps

    # -- runs ----------------------------------------------------------

    def measure(self, seconds: float) -> tuple[dict, list[Step]]:
        samples = {name: [] for name in END_TO_END}

        def set_up():
            setup_wall, index_wall = self.setup()
            samples["setup_s"].append(setup_wall)
            if index_wall is not None:
                samples["index_s"].append(index_wall)

        set_up()
        metric_of = {"index": "index_s", "open": "open_s", "crawl": "crawl_docs_per_s", "eval": "eval_s"}
        all_steps = []
        started = perf_counter()
        n = secondary_runs = 0
        setups = 1
        while n == 0 or perf_counter() < started + seconds:
            # The k-th repeat of the set-up, and the k-th run of the secondary
            # commands, wait until k/SETUP_REPEATS or k/SECONDARY_RUNS of the
            # time has passed, so that their samples spread over the run too.
            if setups < SETUP_REPEATS and perf_counter() - started >= setups * seconds / SETUP_REPEATS:
                set_up()
                setups += 1
            secondary = secondary_runs < SECONDARY_RUNS and (
                perf_counter() - started >= secondary_runs * seconds / SECONDARY_RUNS
            )
            secondary_runs += secondary
            commands = [c for c in CYCLE[self.workload] if secondary or c in EVERY_CYCLE[self.workload]]
            cycle_dir = self.work / f"cycle{n}"
            steps = self.cycle(commands, cycle_dir)
            shutil.rmtree(cycle_dir)
            for command, step in steps.items():
                samples[metric_of[command]].append(step.value)
            samples["peak_rss_mb"].append(steps[OPERATIONS[self.workload]].rss_mb)
            all_steps += steps.values()
            n += 1
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        return metrics, all_steps

    def trace(self, seconds: float) -> tuple[dict, list[Step]]:
        import tracing

        self.setup()
        self.open_seconds = 0.0  # the child opens once, so that its spans describe one open
        per_cycle, untraced_wall, traced_wall, all_steps = [], [], [], []
        deadline = perf_counter() + seconds
        n = 0
        while n == 0 or perf_counter() < deadline:
            plain = self.cycle(PRIMARY[self.workload], self.work / f"plain{n}")
            traced_dir = self.work / f"traced{n}"
            traced = self.cycle(PRIMARY[self.workload], traced_dir, traced=True)
            for command, step in traced.items():
                if step.digest != plain[command].digest:
                    step.problems.append(f"traced {command} wrote different outputs than untraced")
            spans = tracing.load([traced_dir / f"{command}.spans.json" for command in traced])
            per_cycle.append(tracing.layer_metrics(spans))
            untraced_wall.append(sum(step.wall for step in plain.values()))
            traced_wall.append(sum(step.wall for step in traced.values()))
            shutil.rmtree(self.work / f"plain{n}")
            shutil.rmtree(traced_dir)
            all_steps += list(plain.values()) + list(traced.values())
            n += 1
        values = tracing.merged_metrics(per_cycle)
        values["trace.overhead_share"] = statistics.median(traced_wall) / statistics.median(untraced_wall) - 1.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _better) in tracing.PER_LAYER.items()}
        return metrics, all_steps


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return result.stdout.strip() or "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes | None = None) -> dict:
    """One benchmark run; returns the result object printed last."""
    import_eventcrawl()
    sizes = sizes or WORKLOADS[workload]
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        bench = Bench(workload, seed, sizes, work)
        metrics, steps = bench.trace(seconds) if trace else bench.measure(seconds)
        record = bench.truth.record
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    counted = [step for step in steps if step.command == OPERATIONS[workload]]
    problems = [problem for step in steps for problem in step.problems]
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": {key: record[key] for key in (
            "warc_bytes", "captures", "pages", "words_per_page", "links_per_page",
            "skip_records", "budget",
        )},
    }
    return {
        "environment": environment,
        "problems": problems,
        "correct": not problems,
        "attempted": sum(step.attempted for step in counted),
        "failed": sum(step.failed for step in counted),
        "metrics": metrics,
    }


def report(workload: str, result: dict) -> None:
    """Print the environment, any failed checks and every metric with its unit."""
    print("environment " + json.dumps(result["environment"]))
    for problem in result["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:48} {metric['value']:14.6g} {metric['unit']}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{'failed_share':48} {share:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} {BASE[OPERATIONS[workload]]})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        results[workload] = run(workload, args.seed, args.seconds, bool(args.trace))
        report(workload, results[workload])
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps({key: final[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
