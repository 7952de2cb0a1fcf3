"""Repository benchmark: host time of the simulator's real workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-observed --seed 7 \\
        --seconds 30 --trace 0

``--workload`` is one of ``paper-tables``, ``fleet-observed``,
``fault-campaign`` or ``all``.  Each pass of a workload runs in a fresh
interpreter (``passrun.py``), a single caller issuing its work back to
back (a closed loop).  A run is a fixed number of passes, at least
two, chosen from ``--seconds`` and each workload's nominal pass time, so
every revision measures the same work; on a machine much slower than
planned, passes after the second are skipped.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, writing the spans as Chrome trace-event JSON under
``perfbench/out/`` (opens in Perfetto).  ``perfbench/workloads.json``
records each workload's inputs, items and purpose, and which
end-to-end metric each per-layer metric should move.

Every run checks the program's outputs: every simulated block passes
``verify_result``; digests and fault-outcome counts agree across passes,
between traced and untraced passes, and, for the default seed, with
``perfbench/expected.json``; paper-tables numbers match
``tests/fixtures/golden_*.json``.  The last line of standard output is
one JSON object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import passrun

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 2012

#: Seconds one pass takes, set-up included, on a loaded 2-CPU x86
#: container (measured; the same container runs up to twice as fast
#: when its host is idle).  A run makes ``round(seconds / nominal)``
#: passes, and at least ``MIN_PASSES``.
NOMINAL_PASS_S = {
    "paper-tables": 19.5,
    "fleet-observed": 8.3,
    "fault-campaign": 6.5,
}

#: The metrics are medians over passes, so a run needs more than one.
MIN_PASSES = 2

#: The planned passes may take this many times their nominal time
#: before the remaining ones are skipped.  Skipping changes the item
#: count, so it is kept for a machine much slower than planned.
BUDGET_SLACK = 1.25

#: setup_s is the median of at least this many interpreter starts;
#: set-up-only passes make up the difference.
MIN_SETUP_SAMPLES = 5

#: A traced pass's layer self times must cover its wall time this well.
COVERAGE_TOLERANCE = 0.05

#: Whole-run budget; a pass is killed when it would overrun it.
RUN_BUDGET_S = 170.0

MAX_FAILURES_SHOWN = 20

#: Span-name prefixes that name a layer (longest match wins).
LAYERS = ("import", "bench", "kernels", "platform", "power", "experiments",
          "obs.telemetry", "farm", "resilience")


class PassError(RuntimeError):
    """A pass exited without a result."""


def layer_of(name: str) -> str:
    matches = [layer for layer in LAYERS
               if name == layer or name.startswith(layer + ".")]
    return max(matches, key=len) if matches else "bench"


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Start one pass in a fresh interpreter and wait for its result.

    The pass runs in its own session so a timeout kills it together
    with any farm workers it started.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--spawned", repr(spawned)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} {mode} pass overran the run budget")
    finally:
        # Also stops any farm worker a failed pass left behind.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise PassError(f"{workload} {mode} pass exited "
                        f"{proc.returncode}: {tail}")
    return json.loads(lines[-1])


def tail_percentile(items: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten items beyond it, but not
    below the median, as (value, percentile)."""
    ordered = sorted(items)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def span_times(spans: list[dict]) -> list[dict]:
    """Each span with its duration and self time (duration minus the
    part its child spans cover; children never overlap)."""
    rows = [dict(span, dur=span["end"] - span["start"]) for span in spans]
    child_time = [0.0] * len(rows)
    for row in rows:
        if row["parent"] is not None:
            child_time[row["parent"]] += row["dur"]
    for row, covered in zip(rows, child_time):
        row["self"] = row["dur"] - covered
        row["layer"] = layer_of(row["name"])
    return rows


def arch_of(item) -> str:
    return str(item).rsplit("/", 1)[-1]


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    rows = span_times(result["spans"])
    root = next(row for row in rows if row["name"] == "pass")
    inner = [row for row in rows if row is not root]
    counts = result["counts"]

    def total(name, key="dur"):
        return sum(row[key] for row in inner if row["name"] == name)

    metrics = {
        "import_s": total("import"),
        "kernels.build_s": total("kernels.build"),
        "kernels.verify_s": total("kernels.verify"),
        "power.reference_results_s": total("power.reference_results"),
        "power.calibrate_s": total("power.calibrate"),
        "experiments.run_s": total("experiments.run"),
        "platform.load_s": total("platform.load"),
        "platform.run_s": total("platform.run", "self"),
        "trace.coverage_frac": sum(row["self"] for row in inner)
        / root["dur"],
    }
    for layer in LAYERS[1:]:
        metrics[f"self_s.{layer}"] = sum(
            row["self"] for row in inner if row["layer"] == layer)
    for arch in passrun.ARCHES:
        run_s = sum(row["self"] for row in inner
                    if row["name"] == "platform.run"
                    and arch_of(row["item"]) == arch)
        metrics[f"platform.ns_per_cycle.{arch}"] = 1e9 * passrun.ratio(
            run_s, counts.get(f"cycles.{arch}", 0))
    if any(row["name"] == "power.reference_results" for row in inner):
        metrics["platform.exact_ns_per_cycle"] = 1e9 * passrun.ratio(
            metrics["platform.run_s"], counts["sim.cycles"])
    metrics.update(counts)
    return metrics


def chrome_trace(traced: list[dict]) -> dict:
    """Spans of every traced pass as Chrome trace-event JSON: one
    process per pass, the pass's own calls on thread 0 and farm jobs on
    one thread per worker."""
    events = []
    for pid, result in enumerate(traced, start=1):
        origin = min(span["start"] for span in result["spans"])
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"traced pass {pid}"}})
        for row in span_times(result["spans"]):
            events.append({
                "name": row["name"], "cat": row["layer"], "ph": "X",
                "pid": pid, "tid": 0,
                "ts": 1e6 * (row["start"] - origin), "dur": 1e6 * row["dur"],
                "args": {"item": row["item"], "self_s": row["self"]}})
        for span in result["worker_spans"]:
            events.append({
                "name": span["name"], "cat": "farm", "ph": "X", "pid": pid,
                "tid": span["worker"] + 1,
                "ts": 1e6 * (span["start"] - origin),
                "dur": 1e6 * (span["end"] - span["start"]),
                "args": {"job": span["item"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class Run:
    """Passes of one workload and the checks made on them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.passes: list[tuple[str, dict]] = []
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, modes: list[str], required: int, budget_s: float,
                setup_probes: int, deadline: float) -> None:
        """Run ``modes`` in order, skipping a pass beyond the first
        ``required`` that would end past ``budget_s`` at the pace of
        the slowest pass so far; then top up the set-up samples."""
        started = time.monotonic()
        longest = 0.0
        for index, mode in enumerate(modes):
            if index >= required \
                    and time.monotonic() - started + longest > budget_s:
                break
            begun = time.monotonic()
            self._one(mode, deadline)
            longest = max(longest, time.monotonic() - begun)
        missing = MIN_SETUP_SAMPLES - len(self.setup_samples)
        for __ in range(min(setup_probes, missing)):
            self._one("setup", deadline)

    def _one(self, mode: str, deadline: float) -> None:
        try:
            result = run_pass(self.workload, self.seed, mode, deadline)
        except PassError as exc:
            self.attempted += 1
            self.failures.append(str(exc))
            return
        self.setup_samples.append(result["setup_s"])
        if mode != "setup":
            self.passes.append((mode, result))
            self.attempted += result["attempted"]
            self.failures.extend(result["failures"])

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def check_outputs(self, expected: dict | None) -> None:
        """Outputs agree across passes (traced or not) and with the
        values recorded for the default seed."""
        outputs = [result["outputs"] for __, result in self.passes]
        for index, other in enumerate(outputs[1:], start=2):
            self.check(other == outputs[0],
                       f"pass {index} outputs differ from pass 1")
        if outputs and expected is not None:
            self.check(passrun.snapshots_match(expected, outputs[0]),
                       "outputs differ from perfbench/expected.json")

    def results(self, mode: str) -> list[dict]:
        return [result for m, result in self.passes if m == mode]

    def end_to_end(self) -> dict | None:
        untraced = self.results("untraced")
        items = [item for result in untraced for item in result["items"]]
        if not items:
            self.check(False, "no item completed")
            return None
        tail, percentile = tail_percentile(items)
        self.item_notes = {
            "item_s_p50": f"p50, n={len(items)}",
            "item_s_tail": f"p{percentile:.0f}, n={len(items)}"}
        return {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "sim_cycles_per_s": statistics.median(
                r["cycles"] / r["wall_s"] for r in untraced),
            "item_s_p50": statistics.median(items),
            "item_s_tail": tail,
            "setup_s": statistics.median(self.setup_samples),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in untraced),
        }

    def per_layer(self) -> dict:
        traced = self.results("traced")
        per_pass = [layer_metrics(result) for result in traced]
        for index, metrics in enumerate(per_pass, start=1):
            self.check(abs(metrics["trace.coverage_frac"] - 1)
                       <= COVERAGE_TOLERANCE,
                       f"traced pass {index}: self times cover "
                       f"{metrics['trace.coverage_frac']:.3f} of its wall")
        merged = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        merged["trace.overhead_frac"] = statistics.median(
            r["wall_s"] for r in traced) / statistics.median(
            r["wall_s"] for r in self.results("untraced")) - 1
        return merged


def plan_modes(workload: str, seconds: int, trace: bool) -> list[str]:
    passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    if not trace:
        return ["untraced"] * passes
    return ["untraced" if index % 2 == 0 else "traced"
            for index in range(passes)]


def pass_budget(workload: str, seconds: int, planned: int) -> float:
    """Seconds the planned passes may take before later ones are
    skipped, so a slow machine still ends the run in bounded time."""
    return BUDGET_SLACK * max(seconds, planned * NOMINAL_PASS_S[workload])


def format_value(value: float) -> str:
    return f"{value:.6g}"


def run_workload(workload: str, args, spec: dict, docs: dict,
                 expected: dict, deadline: float):
    """Run one workload; returns (metrics, attempted, failed)."""
    modes = plan_modes(workload, args.seconds, args.trace)
    run = Run(workload, args.seed)
    run.execute(modes, required=MIN_PASSES,
                budget_s=pass_budget(workload, args.seconds, len(modes)),
                setup_probes=0 if args.trace else MIN_SETUP_SAMPLES,
                deadline=deadline)
    complete = set(modes) <= {mode for mode, __ in run.passes}
    if complete:
        run.check_outputs(expected.get(workload)
                          if args.seed == DEFAULT_SEED and not args.record
                          else None)

    print(f"== {workload}  seed {args.seed}  passes {len(run.passes)}/"
          f"{len(modes)} ({'traced' if args.trace else 'untraced'})")
    metrics = {}
    values = run.end_to_end() if complete and not args.trace else None
    if values is not None:
        for entry in spec["end_to_end"]:
            name = entry["name"]
            metrics[name] = {"value": values[name], "unit": entry["unit"]}
            note = f"  ({run.item_notes[name]})" \
                if name in run.item_notes else ""
            print(f"  {name:<40} {format_value(values[name]):>12} "
                  f"{entry['unit']}{note}")
    elif complete and args.trace:
        values = run.per_layer()
        applies = docs["per_layer"]
        for entry in spec["per_layer"]:
            name = entry["name"]
            value = values.get(name, 0)
            metrics[name] = {"value": value, "unit": entry["unit"]}
            where = applies[name]["workloads"]
            if workload in where:
                print(f"  {name:<40} {format_value(value):>12} "
                      f"{entry['unit']}")
            else:
                print(f"  {name:<40} {'n/a':>12} (measured on "
                      f"{', '.join(where)} only)")
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(chrome_trace(
            run.results("traced"))), encoding="utf-8")
        print(f"  spans: {trace_path.relative_to(ROOT)}")
    failed = len(run.failures)
    print(f"  {'failed_frac':<40} "
          f"{format_value(failed / max(1, run.attempted)):>12} "
          f"({failed}/{run.attempted})")
    if workload == "paper-tables" and run.passes:
        err = run.passes[0][1]["counts"]["experiments.paper_err_mean"]
        print(f"  {'paper_err_mean':<40} {format_value(err):>12}")
    for message in run.failures[:MAX_FAILURES_SHOWN]:
        print(f"  FAILED: {message}")
    if args.record and complete and not run.failures:
        expected[workload] = run.passes[0][1]["outputs"]
    return metrics, run.attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(passrun.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the default seed's outputs to "
                             "perfbench/expected.json")
    args = parser.parse_args(argv)
    # A terminated run still stops its pass (run_pass's finally).
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(128 + signal.SIGTERM))
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record takes only the default seed {DEFAULT_SEED}")

    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    docs = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) \
        if EXPECTED.is_file() else {}
    # Byte-compile once, untimed, so set-up never includes compiling.
    compileall.compile_dir(ROOT / "src", quiet=1)

    workloads = sorted(passrun.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    deadline = started + RUN_BUDGET_S * len(workloads)
    metrics: dict = {}
    attempted = failed = 0
    for workload in workloads:
        found, tried, bad = run_workload(workload, args, spec, docs,
                                         expected, deadline)
        attempted += tried
        failed += bad
        if len(workloads) > 1:
            found = {f"{workload}.{name}": value
                     for name, value in found.items()}
        metrics.update(found)
    if args.record:
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
