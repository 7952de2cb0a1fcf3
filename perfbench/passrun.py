"""One pass of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass begins with
the cold host caches (decoded programs, translated blocks, golden runs)
a command-line user starts with.  The pass imports the simulator,
generates its inputs from the seed, issues its timed calls back to back
and prints one JSON object as the last line of standard output.

Modes:

``untraced``
    Times only the calls that make up the workload.
``traced``
    Also records a span (name, start, end, parent, item) around each
    call into a layer's public functions; platform ``load``/``run``,
    ``build_benchmark`` and ``verify_result`` are wrapped from here, never
    inside the program.
    No probe subscriber is ever attached: that would switch loop traces
    off and measure a different program.
``setup``
    Stops where the first timed call would start; only ``setup_s`` is
    meaningful.

All times use ``time.monotonic`` (CLOCK_MONOTONIC on Linux), the clock
``run.py`` stamps the spawn with and the farm stamps its jobs with.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ARCHES = ("mc-ref", "ulpmc-int", "ulpmc-bank")

#: Experiments built on the calibrated reference set (``repro
#: experiment`` ids), in CLI order.
PAPER_EXPERIMENTS = ("table1", "table2", "fig3", "fig5", "fig6", "fig7",
                     "fig8", "core", "lifetime")

#: Experiments pinned by ``tests/fixtures/golden_<id>.json``, and the
#: relative tolerance the golden-number test compares floats with.
GOLDEN_IDS = ("table1", "table2", "fig5", "fig6", "fig7", "fig8")
GOLDEN_REL_TOL = 1e-6

#: fleet-observed: farm jobs (patient streams) per pass.
FLEET_JOBS = 6

#: fault-campaign: trials per architecture per pass.  The fault plan is
#: the repository's default campaign seed, so the outcome mix (which
#: sets most of the run time) is the same for every benchmark seed; the
#: seed picks the patient recording the faults are injected into.
CAMPAIGN_TRIALS = 10
CAMPAIGN_PLAN_SEED = 2012

FARM_WORKERS = 2

REPO = Path(__file__).resolve().parent.parent


def derived_seed(seed: int, label: str) -> int:
    """A 32-bit input seed for ``label``, a pure function of ``seed``."""
    payload = f"perfbench:{seed}:{label}".encode("ascii")
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "little")


class Tracer:
    """In-memory spans; disabled, ``span`` is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def _record(self, name, item):
        index = len(self.spans)
        span = {"name": name, "item": item,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.monotonic(), "end": None}
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span["end"] = time.monotonic()

    def span(self, name, item=None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, item)

    def wrap(self, name, fn, item=None):
        """``fn`` with a span around every call."""
        def wrapped(*args, **kwargs):
            with self._record(name, item):
                return fn(*args, **kwargs)
        return wrapped


class Pass:
    """What one pass measured and checked."""

    def __init__(self, spawned: float, tracer: Tracer):
        self.spawned = spawned
        self.tracer = tracer
        self.setup_s: float | None = None
        self.wall_s = 0.0
        self.items: list[float] = []
        self.cycles = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict = {}
        self.counts: dict = {}
        self.worker_spans: list[dict] = []

    def end_setup(self) -> None:
        if self.setup_s is None:
            self.setup_s = time.monotonic() - self.spawned

    def timed(self, name, fn, *args, item=None, **kwargs):
        """Call ``fn`` as part of the workload; returns (value, seconds)."""
        self.end_setup()
        start = time.monotonic()
        with self.tracer.span(name, item):
            value = fn(*args, **kwargs)
        elapsed = time.monotonic() - start
        self.wall_s += elapsed
        return value, elapsed

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def sim_counts(stats_list) -> dict:
    """The simulated counts that only a model change may move."""
    return {
        "sim.cycles": sum(s.total_cycles for s in stats_list),
        "sim.retired": sum(s.total_retired for s in stats_list),
        "sim.stall_cycles": sum(s.total_stall_cycles for s in stats_list),
        "sim.im_accesses": sum(s.im_bank_accesses for s in stats_list),
        "sim.dm_accesses": sum(s.dm_bank_accesses for s in stats_list),
    }


def ratio(num, den) -> float:
    return num / den if den else 0.0


# -- paper-tables -------------------------------------------------------------

def _snapshot(result) -> dict:
    """The JSON core of an experiment, as the golden-number test takes it."""
    return {
        "exp_id": result.exp_id,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "comparisons": [
            {"metric": c.metric, "paper": c.paper, "measured": c.measured}
            for c in result.comparisons
        ],
    }


def snapshots_match(golden, current) -> bool:
    """Equal, with floats compared at the golden-number tolerance."""
    if isinstance(golden, float) or isinstance(current, float):
        return isinstance(golden, (int, float)) \
            and isinstance(current, (int, float)) \
            and math.isclose(float(golden), float(current),
                             rel_tol=GOLDEN_REL_TOL, abs_tol=1e-12)
    if isinstance(golden, dict) and isinstance(current, dict):
        return golden.keys() == current.keys() and all(
            snapshots_match(golden[key], current[key]) for key in golden)
    if isinstance(golden, list) and isinstance(current, list):
        return len(golden) == len(current) and all(
            snapshots_match(g, c) for g, c in zip(golden, current))
    return golden == current


@contextlib.contextmanager
def reference_spans(tracer: Tracer):
    """Span every ``MultiCoreSystem.load``/``run`` and the kernel build
    and verification made inside the block (``reference_results`` builds
    its benchmark and systems itself)."""
    import repro.power.calibration as calibration
    from repro.platform.multicore import MultiCoreSystem

    original_load, original_run = MultiCoreSystem.load, MultiCoreSystem.run

    def load(self, *args, **kwargs):
        with tracer.span("platform.load", self.config.name):
            return original_load(self, *args, **kwargs)

    def run(self, *args, **kwargs):
        with tracer.span("platform.run", self.config.name):
            return original_run(self, *args, **kwargs)

    original_build = calibration.build_benchmark
    original_verify = calibration.verify_result
    MultiCoreSystem.load, MultiCoreSystem.run = load, run
    calibration.build_benchmark = tracer.wrap("kernels.build", original_build)
    calibration.verify_result = tracer.wrap("kernels.verify", original_verify)
    try:
        yield
    finally:
        MultiCoreSystem.load, MultiCoreSystem.run = original_load, \
            original_run
        calibration.build_benchmark = original_build
        calibration.verify_result = original_verify


def paper_tables(p: Pass, seed: int, setup_only: bool) -> None:
    """The calibrated reference set and every experiment built on it, on
    the default exact engine.  The input is the paper's fixed
    calibration recording, so ``seed`` is unused."""
    with p.tracer.span("import"):
        from repro.experiments import EXPERIMENTS
        from repro.obs.manifest import stats_digest
        from repro.power.calibration import calibrated_set, \
            reference_results
    fixtures = {}
    with p.tracer.span("bench.inputs"):
        for exp_id in GOLDEN_IDS:
            path = REPO / "tests" / "fixtures" / f"golden_{exp_id}.json"
            fixtures[exp_id] = json.loads(path.read_text(encoding="utf-8"))
    if setup_only:
        p.end_setup()
        return

    spans = reference_spans(p.tracer) if p.tracer.enabled \
        else contextlib.nullcontext()
    with spans:
        (__, results), __ = p.timed("power.reference_results",
                                    reference_results)
    p.timed("power.calibrate", calibrated_set)
    snapshots = {}
    comparisons = []
    for exp_id in PAPER_EXPERIMENTS:
        try:
            result, __ = p.timed("experiments.run",
                                 EXPERIMENTS[exp_id].run, item=exp_id)
        except Exception as exc:  # reported as a failed operation
            p.check(False, f"experiment {exp_id}: {exc!r}")
            continue
        p.attempted += 1
        snapshots[exp_id] = _snapshot(result)
        comparisons.extend(result.comparisons)
    p.items.append(p.wall_s)

    with p.tracer.span("bench.check"):
        for exp_id in GOLDEN_IDS:
            p.check(snapshots_match(fixtures[exp_id], snapshots.get(exp_id)),
                    f"{exp_id} differs from tests/fixtures/golden_"
                    f"{exp_id}.json")
        stats = [results[arch].stats for arch in ARCHES]
        p.cycles = sum(s.total_cycles for s in stats)
        p.counts.update(sim_counts(stats))
        for arch in ARCHES:
            p.counts[f"cycles.{arch}"] = results[arch].stats.total_cycles
        p.counts["experiments.paper_err_mean"] = statistics.fmean(
            c.relative_error for c in comparisons) if comparisons else 0.0
        p.outputs = {
            "reference_stats": stats_digest(stats),
            "snapshots": {exp_id: snapshots.get(exp_id)
                          for exp_id in PAPER_EXPERIMENTS
                          if exp_id not in GOLDEN_IDS},
        }


# -- engine and cache counters (fleet-observed) ------------------------------

CACHE_KEYS = ("block_hits", "block_misses", "program_hits",
              "program_misses")


def arch_rows() -> dict:
    """Empty per-architecture engine and cache counters."""
    return {arch: dict.fromkeys(("cycles", "block_cycles", "trace_cycles",
                                 "compiled") + CACHE_KEYS, 0)
            | {"lockstep": []} for arch in ARCHES}


def arch_counts(arch: str, row: dict) -> dict:
    """Per-architecture engine and cache counts from summed counters."""
    return {
        f"fast_forward.block_cycle_frac.{arch}":
            ratio(row["block_cycles"], row["cycles"]),
        f"fast_forward.trace_cycle_frac.{arch}":
            ratio(row["trace_cycles"], row["cycles"]),
        f"fast_forward.lockstep_frac.{arch}":
            statistics.fmean(row["lockstep"]) if row["lockstep"] else 0.0,
        f"blocks.compiled.{arch}": row["compiled"],
        f"blocks.hit_rate.{arch}": ratio(
            row["block_hits"], row["block_hits"] + row["block_misses"]),
        f"platform.program_cache_hit_rate.{arch}": ratio(
            row["program_hits"],
            row["program_hits"] + row["program_misses"]),
    }


# -- fleet-observed -----------------------------------------------------------

def worker_spans(jobs, name) -> list[dict]:
    """Job spans on each worker's track, placed from the farm's own
    completion stamps and in-worker wall times."""
    spans = []
    for job in jobs:
        if job.result is None or job.finished_at is None:
            continue
        spans.append({"name": name, "item": job.job_id,
                      "worker": job.worker_id,
                      "start": job.finished_at - job.result.wall_time_s,
                      "end": job.finished_at})
    return spans


def fleet_observed(p: Pass, seed: int, setup_only: bool) -> None:
    """A ``run_farm`` fleet over every architecture on warm workers;
    each job is a patient stream observed by windowed telemetry."""
    tracer = p.tracer
    with tracer.span("import"):
        from repro.farm.fleet import build_plan, run_farm
    with tracer.span("farm.build_plan"):
        plan = build_plan(FLEET_JOBS, ARCHES,
                          base_seed=derived_seed(seed, "fleet"))
    if setup_only:
        p.end_setup()
        return

    fleet, wall = p.timed("farm.run_farm", run_farm, plan,
                          workers=FARM_WORKERS)
    telemetry, __ = p.timed("obs.telemetry.merge", fleet.telemetry_block)
    summary, __ = p.timed("farm.summary", fleet.fleet_summary)

    with tracer.span("bench.check"):
        results = fleet.completed()
        p.attempted += len(plan)
        p.failures.extend(f"job {job.spec.shard_index}: {job.state.value}"
                          f" {job.error or ''}".strip()
                          for job in fleet.jobs if job.result is None)
        p.items.extend(r.wall_time_s for r in results)
        p.worker_spans = worker_spans(fleet.jobs, "farm.job")
        p.cycles = sum(r.stats_summary["total_cycles"] for r in results)
        rows = arch_rows()
        for r in results:
            row = rows[r.arch]
            cache = r.block_cache  # the job's last block
            row["cycles"] += r.block_cycles[-1]
            row["block_cycles"] += cache["block_cycles"]
            row["trace_cycles"] += cache["trace_cycles"]
            row["lockstep"].append(cache["lockstep_fraction"])
            row["compiled"] += r.blocks_compiled
            for key in CACHE_KEYS:
                row[key] += r.cache_stats.get(key, 0)
        for arch, row in rows.items():
            p.counts.update(arch_counts(arch, row))
        job_s = sum(r.wall_time_s for r in results)
        warm_s = sum(w.get("warm_wall_s", 0.0) for w in fleet.warm_reports)
        p.counts.update({
            "farm.warm_s": warm_s,
            "farm.job_ns_per_cycle": 1e9 * ratio(job_s, p.cycles),
            "farm.cache_hit_rate": summary["shared_cache"]["hit_rate"]
            or 0.0,
            "farm.overhead_frac": 1 - ratio(job_s + warm_s,
                                            FARM_WORKERS * wall),
            "farm.retries": sum(len(job.retries) for job in fleet.jobs),
            "farm.timeouts": fleet.timeouts,
            "farm.crashes": fleet.crashes,
            "telemetry.windows": sum(len(r.windows) for r in results),
            "telemetry.deadline_misses": sum(r.deadline_misses
                                             for r in results),
            "sim.cycles": p.cycles,
            "sim.retired": sum(r.stats_summary["total_retired"]
                               for r in results),
            "sim.stall_cycles": sum(r.stats_summary["total_stall_cycles"]
                                    for r in results),
            "sim.im_accesses": sum(r.stats_summary["im_bank_accesses"]
                                   for r in results),
            "sim.dm_accesses": sum(r.stats_summary["dm_bank_accesses"]
                                   for r in results),
        })
        p.outputs = {"fleet": fleet.digest(),
                     "telemetry": telemetry["digest"]}


# -- fault-campaign -----------------------------------------------------------

def fault_campaign(p: Pass, seed: int, setup_only: bool) -> None:
    """``run_campaign`` over ``build_campaign`` trials for every
    architecture at the 64x32 campaign geometry, on warm workers."""
    tracer = p.tracer
    with tracer.span("import"):
        from repro.resilience.campaign import OUTCOMES, build_campaign, \
            run_campaign
    with tracer.span("resilience.build_campaign"):
        plans = {arch: build_campaign(
            CAMPAIGN_TRIALS, arch, campaign_seed=CAMPAIGN_PLAN_SEED,
            seed=derived_seed(seed, "campaign")) for arch in ARCHES}
    if setup_only:
        p.end_setup()
        return

    campaigns = {}
    walls = 0.0
    for arch in ARCHES:
        campaigns[arch], wall = p.timed(
            "resilience.run_campaign", run_campaign, plans[arch],
            workers=FARM_WORKERS, item=arch)
        walls += wall

    with tracer.span("bench.check"):
        outcomes = dict.fromkeys(OUTCOMES, 0)
        trial_s = hang_s = 0.0
        digests = {}
        for arch, campaign in campaigns.items():
            p.attempted += len(campaign.specs)
            done = {r.trial for r in campaign.results}
            p.failures.extend(f"{arch} trial {spec.trial} failed"
                              for spec in campaign.specs
                              if spec.trial not in done)
            p.worker_spans.extend(worker_spans(campaign.jobs, "farm.trial"))
            for r in campaign.results:
                p.items.append(r.wall_time_s)
                outcomes[r.outcome] += 1
                trial_s += r.wall_time_s
                if r.outcome == "hang":
                    hang_s += r.wall_time_s
                if r.cycles > 0:  # only completed trials report cycles
                    p.cycles += r.cycles
            digests[arch] = {"digest": campaign.digest(),
                             "outcomes": campaign.outcome_counts()}
        jobs = [job for c in campaigns.values() for job in c.jobs]
        p.counts.update({f"resilience.{k}": v for k, v in outcomes.items()})
        p.counts.update({
            "resilience.hang_time_frac": ratio(hang_s, trial_s),
            "farm.overhead_frac": 1 - ratio(trial_s, FARM_WORKERS * walls),
            "farm.retries": sum(len(job.retries) for job in jobs),
            "farm.timeouts": sum(c.timeouts for c in campaigns.values()),
            "farm.crashes": sum(c.crashes for c in campaigns.values()),
            "sim.cycles": p.cycles,
        })
        p.outputs = {"campaigns": digests}


WORKLOADS = {
    "paper-tables": paper_tables,
    "fleet-observed": fleet_observed,
    "fault-campaign": fault_campaign,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("untraced", "traced", "setup"))
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the pass was started")
    args = parser.parse_args(argv)

    tracer = Tracer(args.mode == "traced")
    p = Pass(args.spawned, tracer)
    with tracer.span("pass"):
        WORKLOADS[args.workload](p, args.seed, args.mode == "setup")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "setup_s": p.setup_s,
        "wall_s": p.wall_s,
        "items": p.items,
        "cycles": p.cycles,
        "attempted": p.attempted,
        "failures": p.failures,
        "outputs": p.outputs,
        "counts": p.counts,
        "peak_rss_mb": rss_kb / 1024,
        "spans": tracer.spans,
        "worker_spans": p.worker_spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
