"""End-to-end benchmark of the SPUR reproduction, with layer attribution.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 20 \\
        --trace 0 [--record results.jsonl]

Workloads (see ``perfbench/README.md`` for why each was chosen):

``campaign``
    The serial Table 3.3 + 3.4 + 3.5 + 4.1 grid through the public
    table drivers with default ``RunOptions``.
``campaign-pool``
    The same 30 cells with ``RunOptions(workers=2)``.
``policy-sweep``
    Short capped cells over all 5 dirty x 3 reference policies on both
    workloads and several seeds, through ``ExperimentRunner.run_many``
    with a result cache and a journal: a cold pass that simulates,
    stores and journals every cell, then warm passes that resolve
    every cell from what the cold pass wrote.

One repetition is a closed loop: the cold pass (timed as ``wall_s``),
then, for the campaign workloads, its results are stored untimed into
a result cache, then :data:`WARM_PASSES` warm passes of the same cells
through the cache and a journal (each timed into ``resume_s``).
Repetitions run until ``--seconds`` is spent; metrics are medians over
repetitions.  ``--trace 1`` alternates untraced and traced repetitions
and prints per-layer metrics instead; see ``perfbench/layers.py``.

Every cell's result is digested and checked (``perfbench/digests.py``).
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
cell failed, and 1 without a result when the program's sources are
missing.
"""

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import digests
import layers

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: The seed ``golden.json`` was recorded at.
COMMITTED_SEED = 0
#: Trace length of the campaign workloads (``length_scale``).
CAMPAIGN_LENGTH = 0.03
#: Workers of ``campaign-pool``: the core count of the reference host.
POOL_WORKERS = 2
#: ``policy-sweep`` cells: memory small enough that 12k references
#: page out and run the reference daemon, over three seeds.
DIRTY_POLICIES = ("MIN", "FAULT", "FLUSH", "SPUR", "WRITE")
REFERENCE_POLICIES = ("MISS", "REF", "NOREF")
SWEEP_LENGTH = 0.02
SWEEP_CAP = 12_000
SWEEP_MEMORY_RATIO = 16
SWEEP_SEEDS = 3
#: Warm passes per repetition; each is short, so several are timed.
WARM_PASSES = 10
#: Set-up is measured in this many fresh interpreters per run.
SETUP_PROBES = 5
#: Repetitions per run at least (traced runs: pairs at least).
MIN_REPETITIONS = 3
MIN_TRACED_PAIRS = 2

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "refs_per_s": "1/s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics printed and recorded but left out of the JSON
#: result, because no bound the benchmark may set holds them steady:
#: a warm pass is ~10 ms of small file reads and an fsync, and its
#: ten-run spread reached 0.27 of the median on the reference host.
REPORTED_ONLY = {"resume_s": "s"}

#: Per-layer metrics of ``--trace 1``: name -> unit.
PER_LAYER = {
    "workloads.busy_s": "s",
    "workloads.self_s": "s",
    "workloads.refs": "count",
    "workloads.ns_per_ref": "ns",
    "machine.build_s": "s",
    "machine.busy_s": "s",
    "machine.self_s": "s",
    "machine.classify_s": "s",
    "machine.resolve_s": "s",
    "machine.ns_per_ref": "ns",
    "machine.chunks": "count",
    "machine.scalar_bailouts": "count",
    "machine.vector_share": "ratio",
    "translation.self_s": "s",
    "translation.count": "count",
    "translation.pte_hit_ratio": "ratio",
    "translation.ns_per_translation": "ns",
    "cache.self_s": "s",
    "cache.fills": "count",
    "cache.write_backs": "count",
    "cache.bus_transactions": "count",
    "cache.flushes": "count",
    "cache.ns_per_fill": "ns",
    "counters.self_s": "s",
    "vm.self_s": "s",
    "vm.page_faults": "count",
    "vm.page_ins": "count",
    "vm.page_outs": "count",
    "vm.daemon_scans": "count",
    "vm.ns_per_fault": "ns",
    "policies.self_s": "s",
    "policies.dirty_faults": "count",
    "policies.excess_faults": "count",
    "policies.dirty_bit_misses": "count",
    "policies.dirty_checks": "count",
    "policies.reference_faults": "count",
    "policies.reference_clears": "count",
    "analysis.busy_s": "s",
    "parallel.self_s": "s",
    "parallel.pool_wait_s": "s",
    "parallel.pool_efficiency": "ratio",
    "parallel.cache_hits": "count",
    "parallel.cache_misses": "count",
    "parallel.cache_stores": "count",
    "campaignd.self_s": "s",
    "campaignd.journal_records": "count",
    "campaignd.journal_bytes": "bytes",
    "trace.samples": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Per-layer counts read from the cells' counter banks: name -> event.
EVENT_COUNTS = {
    "translation.count": "TRANSLATION",
    "cache.fills": "BLOCK_FILL",
    "cache.write_backs": "WRITE_BACK",
    "cache.bus_transactions": "BUS_TRANSACTION",
    "cache.flushes": "FLUSH_OPERATION",
    "vm.page_faults": "PAGE_FAULT",
    "vm.page_ins": "PAGE_IN",
    "vm.page_outs": "PAGE_OUT",
    "vm.daemon_scans": "DAEMON_PAGE_SCAN",
    "policies.dirty_faults": "DIRTY_FAULT",
    "policies.excess_faults": "EXCESS_FAULT",
    "policies.dirty_bit_misses": "DIRTY_BIT_MISS",
    "policies.dirty_checks": "DIRTY_CHECK",
    "policies.reference_faults": "REFERENCE_FAULT",
    "policies.reference_clears": "REFERENCE_CLEAR",
}


def import_program():
    """Put the checkout's ``src`` first on ``sys.path`` and import it.

    Exits with an error, before any result is printed, when the
    checkout holds no program sources.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro.api

    return repro.api


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def recording_runner(api, seed, options):
    """An ``ExperimentRunner`` that keeps every (spec, result) it ran.

    The table drivers return rows, not results; recording at
    ``run_many``, the entry point every driver funnels through, gives
    the benchmark each cell's full ``RunResult`` to digest.  A
    ``CampaignError``'s partial results are recorded before it
    propagates, with ``None`` at each failed cell.
    """

    class RecordingRunner(api.ExperimentRunner):
        def run_many(self, specs, *args, **kwargs):
            specs = list(specs)
            try:
                results = super().run_many(specs, *args, **kwargs)
            except api.CampaignError as error:
                self.cells.extend(zip(specs, error.results))
                raise
            self.cells.extend(zip(specs, results))
            return results

    runner = RecordingRunner(
        master_seed=seed, mix_master_seed=True, options=options
    )
    runner.cells = []
    return runner


def drive_campaign(api, runner, seed):
    """The Table 3.3/3.4/3.5/4.1 grid: 6 + 6 + 18 cells."""
    rows, _ = api.run_table_3_3(
        length_scale=CAMPAIGN_LENGTH, seed=seed, runner=runner
    )
    api.build_table_3_4(rows)
    api.run_table_3_5(
        length_scale=CAMPAIGN_LENGTH, seed=seed, runner=runner
    )
    api.run_table_4_1(
        length_scale=CAMPAIGN_LENGTH, repetitions=1, runner=runner
    )


def sweep_specs(api, runner):
    """Every dirty x reference policy pair, both workloads, all seeds."""
    specs = []
    for rep in range(SWEEP_SEEDS):
        seed = runner.rep_seed(rep)
        for recipe in (api.SlcWorkload, api.Workload1):
            for dirty in DIRTY_POLICIES:
                for reference in REFERENCE_POLICIES:
                    config = api.scaled_config(
                        memory_ratio=SWEEP_MEMORY_RATIO,
                        dirty_policy=dirty, reference_policy=reference,
                    )
                    specs.append((
                        config, recipe(length_scale=SWEEP_LENGTH),
                        seed, SWEEP_CAP,
                    ))
    return specs


def drive_sweep(api, runner, seed):
    runner.run_many(sweep_specs(api, runner))


#: Cell grid name -> the function that runs one pass over it.
GRIDS = {"campaign": drive_campaign, "policy-sweep": drive_sweep}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a cell grid and a worker count.

    The ``campaign`` grid's cold pass runs with default options, no
    cache and no journal; the ``policy-sweep`` grid's cold pass runs
    through the cache and journal that its warm passes then read.
    """

    name: str
    grid: str
    workers: int = 1

    @property
    def cold_cached(self):
        return self.grid == "policy-sweep"

    def drive(self, api, runner, seed):
        GRIDS[self.grid](api, runner, seed)


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("campaign", "campaign"),
        Workload("campaign-pool", "campaign", workers=POOL_WORKERS),
        Workload("policy-sweep", "policy-sweep"),
    )
}


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------

@dataclass
class Repetition:
    traced: bool
    cold_s: float = 0.0
    warm_s: list = field(default_factory=list)
    results: list = field(default_factory=list)
    problems: dict = field(default_factory=dict)
    cache_traffic: Counter = field(default_factory=Counter)
    journal_records: int = 0
    journal_bytes: int = 0

    @property
    def total_s(self):
        return self.cold_s + sum(self.warm_s)

    def flag(self, index, problem):
        self.problems.setdefault(index, problem)


class _Region:
    """Times one pass and, on traced repetitions, samples it."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.seconds = 0.0

    def __enter__(self):
        if self.sampler is not None:
            self.sampler.start()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._started
        if self.sampler is not None:
            self.sampler.stop()
        return False


def _drive(workload, api, runner, seed, region):
    """Run one pass inside *region*; a description if it raised.

    Any exception is caught so that the run still reports how many
    cells it attempted and how many failed.
    """
    try:
        with region:
            workload.drive(api, runner, seed)
    except Exception as error:
        traceback.print_exc()
        return f"raised {type(error).__name__}: {error}"
    return None


def _count_cache(rep, runner):
    cache = getattr(runner, "cache", None)
    if cache is not None:
        rep.cache_traffic.update(
            hits=cache.hits, misses=cache.misses, stores=cache.stores
        )


def run_repetition(api, workload, seed, workdir, sampler):
    """One cold pass plus its warm passes, checked cell by cell."""
    rep = Repetition(traced=sampler is not None)
    cache_dir = workdir / "cache"
    journal = workdir / "journal.jsonl"
    cold_options = api.RunOptions(workers=workload.workers)
    warm_options = api.RunOptions(
        workers=workload.workers, cache_dir=str(cache_dir),
        journal=str(journal),
    )
    if workload.cold_cached:
        cold_options = warm_options
    runner = recording_runner(api, seed, cold_options)
    region = _Region(sampler)
    raised = _drive(workload, api, runner, seed, region)
    rep.cold_s = region.seconds
    rep.results = [result for _, result in runner.cells]
    if raised:
        rep.flag(len(rep.results), raised)
    _count_cache(rep, runner)
    for index, result in enumerate(rep.results):
        if result is None:
            rep.flag(index, "raised")
            continue
        for error in digests.invariant_errors(result):
            rep.flag(index, error)
    if not workload.cold_cached:
        store = api.ResultCache(cache_dir)
        for (config, recipe, cell_seed, cap), result in runner.cells:
            if result is not None:
                cell = api.RunCell(
                    config, recipe, seed=cell_seed, max_references=cap
                )
                store.put(api.cell_key(cell), result)
    for _ in range(WARM_PASSES):
        warm = recording_runner(api, seed, warm_options)
        region = _Region(sampler)
        raised = _drive(workload, api, warm, seed, region)
        rep.warm_s.append(region.seconds)
        if raised:
            rep.flag(len(warm.cells), f"warm pass {raised}")
        _count_cache(rep, warm)
        warm_results = [result for _, result in warm.cells]
        if len(warm_results) != len(rep.results):
            rep.flag(len(rep.results), "warm pass cell count differs")
        for index, (cold, hot) in enumerate(
                zip(rep.results, warm_results)):
            if cold is not None and hot != cold:
                rep.flag(index, "warm result differs from cold")
    replay = api.read_journal(str(journal))
    rep.journal_records = replay.records
    rep.journal_bytes = journal.stat().st_size if journal.exists() else 0
    return rep


# ---------------------------------------------------------------------------
# Host fingerprint, set-up, calibration
# ---------------------------------------------------------------------------

def calibration_seconds():
    """Wall time of a fixed pure-Python loop: host speed right now."""
    started = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    return time.perf_counter() - started


def host_fingerprint():
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": [round(load, 2) for load in os.getloadavg()],
        "calibration_s": calibration_seconds(),
    }


def setup_probe(workload_name, seed):
    """The benchmark's set-up, as a fresh interpreter pays for it."""
    api = import_program()
    workload = WORKLOADS[workload_name]
    runner = recording_runner(
        api, seed, api.RunOptions(workers=workload.workers)
    )
    if workload.grid == "policy-sweep":
        sweep_specs(api, runner)


def measure_setup(workload_name, seed):
    """Set-up seconds of :data:`SETUP_PROBES` fresh interpreters."""
    command = [
        sys.executable, str(pathlib.Path(__file__).resolve()),
        "--setup-probe", "--workload", workload_name,
        "--seed", str(seed),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT)
        times.append(time.perf_counter() - started)
    return times


def peak_rss_mb():
    """Largest resident set of this process or any child it reaped."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def summary(values):
    """Median, quartiles and sample count of *values*."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end_metrics(reps, setup_times):
    samples = {
        "wall_s": [rep.cold_s for rep in reps],
        "refs_per_s": [
            sum(r.references for r in rep.results if r) / rep.cold_s
            for rep in reps
        ],
        "cells_per_s": [len(rep.results) / rep.cold_s for rep in reps],
        "setup_s": setup_times,
        "peak_rss_mb": [peak_rss_mb()],
        # One sample per repetition: the mean of its warm passes, which
        # smooths the occasional slow fsync of a single pass.
        "resume_s": [
            statistics.fmean(rep.warm_s) for rep in reps
        ],
    }
    return {
        name: summary(samples[name])
        for name in {**END_TO_END, **REPORTED_ONLY}
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(api, workload, reps, sampler):
    """Per-layer metrics per traced repetition, from the sampler and
    the last traced repetition's counter banks."""
    traced = [rep for rep in reps if rep.traced]
    plain = [rep for rep in reps if not rep.traced]
    count = len(traced)
    self_s = Counter()
    for layer, seconds in sampler.self_s.items():
        self_s[layer] += seconds / count
        if "." in layer:
            self_s[layers.base_layer(layer)] += seconds / count
    span_s = {name: sampler.span_s[name] / count for name in layers.SPANS}
    results = [r for r in traced[-1].results if r is not None]
    events = Counter()
    for result in results:
        for event, value in result.events.items():
            events[event.name] += value
    refs = sum(r.references for r in results)
    chunk_refs = api.RunOptions().chunk_refs
    chunks = sum(math.ceil(r.references / chunk_refs) for r in results)
    bailouts = sum(r.scalar_bailouts for r in results)
    host_s = sum(
        r.host_seconds for rep in traced for r in rep.results if r
    )
    cold_s = sum(rep.cold_s for rep in traced)
    traffic = traced[-1].cache_traffic
    metrics = {
        "workloads.busy_s": span_s["workloads.busy"],
        "workloads.refs": refs,
        "workloads.ns_per_ref": _ratio(span_s["workloads.busy"] * 1e9, refs),
        "machine.build_s": span_s["machine.build"],
        "machine.busy_s": span_s["machine.busy"],
        "machine.classify_s": self_s["machine.classify"],
        "machine.resolve_s": self_s["machine.resolve"],
        "machine.ns_per_ref": _ratio(span_s["machine.busy"] * 1e9, refs),
        "machine.chunks": chunks,
        "machine.scalar_bailouts": bailouts,
        "machine.vector_share": 1.0 - _ratio(bailouts, chunks),
        "translation.pte_hit_ratio": _ratio(
            events["PTE_CACHE_HIT"], events["TRANSLATION"]
        ),
        "translation.ns_per_translation": _ratio(
            self_s["translation"] * 1e9, events["TRANSLATION"]
        ),
        "cache.ns_per_fill": _ratio(
            self_s["cache"] * 1e9, events["BLOCK_FILL"]
        ),
        "vm.ns_per_fault": _ratio(
            self_s["vm"] * 1e9, events["PAGE_FAULT"]
        ),
        "analysis.busy_s": self_s["analysis"],
        "parallel.pool_wait_s": sampler.blocked_s["parallel"] / count,
        "parallel.pool_efficiency": _ratio(
            host_s, workload.workers * cold_s
        ),
        "parallel.cache_hits": traffic["hits"],
        "parallel.cache_misses": traffic["misses"],
        "parallel.cache_stores": traffic["stores"],
        "campaignd.journal_records": traced[-1].journal_records,
        "campaignd.journal_bytes": traced[-1].journal_bytes,
        "trace.samples": sampler.samples,
        "trace.coverage": sampler.coverage(),
        "trace.overhead": (
            statistics.median(rep.total_s for rep in traced)
            / statistics.median(rep.total_s for rep in plain) - 1.0
        ),
    }
    for layer in layers.LAYERS:
        if layer != "analysis":
            metrics[f"{layer}.self_s"] = self_s[layer]
    for name, event in EVENT_COUNTS.items():
        metrics[name] = events[event]
    return {
        name: {"value": metrics[name], "n": count} for name in PER_LAYER
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def check_cells(workload, seed, reps):
    """Fold every repetition's problems and the golden check together.

    Returns ``(attempted, failed, digest)``: cells attempted over all
    cold passes, cells that raised or mismatched, and the workload's
    combined digest at this seed.
    """
    golden = digests.load_golden()
    expected = None
    if golden is not None and golden["seed"] == seed:
        expected = golden["cells"][workload.grid]
    reference = [
        digests.cell_digest(r) if r is not None else None
        for r in reps[0].results
    ]
    attempted = failed = 0
    for rep in reps:
        cells = [
            digests.cell_digest(r) if r is not None else None
            for r in rep.results
        ]
        for index in digests.mismatched_cells(cells, reference):
            rep.flag(index, "differs from the first repetition")
        if expected is not None:
            for index in digests.mismatched_cells(cells, expected):
                rep.flag(index, "differs from golden.json")
        attempted += max(
            len(cells), len(expected or ()), len(rep.problems)
        )
        failed += len(rep.problems)
        for index, problem in sorted(rep.problems.items()):
            print(f"cell {index}: {problem}", file=sys.stderr)
    return attempted, failed, digests.combined_digest(
        [d or "-" for d in reference]
    )


def write_golden(api):
    """Record every cell digest of both cell grids at the seed."""
    cells = {}
    for grid, drive in GRIDS.items():
        runner = recording_runner(api, COMMITTED_SEED, api.RunOptions())
        drive(api, runner, COMMITTED_SEED)
        cells[grid] = [digests.cell_digest(r) for _, r in runner.cells]
    digests.GOLDEN_PATH.write_text(json.dumps(
        {"seed": COMMITTED_SEED, "cells": cells}, indent=1
    ) + "\n", encoding="utf-8")


def run_benchmark(api, workload, seed, seconds, trace):
    """Repeat the workload for *seconds*; returns the repetitions."""
    sampler = layers.WallSampler(os.path.dirname(api.__file__)) \
        if trace else None
    minimum = 2 * MIN_TRACED_PAIRS if trace else MIN_REPETITIONS
    WORK_ROOT.mkdir(exist_ok=True)
    reps = []
    started = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        workdir = pathlib.Path(tempfile.mkdtemp(dir=WORK_ROOT))
        try:
            reps.append(run_repetition(
                api, workload, seed, workdir,
                sampler if traced else None,
            ))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        elapsed = time.perf_counter() - started
        typical = statistics.median(rep.total_s for rep in reps)
        if len(reps) >= minimum and elapsed + typical > seconds:
            break
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    return reps, sampler


def print_metrics(metrics, units):
    for name, entry in metrics.items():
        spread = ""
        if "q1" in entry:
            spread = f"  (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g})"
        print(
            f"  {name:<32} {entry['value']:>14.6g} {units[name]:<6}"
            f" n={entry['n']}{spread}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="campaign",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="PATH",
                        help="append this run as one JSON line to PATH "
                             "(input of perfbench/diff.py)")
    parser.add_argument("--write-golden", action="store_true",
                        help="re-record golden.json at the committed "
                             "seed (only when results are meant to "
                             "change) and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.write_golden:
        write_golden(import_program())
        return 0

    api = import_program()
    workload = WORKLOADS[args.workload]
    host = host_fingerprint()
    print(f"workload {workload.name}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    setup_times = [] if args.trace else measure_setup(
        workload.name, args.seed
    )
    reps, sampler = run_benchmark(
        api, workload, args.seed, args.seconds, bool(args.trace)
    )
    attempted, failed, digest = check_cells(workload, args.seed, reps)
    print(f"digest {workload.name} seed={args.seed} {digest}")
    if args.trace:
        metrics = per_layer_metrics(api, workload, reps, sampler)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(reps, setup_times)
        units = {**END_TO_END, **REPORTED_ONLY}
    print_metrics(metrics, units)
    print(f"  {'failed_share':<32} {failed / attempted:>14.6g} share"
          f"  ({failed} of {attempted} cells)")
    correct = failed == 0
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": workload.name, "seed": args.seed,
                "trace": args.trace, "host": host, "digest": digest,
                "correct": correct, "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: dict(entry, unit=units[name])
                    for name, entry in metrics.items()
                },
            }) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": entry["value"], "unit": units[name]}
            for name, entry in metrics.items()
            if name not in REPORTED_ONLY
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
