"""Multiprocess fan-out of independent simulation cells.

One :class:`RunCell` is one cold-start simulation — the unit the
experiment matrices are built from.  :func:`execute_cells` hands the
cells to the campaign service, which resolves each against an
optional :class:`~repro.parallel.cache.ResultCache`, simulates the
misses (serially, or over a pool of worker processes running
:func:`simulate_cell`), and returns results in the order the cells
were given.  Because every cell is fully determined by its inputs and
cells share no state, the worker count changes wall-clock time only:
the returned :class:`~repro.machine.runner.RunResult` list is
bit-identical for any ``workers`` value (``host_seconds`` and
``observation``, both excluded from result equality, are the lone
per-host fields).

Failures degrade gracefully: a cell that raises never aborts the
campaign.  Remaining cells run to completion, each failure is recorded
as a :class:`CellFailure` naming the cell's label and seed, and a
single :class:`CampaignError` carrying the failures *and* the partial
results is raised at the end — so a 40-cell campaign with one bad cell
still yields 39 results and one precise diagnosis instead of a bare
mid-pool traceback.

Observability is parent-side only: workers return their counter series
inside ``RunResult.observation``; the parent emits trace events to the
optional ``sink`` and drives the optional ``progress`` reporter.
"""

from dataclasses import dataclass
from typing import Any, Optional

from repro.common.errors import ReproError
from repro.observe.series import DEFAULT_EPOCH_REFS


@dataclass(frozen=True)
class RunCell:
    """Inputs of one independent simulation run.

    ``seed`` is the final per-run seed (any master-seed mixing happens
    in :class:`~repro.machine.runner.ExperimentRunner` before cells
    are built).  ``sanitize`` optionally names a
    :mod:`repro.sanitize` mode to run the cell under; it is not part
    of the cache key because the sanitizer observes without altering
    results.  ``label``
    names the cell in trace events, progress lines, and failure
    reports; ``observe``/``epoch_refs`` attach a
    :class:`~repro.observe.observer.RunObserver` in the worker, whose
    series ride back on ``RunResult.observation``.  None of the new
    fields enter the cache key — telemetry never changes what a run
    measures.
    """

    config: Any
    workload: Any
    seed: int = 0
    max_references: Optional[int] = None
    sanitize: Optional[str] = None
    label: Optional[str] = None
    observe: bool = False
    epoch_refs: int = DEFAULT_EPOCH_REFS


@dataclass(frozen=True)
class CellFailure:
    """One failed campaign cell, with enough context to re-run it."""

    index: int
    label: Optional[str]
    seed: int
    workload: str
    config: Optional[str]
    error: str

    def describe(self):
        """One-line human-readable rendering."""
        name = self.label or f"cell {self.index}"
        return (
            f"{name} (workload={self.workload}, seed={self.seed}): "
            f"{self.error}"
        )


class CampaignError(ReproError):
    """One or more campaign cells failed (the rest completed).

    Carries ``failures`` (a list of :class:`CellFailure`) and
    ``results`` — the full result list in cell order, with ``None``
    at each failed index — so callers can report precisely and still
    use the partial campaign.
    """

    def __init__(self, failures, results):
        self.failures = list(failures)
        self.results = results
        lines = "; ".join(
            failure.describe() for failure in self.failures[:3]
        )
        if len(self.failures) > 3:
            lines += f"; ... ({len(self.failures)} failures total)"
        super().__init__(
            f"{len(self.failures)} of {len(results)} campaign cells "
            f"failed: {lines}"
        )


def simulate_cell(cell, traces=None):
    """Run one cell on a fresh machine; the process-pool work function.

    Module-level (picklable) and self-contained: workers rebuild the
    machine and workload instance from the cell's recipe, so nothing
    leaks between cells regardless of which process runs them.  A
    serial batch may pass its
    :class:`~repro.machine.traceshare.TraceShare` as ``traces`` to
    replay a trace an earlier cell recorded; pool workers never do.
    """
    from repro.machine.runner import ExperimentRunner
    from repro.options import RunOptions

    runner = ExperimentRunner(options=RunOptions(
        sanitize=cell.sanitize,
        observe=cell.observe,
        epoch_refs=cell.epoch_refs,
    ))
    return runner.run(
        cell.config, cell.workload, seed=cell.seed,
        max_references=cell.max_references, label=cell.label,
        traces=traces,
    )


def _failure(index, cell, error):
    """Build the :class:`CellFailure` record for one raised cell."""
    return CellFailure(
        index=index,
        label=cell.label,
        seed=cell.seed,
        workload=type(cell.workload).__name__,
        config=getattr(cell.config, "name", None),
        error=f"{type(error).__name__}: {error}",
    )


def execute_cells(cells, workers=1, cache=None, sink=None,
                  progress=None):
    """Execute *cells*, returning results in the given cell order.

    A one-shot campaign: a thin call to
    :class:`~repro.campaignd.service.CampaignService` over a
    :class:`~repro.campaignd.drivers.LocalDriver`, with no journal and
    no retries.  Cache lookup, failure records and trace events
    therefore come from the service, whatever the worker count.

    Parameters
    ----------
    cells:
        Iterable of :class:`RunCell`.
    workers:
        Process count; 1 simulates in-process (no pool is created).
    cache:
        Optional :class:`ResultCache`.  Hits skip simulation entirely;
        misses are simulated then stored.  Cells whose inputs cannot
        be canonically hashed are simulated unconditionally and never
        stored — correctness first.
    sink:
        Optional trace sink (``emit(dict)``); receives campaign,
        cell, and worker-pool lifecycle events plus each completed
        run's records (parent process only).
    progress:
        ``True`` for a stderr progress line, or a
        :class:`~repro.observe.progress.CampaignProgress` instance.

    Raises :class:`CampaignError` after all cells have been given
    their chance if any cell failed; successful results (and cache
    stores) survive the error.
    """
    from repro.campaignd.drivers import LocalDriver
    from repro.campaignd.service import CampaignService

    return CampaignService(
        cells, cache=cache,
        driver=LocalDriver(workers=workers, sink=sink),
        sink=sink, progress=progress,
    ).run()
