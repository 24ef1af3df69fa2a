"""Parallel experiment execution and deterministic result caching.

The experiment matrices behind the paper's tables are embarrassingly
parallel: every (config, workload, seed) cell is an independent
cold-start simulation.  :func:`execute_cells` fans cells out over a
:class:`~concurrent.futures.ProcessPoolExecutor` (through the campaign
service, :mod:`repro.campaignd`) and merges the results back in
submission order, so parallel runs are bit-identical
to serial ones; :class:`ResultCache` persists each cell's
:class:`~repro.machine.runner.RunResult` under a stable hash of its
inputs, so re-running a bench or sweep only simulates changed cells.

See ``docs/parallel.md`` for the cache-key derivation and the
determinism guarantees.
"""

from repro.parallel.cache import (
    CACHE_FORMAT,
    CacheKeyError,
    ResultCache,
    cache_key,
    result_from_payload,
    result_to_payload,
    workload_spec,
)
from repro.parallel.executor import (
    CampaignError,
    CellFailure,
    RunCell,
    execute_cells,
    simulate_cell,
)

__all__ = [
    "CACHE_FORMAT",
    "CacheKeyError",
    "CampaignError",
    "CellFailure",
    "ResultCache",
    "RunCell",
    "cache_key",
    "execute_cells",
    "result_from_payload",
    "result_to_payload",
    "simulate_cell",
    "workload_spec",
]
