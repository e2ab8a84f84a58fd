"""Stream substrate: arrival processes, data streams, the anytime driver and
async load generation.

Each name is imported from its submodule on first use (:mod:`repro._lazy`),
so a stream that only learns never loads asyncio for the load generator.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

__all__ = [
    "StreamRunResult",
    "StreamStepResult",
    "run_anytime_stream",
    "ArrivalProcess",
    "BurstArrival",
    "ConstantArrival",
    "PoissonArrival",
    "gaps_to_node_budgets",
    "aiter_items",
    "aiter_query_batches",
    "DataStream",
    "StreamItem",
]

#: Each exported name -> the submodule that defines it.
_EXPORTS = {
    "StreamRunResult": ".anytime",
    "StreamStepResult": ".anytime",
    "run_anytime_stream": ".anytime",
    "ArrivalProcess": ".arrival",
    "BurstArrival": ".arrival",
    "ConstantArrival": ".arrival",
    "PoissonArrival": ".arrival",
    "gaps_to_node_budgets": ".arrival",
    "aiter_items": ".load_gen",
    "aiter_query_batches": ".load_gen",
    "DataStream": ".stream",
    "StreamItem": ".stream",
}

if TYPE_CHECKING:  # pragma: no cover - the eager view, for type checkers and linters
    from .anytime import StreamRunResult, StreamStepResult, run_anytime_stream
    from .arrival import (
        ArrivalProcess,
        BurstArrival,
        ConstantArrival,
        PoissonArrival,
        gaps_to_node_budgets,
    )
    from .load_gen import aiter_items, aiter_query_batches
    from .stream import DataStream, StreamItem
else:
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
