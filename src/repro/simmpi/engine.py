"""Engine names: the two simulation backends, selected by name.

``engine="event"`` is :class:`~repro.simmpi.runtime.SimMPI`, the
event-driven engine that runs any process function.
``engine="batch"`` is :class:`~repro.simmpi.batch.BatchSimMPI`, the
vectorized engine that runs planned exchanges only
(``planned_only = True``) and returns the bit-identical
:class:`~repro.simmpi.message.RunResult`.  The surfaces where both run
take ``engine=``: :func:`~repro.core.stfw.run_exchange`,
:func:`~repro.spmv.distributed.distributed_spmv` and
:class:`~repro.spmv.persistent.PersistentExchangeService`.
"""

from __future__ import annotations

from ..errors import SimMPIError
from .batch import BatchSimMPI
from .runtime import SimMPI

__all__ = ["engine_names", "resolve_engine"]

_ENGINES: dict[str, type[SimMPI]] = {"batch": BatchSimMPI, "event": SimMPI}


def engine_names() -> tuple[str, ...]:
    """Every engine name, sorted."""
    return tuple(_ENGINES)


def resolve_engine(name: str) -> type[SimMPI]:
    """Map an engine name to its class, or raise
    :class:`~repro.errors.SimMPIError` naming the value and the known
    engines."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise SimMPIError(
            f"unknown engine {name!r}; known engines: {', '.join(_ENGINES)}"
        ) from None
