"""Engine selection: the backend protocol and the engine registry.

Both simulation backends — the event-driven engine
(:class:`~repro.simmpi.runtime.SimMPI` itself) and the vectorized
planned-exchange engine (:class:`~repro.simmpi.batch.BatchSimMPI`) —
are selected by name through one surface::

    sim = SimMPI(K, engine="batch", machine=BGQ)
    res = run_spmd(K, fn, machine=BGQ, engine="event")

``SimMPI.__new__`` consults :func:`resolve_engine` and returns an
instance of the registered backend class, so callers never import a
backend module directly and every backend accepts the same constructor
keywords and returns the same
:class:`~repro.simmpi.message.RunResult`.

Third-party or experimental backends plug in via
:func:`register_engine`; they must subclass ``SimMPI`` (the dispatch
relies on ``__init__`` compatibility) and satisfy the :class:`Engine`
protocol.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from ..errors import SimMPIError

__all__ = ["Engine", "engine_names", "register_engine", "resolve_engine"]


@runtime_checkable
class Engine(Protocol):
    """Structural interface every simulation backend satisfies.

    A backend owns ``K`` virtual ranks and runs one process function
    per rank to completion, returning a
    :class:`~repro.simmpi.message.RunResult` that is bit-identical
    across backends for the same inputs.
    """

    K: int
    #: registry name the instance was constructed under
    engine_name: str

    def run(self, proc_factory: Callable[..., Any]) -> Any:
        """Run one process per rank until all finish."""
        ...


#: built-in backend names
_BUILTIN = ("batch", "event")

#: extension backends registered at runtime
_EXTRA: dict[str, type] = {}


def engine_names() -> tuple[str, ...]:
    """Every known backend name, sorted.

    The order is deterministic (plain lexicographic sort over built-ins
    and extensions together) so CLI ``choices=`` and error messages
    never depend on registration order.
    """
    return tuple(sorted(_BUILTIN + tuple(_EXTRA)))


def register_engine(name: str, cls: type) -> None:
    """Register an extension backend class under ``name``.

    ``cls`` must subclass :class:`~repro.simmpi.runtime.SimMPI` so the
    ``SimMPI(K, engine=name, ...)`` construction path can instantiate
    it with the shared keyword surface.  Registering a name twice is an
    error unless it re-registers the identical class (idempotent), so a
    typo cannot silently shadow someone else's backend.
    """
    from .runtime import SimMPI

    if name in _BUILTIN:
        raise SimMPIError(f"engine name {name!r} is built in and cannot be replaced")
    if not (isinstance(cls, type) and issubclass(cls, SimMPI)):
        raise SimMPIError(
            f"engine class for {name!r} must subclass SimMPI, got {cls!r}"
        )
    prior = _EXTRA.get(name)
    if prior is not None and prior is not cls:
        raise SimMPIError(
            f"engine {name!r} is already registered to {prior.__name__}; "
            f"pick another name or unregister it first"
        )
    _EXTRA[name] = cls


def resolve_engine(name: str) -> type:
    """Map an engine name to its backend class.

    Raises :class:`~repro.errors.SimMPIError` naming the offending
    value and the known engines — the eager-validation choke point for
    every ``engine=`` surface (constructor, ``run_spmd``, CLI flags).
    Backend modules import lazily so selecting ``engine="event"`` never
    imports the batch engine.
    """
    if name == "event":
        from .runtime import SimMPI

        return SimMPI
    if name == "batch":
        from .batch import BatchSimMPI

        return BatchSimMPI
    cls = _EXTRA.get(name)
    if cls is not None:
        return cls
    raise SimMPIError(
        f"unknown engine {name!r}; known engines: {', '.join(engine_names())}"
    )
