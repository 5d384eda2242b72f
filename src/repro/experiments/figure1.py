"""Figure 1 — per-process message counts of three irregular instances.

The paper plots, for ``pattern1``, ``pkustk04`` and ``sparsine`` on 256
processes, each process's sent-message count under plain SpMV
communication, with horizontal lines at the maximum and the average.
The figure's point: a few processes send far more messages than the
average — the latency hot spots.  We reproduce the series and the two
lines; the shape check is ``mmax >> mavg``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, default_config
from .harness import InstanceCache

__all__ = ["Figure1Row", "run", "format_result", "MATRICES", "K_PROCESSES"]

#: the three instances the paper plots
MATRICES: tuple[str, ...] = ("pattern1", "pkustk04", "sparsine")

#: the process count of Figure 1
K_PROCESSES = 256


@dataclass
class Figure1Row:
    """One subplot: the per-process message-count series plus its lines."""

    name: str
    counts: np.ndarray
    mmax: int
    mavg: float

    @property
    def irregularity(self) -> float:
        """max / avg message count — how far the hot spots stick out."""
        return self.mmax / self.mavg if self.mavg > 0 else float("inf")


def run(
    cfg: ExperimentConfig | None = None,
    *,
    matrices: tuple[str, ...] = MATRICES,
    K: int = K_PROCESSES,
    cache: InstanceCache | None = None,
) -> list[Figure1Row]:
    """Compute the Figure 1 series."""
    cfg = cfg or default_config()
    cache = cache or InstanceCache(cfg)
    rows = []
    for name in matrices:
        counts = cache.pattern(name, K).sent_counts()
        rows.append(
            Figure1Row(
                name=name,
                counts=counts,
                mmax=int(counts.max(initial=0)),
                mavg=float(counts.mean()),
            )
        )
    return rows


def format_result(rows: list[Figure1Row], *, bins: int = 8) -> str:
    """Text rendering: the two lines plus a coarse histogram per instance."""
    out = [f"Figure 1 — message counts of {K_PROCESSES} processes (BL)"]
    for row in rows:
        out.append(f"\n{row.name}:  max={row.mmax}  avg={row.mavg:.1f}  "
                   f"max/avg={row.irregularity:.1f}x")
        if row.mmax > 0:
            hist, edges = np.histogram(row.counts, bins=bins, range=(0, row.mmax))
            for h, lo, hi in zip(hist, edges[:-1], edges[1:]):
                bar = "#" * int(np.ceil(40 * h / max(hist.max(), 1)))
                out.append(f"  [{lo:6.0f},{hi:6.0f}) {h:4d} {bar}")
    return "\n".join(out)
