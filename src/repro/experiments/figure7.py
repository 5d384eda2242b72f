"""Figure 7 — GaAsH6 vs coAuthorsDBLP detail at K=256.

The paper contrasts two instances with comparable volume statistics but
different latency-boundedness: ``coAuthorsDBLP``'s higher message
counts make STFW's improvements show up more prominently in its SpMV
time.  Four panels: average volume, average message count, maximum
message count, parallel SpMV runtime — per scheme, per matrix.

Shape check: the SpMV-time improvement factor of the best STFW over BL
is larger for the more latency-bound instance (higher BL mmax relative
to volume).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.report import Table
from ..network.machines import BGQ, Machine
from .config import ExperimentConfig, default_config
from .harness import InstanceCache

__all__ = ["Figure7Panel", "run", "format_result", "MATRICES", "K_PROCESSES"]

#: the two contrasted instances
MATRICES: tuple[str, str] = ("GaAsH6", "coAuthorsDBLP")

#: the process count of Figure 7
K_PROCESSES = 256

#: the four panels
PANEL_KEYS: tuple[str, ...] = ("vavg", "mavg", "mmax", "total")


@dataclass
class Figure7Panel:
    """Values of one metric for both matrices across schemes."""

    metric: str
    schemes: list[str]
    values: dict[str, list[float]]  # matrix name -> series over schemes


def run(
    cfg: ExperimentConfig | None = None,
    *,
    K: int = K_PROCESSES,
    machine: Machine = BGQ,
    cache: InstanceCache | None = None,
    jobs: int | None = 1,
) -> list[Figure7Panel]:
    """Compute the four Figure 7 panels."""
    cfg = cfg or default_config()
    cache = cache or InstanceCache(cfg)
    results = cache.cells([(name, K, machine) for name in MATRICES], jobs=jobs)
    exps = dict(zip(MATRICES, results))
    schemes = exps[MATRICES[0]].schemes
    panels = []
    for key in PANEL_KEYS:
        values = {
            name: [exp.results[s].as_dict()[key] for s in schemes]
            for name, exp in exps.items()
        }
        panels.append(Figure7Panel(metric=key, schemes=schemes, values=values))
    return panels


def format_result(panels: list[Figure7Panel]) -> str:
    """Render the four panels as tables."""
    blocks = [f"Figure 7 — {' vs '.join(MATRICES)} at K={K_PROCESSES}"]
    for panel in panels:
        t = Table(columns=("scheme",) + MATRICES, title=f"\nmetric: {panel.metric}")
        for i, s in enumerate(panel.schemes):
            t.add_row(s, *(panel.values[m][i] for m in MATRICES))
        blocks.append(t.render())
    return "\n".join(blocks)
