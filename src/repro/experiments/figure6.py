"""Figure 6 — Table 2's K=256 block normalized to the baseline.

Each STFW dimension's metrics are divided by BL's; a value ``y > 1``
means BL is ``y``x better, ``y < 1`` means STFW improves by ``1/y``x.
Shape: the message-count bars fall well below 1 and sink with
dimension; the volume bar rises above 1 and grows with dimension; the
two time bars sit below 1 for this latency-bound instance set.
"""

from __future__ import annotations

from ..metrics.report import Table, normalize_to
from ..network.machines import BGQ, Machine
from .config import ExperimentConfig, default_config
from .harness import InstanceCache
from .table2 import METRIC_KEYS, run as run_table2

__all__ = ["run", "format_result", "K_PROCESSES", "FIGURE_KEYS"]

#: the process count Figure 6 plots
K_PROCESSES = 256

#: the five bars per dimension, in the paper's legend order
FIGURE_KEYS: tuple[str, ...] = ("vavg", "mmax", "mavg", "comm", "total")


def run(
    cfg: ExperimentConfig | None = None,
    *,
    K: int = K_PROCESSES,
    machine: Machine = BGQ,
    cache: InstanceCache | None = None,
) -> dict[str, dict[str, float]]:
    """Normalized metric dict per scheme (BL row = all ones)."""
    cfg = cfg or default_config()
    cells = run_table2(cfg, k_values=(K,), machine=machine, cache=cache)
    rows = {c.scheme: c.metrics for c in cells}
    return normalize_to(rows, "BL", list(METRIC_KEYS))


def format_result(norm: dict[str, dict[str, float]]) -> str:
    """Render the normalized values (the bar heights of Figure 6)."""
    t = Table(
        columns=("scheme",) + FIGURE_KEYS,
        title=f"Figure 6 — metrics normalized to BL at K={K_PROCESSES} "
        "(y<1: STFW better by 1/y)",
    )
    for scheme, m in norm.items():
        if scheme == "BL":
            continue
        t.add_row(scheme, *(m[k] for k in FIGURE_KEYS))
    return t.render(float_fmt="{:.2f}")
