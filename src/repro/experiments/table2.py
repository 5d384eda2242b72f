"""Table 2 — six metrics, geometric means over the top-15 instances.

For ``K in {64, 128, 256, 512}`` and schemes BL, STFW2..STFW(lg2 K),
the paper reports the geometric mean over its 15 test matrices of:
maximum message count, average message count, average volume (words),
communication time, parallel SpMV time, and buffer size (KB); times on
BlueGene/Q.

Shape checks carried by this table: mmax drops 3-21x with dimension;
vavg grows 1.5-3.3x; comm and SpMV time improve, more at larger K.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..matrices.suite import TOP15
from ..metrics.report import Table, geometric_mean_rows
from ..network.machines import BGQ, Machine
from .config import ExperimentConfig, default_config
from .harness import InstanceCache

__all__ = ["Table2Cell", "run", "format_result", "K_VALUES", "METRIC_KEYS"]

#: process counts of Table 2
K_VALUES: tuple[int, ...] = (64, 128, 256, 512)

#: aggregated metric columns, in the paper's order
METRIC_KEYS: tuple[str, ...] = ("mmax", "mavg", "vavg", "comm", "total", "buffer_kb")


@dataclass
class Table2Cell:
    """One (K, scheme) row: geometric means over the instance set."""

    K: int
    scheme: str
    metrics: dict[str, float]


def run(
    cfg: ExperimentConfig | None = None,
    *,
    matrices: tuple[str, ...] = TOP15,
    k_values: tuple[int, ...] = K_VALUES,
    machine: Machine = BGQ,
    cache: InstanceCache | None = None,
) -> list[Table2Cell]:
    """Compute the Table 2 rows."""
    cfg = cfg or default_config()
    cache = cache or InstanceCache(cfg)
    cells: list[Table2Cell] = []
    for K in k_values:
        per_scheme: dict[str, list[dict[str, float]]] = {}
        for name in matrices:
            for scheme, res in cache.cell(name, K, machine).results.items():
                per_scheme.setdefault(scheme, []).append(res.as_dict())
        for scheme, rows in per_scheme.items():
            cells.append(
                Table2Cell(
                    K=K,
                    scheme=scheme,
                    metrics=geometric_mean_rows(rows, METRIC_KEYS),
                )
            )
    return cells


def format_result(cells: list[Table2Cell]) -> str:
    """Render in the paper's layout (one block per K)."""
    t = Table(
        columns=("K", "scheme", "mmax", "mavg", "vavg", "comm(us)", "total(us)", "buf(KB)"),
        title="Table 2 — geometric means over the top-15 instances",
    )
    for c in cells:
        m = c.metrics
        t.add_row(
            c.K,
            c.scheme,
            m["mmax"],
            m["mavg"],
            m["vavg"],
            m["comm"],
            m["total"],
            m["buffer_kb"],
        )
    return t.render()
