"""Figure 10 — per-instance communication times at 16K processes.

The Table 3 breakdown per matrix on the Cray XK7 3-D torus: for each of
the ten large instances, the communication time of the seven STFW
dimensions, with BL's (much larger) value reported as text.

Shape checks: every instance improves over BL; the middle dimensions
win most often; high-volume instances prefer lower dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..matrices.suite import BOTTOM10
from ..metrics.report import Table
from ..network.machines import CRAY_XK7, Machine
from .config import ExperimentConfig, default_config
from .harness import InstanceCache, paper_dim_selection

__all__ = ["Figure10Row", "run", "format_result", "K_PROCESSES"]

#: the process count of Figure 10
K_PROCESSES = 16384


@dataclass
class Figure10Row:
    """One instance's comm time per scheme, plus the BL text value."""

    name: str
    bl_comm_us: float
    stfw_comm_us: dict[str, float]

    def best_scheme(self) -> str:
        """STFW dimension with the smallest comm time."""
        return min(self.stfw_comm_us, key=self.stfw_comm_us.get)

    @property
    def best_improvement(self) -> float:
        """BL time over the best STFW time."""
        return self.bl_comm_us / self.stfw_comm_us[self.best_scheme()]


def run(
    cfg: ExperimentConfig | None = None,
    *,
    matrices: tuple[str, ...] = BOTTOM10,
    K: int = K_PROCESSES,
    machine: Machine = CRAY_XK7,
    cache: InstanceCache | None = None,
) -> list[Figure10Row]:
    """Compute the Figure 10 rows, reducing each cell before the next."""
    cfg = cfg or default_config()
    cache = cache or InstanceCache(cfg)
    dims = [1] + paper_dim_selection(K)
    rows = []
    for name in matrices:
        # the comprehension is the only holder of the cell, so its plans
        # are freed before the next cell is built
        comm = {
            s: r.stats.comm_time_us
            for s, r in cache.cell(name, K, machine, dims).results.items()
        }
        bl = comm.pop("BL")
        rows.append(Figure10Row(name=name, bl_comm_us=bl, stfw_comm_us=comm))
    return rows


def format_result(rows: list[Figure10Row]) -> str:
    """Render the per-instance bars plus BL text values."""
    schemes = list(rows[0].stfw_comm_us) if rows else []
    t = Table(
        columns=("matrix", "BL") + tuple(schemes) + ("best", "gain"),
        title=f"Figure 10 — communication time (us) at {K_PROCESSES} processes "
        "(Cray XK7)",
    )
    for r in rows:
        t.add_row(
            r.name,
            r.bl_comm_us,
            *(r.stfw_comm_us[s] for s in schemes),
            r.best_scheme(),
            f"{r.best_improvement:.1f}x",
        )
    return t.render()
