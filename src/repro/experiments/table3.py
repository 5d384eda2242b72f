"""Table 3 — large-scale communication analysis (4K-16K processes).

Geometric means over the bottom-10 instances (nnz > 10M) of mmax, mavg,
vavg and communication time, for BL and Section 6.5's seven VPT
dimensions, on:

* Cray XK7 (3-D torus) at 8192 and 16384 processes,
* Cray XC40 (Dragonfly) at 4096 processes.

Shape checks: drastic comm-time improvement over BL (the paper's 22.6x
on the torus / 7.2x on the dragonfly headline); the *middle* dimensions
beat both the lowest (still latency-bound) and the highest (too much
forwarded volume); BL degrades faster than STFW from 8K to 16K.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..matrices.suite import BOTTOM10
from ..metrics.report import Table, geometric_mean_rows
from ..network.machines import CRAY_XC40, CRAY_XK7, Machine
from .config import ExperimentConfig, default_config
from .harness import InstanceCache, paper_dim_selection

__all__ = ["Table3Block", "run", "format_result", "LARGE_RUNS", "METRIC_KEYS"]

#: (machine, K) cells of Table 3
LARGE_RUNS: tuple[tuple[Machine, int], ...] = (
    (CRAY_XK7, 8192),
    (CRAY_XK7, 16384),
    (CRAY_XC40, 4096),
)

#: aggregated columns (buffer/SpMV time not reported, as in the paper)
METRIC_KEYS: tuple[str, ...] = ("mmax", "mavg", "vavg", "comm")


@dataclass
class Table3Block:
    """One (machine, K) block of scheme rows."""

    machine: str
    K: int
    rows: dict[str, dict[str, float]]  # scheme -> metrics

    def improvement(self, scheme: str) -> float:
        """BL comm time / scheme comm time."""
        return self.rows["BL"]["comm"] / self.rows[scheme]["comm"]

    def best_scheme(self) -> str:
        """The STFW scheme with the smallest comm time."""
        stfw = {s: m for s, m in self.rows.items() if s != "BL"}
        return min(stfw, key=lambda s: stfw[s]["comm"])


def run(
    cfg: ExperimentConfig | None = None,
    *,
    matrices: tuple[str, ...] = BOTTOM10,
    runs: tuple[tuple[Machine, int], ...] = LARGE_RUNS,
    cache: InstanceCache | None = None,
) -> list[Table3Block]:
    """Compute the Table 3 blocks, reducing each cell before the next."""
    cfg = cfg or default_config()
    cache = cache or InstanceCache(cfg)
    blocks = []
    for machine, K in runs:
        dims = [1] + paper_dim_selection(K)
        per_scheme: dict[str, list[dict[str, float]]] = {}
        for name in matrices:
            # the comprehension is the only holder of the cell, so its
            # plans are freed before the next cell is built
            cell = {s: r.as_dict() for s, r in cache.cell(name, K, machine, dims).results.items()}
            for scheme, row in cell.items():
                per_scheme.setdefault(scheme, []).append(row)
        rows = {
            scheme: geometric_mean_rows(rws, METRIC_KEYS)
            for scheme, rws in per_scheme.items()
        }
        blocks.append(Table3Block(machine=machine.name, K=K, rows=rows))
    return blocks


def format_result(blocks: list[Table3Block]) -> str:
    """Render in the paper's layout."""
    out = ["Table 3 — large-scale communication (geomeans over bottom-10)"]
    for b in blocks:
        t = Table(
            columns=("scheme", "mmax", "mavg", "vavg", "comm(us)"),
            title=f"\n{b.machine} — {b.K} processes",
        )
        for scheme, m in b.rows.items():
            t.add_row(scheme, m["mmax"], m["mavg"], m["vavg"], m["comm"])
        out.append(t.render())
        out.append(
            f"best: {b.best_scheme()} "
            f"({b.improvement(b.best_scheme()):.1f}x over BL)"
        )
    return "\n".join(out)
