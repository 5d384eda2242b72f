"""Figure 8 — strong-scaling SpMV runtime, 12 matrices, K = 32..512.

The paper plots parallel SpMV runtime (BlueGene/Q) against process
count for BL and the even STFW dimensions {2, 4, 6, 8}; points where a
dimension exceeds ``lg2 K`` are absent (STFW6 needs K >= 64, STFW8
needs K >= 256).

Shape checks: instances that stop scaling (or degrade) under BL keep
scaling under STFW; very-high-volume instances (TSOPF_FS_b300_c2)
prefer the low dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics.report import Table
from ..network.machines import BGQ, Machine
from .config import ExperimentConfig, default_config
from .harness import InstanceCache

__all__ = ["ScalingSeries", "run", "format_result", "MATRICES", "K_VALUES", "SCHEME_DIMS"]

#: the 12 instances plotted in Figure 8
MATRICES: tuple[str, ...] = (
    "coAuthorsDBLP",
    "coPapersCiteseer",
    "fe_rotor",
    "GaAsH6",
    "gupta2",
    "human_gene2",
    "nd3k",
    "net125",
    "pattern1",
    "pkustk04",
    "sparsine",
    "TSOPF_FS_b300_c2",
)

#: the x axis
K_VALUES: tuple[int, ...] = (32, 64, 128, 256, 512)

#: BL plus the even STFW dimensions, as in the figure
SCHEME_DIMS: tuple[int, ...] = (1, 2, 4, 6, 8)


@dataclass
class ScalingSeries:
    """One matrix's runtime-vs-K series for every scheme.

    ``times[scheme][i]`` is the total SpMV time at ``K_VALUES[i]``;
    ``nan`` marks points where the scheme does not exist
    (``n > lg2 K``).
    """

    name: str
    k_values: tuple[int, ...]
    times: dict[str, list[float]]

    def speedup_at(self, K: int, scheme: str) -> float:
        """BL time / scheme time at process count ``K``."""
        i = self.k_values.index(K)
        return self.times["BL"][i] / self.times[scheme][i]


def run(
    cfg: ExperimentConfig | None = None,
    *,
    matrices: tuple[str, ...] = MATRICES,
    k_values: tuple[int, ...] = K_VALUES,
    scheme_dims: tuple[int, ...] = SCHEME_DIMS,
    machine: Machine = BGQ,
    cache: InstanceCache | None = None,
) -> list[ScalingSeries]:
    """Compute every scaling series."""
    cfg = cfg or default_config()
    cache = cache or InstanceCache(cfg)
    out = []
    for name in matrices:
        times: dict[str, list[float]] = {}
        for K in k_values:
            lg = int(np.log2(K))
            exp = cache.cell(name, K, machine, [d for d in scheme_dims if d <= lg])
            for d in scheme_dims:
                scheme = "BL" if d == 1 else f"STFW{d}"
                series = times.setdefault(scheme, [])
                if d <= lg:
                    series.append(exp.results[scheme].stats.total_time_us)
                else:
                    series.append(float("nan"))
        out.append(ScalingSeries(name=name, k_values=tuple(k_values), times=times))
    return out


def format_result(series: list[ScalingSeries]) -> str:
    """Render one block per matrix (runtime in us per K)."""
    blocks = ["Figure 8 — parallel SpMV runtime vs process count (us)"]
    for s in series:
        t = Table(
            columns=("scheme",) + tuple(f"K={k}" for k in s.k_values),
            title=f"\n{s.name}",
        )
        for scheme, vals in s.times.items():
            t.add_row(scheme, *vals)
        blocks.append(t.render())
    return "\n".join(blocks)
