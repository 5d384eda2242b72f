"""Figure 9 — communication time on two networks, K in {128, 512}.

Geometric-mean communication time over the top-15 instances for every
scheme, on BlueGene/Q (5-D torus) and Cray XC40 (Dragonfly).

Shape checks: STFW improves both networks; the XC40's improvement
factors are larger because its message start-up to per-word cost ratio
is larger (it is the more latency-bound network).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..matrices.suite import TOP15
from ..metrics.report import Table, geometric_mean
from ..network.machines import BGQ, CRAY_XC40, Machine
from .config import ExperimentConfig, default_config
from .harness import InstanceCache

__all__ = ["Figure9Block", "run", "format_result", "K_VALUES", "NETWORKS"]

#: the two process counts plotted
K_VALUES: tuple[int, ...] = (128, 512)

#: machine presets per bar color
NETWORKS: tuple[Machine, ...] = (BGQ, CRAY_XC40)


@dataclass
class Figure9Block:
    """One subplot: per-scheme geomean comm time on each network."""

    K: int
    schemes: list[str]
    comm_us: dict[str, list[float]]  # machine name -> series over schemes

    def improvement(self, machine_name: str, scheme: str) -> float:
        """BL comm time / scheme comm time on one machine."""
        i = self.schemes.index(scheme)
        bl = self.schemes.index("BL")
        series = self.comm_us[machine_name]
        return series[bl] / series[i]


def run(
    cfg: ExperimentConfig | None = None,
    *,
    matrices: tuple[str, ...] = TOP15,
    k_values: tuple[int, ...] = K_VALUES,
    networks: tuple[Machine, ...] = NETWORKS,
    cache: InstanceCache | None = None,
) -> list[Figure9Block]:
    """Compute the Figure 9 blocks."""
    cfg = cfg or default_config()
    cache = cache or InstanceCache(cfg)
    blocks = []
    for K in k_values:
        schemes: list[str] | None = None
        comm: dict[str, list[float]] = {}
        for machine in networks:
            per_scheme: dict[str, list[float]] = {}
            for name in matrices:
                exp = cache.cell(name, K, machine)
                if schemes is None:
                    schemes = exp.schemes
                for s in exp.schemes:
                    per_scheme.setdefault(s, []).append(
                        exp.results[s].stats.comm_time_us
                    )
            comm[machine.name] = [geometric_mean(per_scheme[s]) for s in schemes]
        blocks.append(Figure9Block(K=K, schemes=schemes, comm_us=comm))
    return blocks


def format_result(blocks: list[Figure9Block]) -> str:
    """Render one table per process count."""
    out = ["Figure 9 — geomean communication time (us) on two networks"]
    for b in blocks:
        t = Table(
            columns=("scheme",) + tuple(b.comm_us),
            title=f"\n{b.K} processes",
        )
        for i, s in enumerate(b.schemes):
            t.add_row(s, *(b.comm_us[m][i] for m in b.comm_us))
        out.append(t.render())
    return "\n".join(out)
