"""One module per paper table/figure, plus shared config and harness.

========  ==========================================================
module    paper artifact
========  ==========================================================
figure1   per-process message counts of three irregular instances
table2    six-metric comparison, K = 64..512, BlueGene/Q
figure6   Table 2's K=256 block normalized to BL
figure7   GaAsH6 vs coAuthorsDBLP detail at K=256
figure8   strong-scaling SpMV runtime, 12 matrices, K = 32..512
figure9   communication time on torus vs dragonfly, K in {128, 512}
table3    large-scale communication, 4K-16K processes
figure10  per-instance comm times at 16K on the XK7 torus
========  ==========================================================

Five resilience drivers are not paper artifacts: ``faults`` and
``recover`` measure BL vs STFW resilience and shrink-recovery cost
under the emulator's fault-injection subsystem; ``drift`` times
incremental plan repair against full rebuilds; ``chaos`` soaks the
self-healing persistent exchange service under combined drift and
fault streams; ``corrupt`` measures silent-data-corruption detection.
``chaos`` and ``corrupt`` share one soak loop and one payload oracle
(:func:`chaos.soak`, :func:`chaos.check_payloads`).
"""

from . import (
    faults,
    figure1,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    recover,
    table2,
    table3,
)
from .config import ExperimentConfig, default_config, quick_config
from .harness import InstanceCache, effective_spec, paper_dim_selection

__all__ = [
    "ExperimentConfig",
    "default_config",
    "quick_config",
    "InstanceCache",
    "effective_spec",
    "paper_dim_selection",
    "figure1",
    "table2",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "table3",
    "figure10",
    "faults",
    "recover",
]
