"""Row-parallel SpMV: pattern extraction, emulated execution, cost driver."""

from .distributed import DistributedSpMVResult, distributed_spmv
from .driver import (
    IterativeRecoveryResult,
    SchemeResult,
    SpMVExperiment,
    partition_matrix,
    run_iterative_with_recovery,
    run_spmv_schemes,
)
from .local import (
    LocalBlock,
    abft_checksum,
    checked_spmv,
    local_spmv,
    split_matrix,
)
from .persistent import EpochReport, PersistentExchangeService, PersistentSpMV
from .pattern import nnz_per_part, spmv_needed_entries, spmv_pattern

__all__ = [
    "spmv_pattern",
    "spmv_needed_entries",
    "nnz_per_part",
    "LocalBlock",
    "split_matrix",
    "local_spmv",
    "abft_checksum",
    "checked_spmv",
    "distributed_spmv",
    "DistributedSpMVResult",
    "run_spmv_schemes",
    "partition_matrix",
    "SpMVExperiment",
    "SchemeResult",
    "PersistentSpMV",
    "PersistentExchangeService",
    "EpochReport",
    "IterativeRecoveryResult",
    "run_iterative_with_recovery",
]
