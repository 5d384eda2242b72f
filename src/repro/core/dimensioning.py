"""Forming the virtual process topology — Section 5 of the paper.

Given ``K`` processes and a requested dimension ``n``, the paper's
scheme factors ``K`` (a power of two) into ``n`` dimension sizes that
are as equal as possible: the first ``lg2(K) mod n`` dimensions get
size ``2^(floor(lg2 K / n) + 1)`` and the rest get
``2^floor(lg2 K / n)``.  No two sizes differ by more than a factor of
two, which minimizes the per-process message-count bound
``sum_d (k_d - 1)`` over all power-of-two factorizations.

For completeness (the paper notes the method "can easily be extended")
:func:`balanced_dim_sizes` also handles non-power-of-two ``K`` by
balancing prime factors greedily.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import TopologyError
from .vpt import VirtualProcessTopology

__all__ = [
    "is_power_of_two",
    "ilog2",
    "optimal_dim_sizes",
    "balanced_dim_sizes",
    "make_vpt",
    "valid_dimensions",
    "max_message_count",
    "skewed_dim_sizes",
]


def is_power_of_two(x: int) -> bool:
    """True iff ``x`` is a positive power of two."""
    return x > 0 and (x & (x - 1)) == 0


def ilog2(x: int) -> int:
    """Exact integer base-2 logarithm; raises if ``x`` is not a power of two."""
    if not is_power_of_two(x):
        raise TopologyError(f"{x} is not a power of two")
    return x.bit_length() - 1


def optimal_dim_sizes(K: int, n: int) -> tuple[int, ...]:
    """The paper's Section 5 scheme: balanced power-of-two sizes.

    Parameters
    ----------
    K:
        Number of processes; must be a power of two.
    n:
        Requested VPT dimension with ``1 <= n <= lg2 K``.

    Returns
    -------
    tuple[int, ...]
        ``n`` sizes whose product is ``K``; the first ``lg2(K) mod n``
        entries are twice as large as the remaining ones.

    Examples
    --------
    >>> optimal_dim_sizes(64, 3)
    (4, 4, 4)
    >>> optimal_dim_sizes(128, 3)
    (8, 4, 4)
    >>> optimal_dim_sizes(512, 9)
    (2, 2, 2, 2, 2, 2, 2, 2, 2)
    """
    lg = ilog2(K)
    if not 1 <= n <= max(lg, 1):
        raise TopologyError(f"dimension n={n} outside [1, lg2({K})={lg}]")
    q, r = divmod(lg, n)
    sizes = tuple([2 ** (q + 1)] * r + [2**q] * (n - r))
    assert _prod(sizes) == K
    return sizes


def balanced_dim_sizes(K: int, n: int) -> tuple[int, ...]:
    """Balanced factorization of arbitrary ``K >= 2`` into ``n`` sizes.

    For power-of-two ``K`` this coincides with :func:`optimal_dim_sizes`.
    Otherwise prime factors of ``K`` are distributed greedily, largest
    factor first onto the currently smallest dimension.  Raises if
    ``K`` has fewer than ``n`` prime factors (counted with
    multiplicity), since every dimension size must be at least 2.
    """
    if K < 2:
        raise TopologyError(f"K={K} must be at least 2")
    if is_power_of_two(K):
        return optimal_dim_sizes(K, n)
    factors = _prime_factors(K)
    if n < 1 or n > len(factors):
        raise TopologyError(
            f"cannot factor K={K} into n={n} dimensions of size >= 2 "
            f"(K has {len(factors)} prime factors)"
        )
    sizes = [1] * n
    for f in sorted(factors, reverse=True):
        sizes[sizes.index(min(sizes))] *= f
    return tuple(sorted(sizes, reverse=True))


def make_vpt(K: int, n: int) -> VirtualProcessTopology:
    """Build the Section 5 VPT ``T_n`` for ``K`` processes.

    ``make_vpt(K, 1)`` is the baseline (BL) flat topology in which every
    pair of processes may communicate directly.
    """
    return VirtualProcessTopology(balanced_dim_sizes(K, n))


def valid_dimensions(K: int) -> range:
    """All valid VPT dimensions for ``K`` processes: ``1..lg2 K``.

    Dimension 1 is the baseline; dimensions ``2..lg2 K`` are the STFW
    variants evaluated in the paper (``STFW2`` ... ``STFW{lg2 K}``).
    """
    return range(1, ilog2(K) + 1)


def max_message_count(dim_sizes: Sequence[int]) -> int:
    """Per-process sent-message upper bound ``sum_d (k_d - 1)`` (Section 4)."""
    return sum(int(k) - 1 for k in dim_sizes)


def skewed_dim_sizes(K: int, n: int) -> tuple[int, ...]:
    """Most-skewed power-of-two factorization: ``(K / 2^(n-1), 2, ..., 2)``.

    The opposite extreme of :func:`optimal_dim_sizes`, used by the
    dimension-size ablation bench.
    """
    lg = ilog2(K)
    if not 1 <= n <= lg:
        raise TopologyError(f"dimension n={n} outside [1, lg2({K})={lg}]")
    return (2 ** (lg - (n - 1)),) + (2,) * (n - 1)


def _prod(xs: Sequence[int]) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def _prime_factors(x: int) -> list[int]:
    out: list[int] = []
    f = 2
    while f * f <= x:
        while x % f == 0:
            out.append(f)
            x //= f
        f += 1 if f == 2 else 2
    if x > 1:
        out.append(x)
    return out
