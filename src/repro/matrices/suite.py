"""The paper's Table 1 test suite: instance registry and generation.

Each entry records the published statistics of a SuiteSparse matrix
used in the paper's evaluation; :func:`generate_instance` produces a
synthetic matrix hitting those statistics (see
:mod:`repro.matrices.generators` for why this substitution preserves
the communication behaviour).  ``TOP15`` are the instances of Sections
6.2-6.4; ``BOTTOM10`` (those with more than 10 million nonzeros) are
the large-scale instances of Section 6.5.

Generation accepts a ``scale`` factor performing a
*communication-preserving* rescale: rows, average degree and maximum
degree all shrink linearly (``nnz`` quadratically), keeping ``cv``,
``maxdr`` and the partition-relative reach of every row — the
irregularity the experiments depend on — intact.
"""

from __future__ import annotations

from dataclasses import dataclass


from .._lazy import lazy_module
from ..errors import MatrixGenerationError
from .generators import generate_matrix

sp = lazy_module("scipy.sparse")

__all__ = ["MatrixSpec", "SUITE", "TOP15", "BOTTOM10", "generate_instance", "spec"]


@dataclass(frozen=True)
class MatrixSpec:
    """One row of the paper's Table 1.

    ``locality`` is our modelling addition: how banded/clustered the
    kind is (1 = structural mechanics, 0 = scale-free network), steering
    the generator and giving partitioners realistic structure to find.
    ``dense_rows`` estimates how many near-max-degree rows the instance
    carries.
    """

    name: str
    kind: str
    n: int
    nnz: int
    max_degree: int
    cv: float
    maxdr: float
    locality: float
    dense_rows: int

    def scaled(self, scale: float) -> "MatrixSpec":
        """Communication-preserving rescale of the instance by ``scale``.

        Rows, average degree and maximum degree all scale linearly (so
        ``nnz`` scales quadratically), keeping every *relative*
        quantity fixed: cv, maxdr, the degree-to-locality-window
        ratio, and therefore the number of partition blocks a row's
        neighborhood spans — the per-process communication structure
        the experiments measure.  The average degree is floored so tiny
        scales don't degenerate into diagonal matrices.  ``scale > 1``
        grows the instance — needed when the process count exceeds the
        original row count (e.g. ``human_gene2`` at 16K processes).
        """
        if not 0 < scale <= 64:
            raise MatrixGenerationError(f"scale={scale} outside (0, 64]")
        if scale == 1.0:
            return self
        n = max(int(round(self.n * scale)), 64)
        avg_orig = self.nnz / self.n
        avg = max(avg_orig * scale, min(avg_orig, 12.0))
        # preserve maxdr (= max_degree / n); floor at ~2x the scaled
        # average so the instance never degenerates into a regular one
        floor = min(self.max_degree, int(2 * avg) + 2)
        max_degree = min(max(int(round(self.maxdr * n)), floor, 2), n)
        nnz = max(int(round(avg * n)), n)
        return MatrixSpec(
            name=self.name,
            kind=self.kind,
            n=n,
            nnz=nnz,
            max_degree=max_degree,
            cv=self.cv,
            maxdr=self.maxdr,
            locality=self.locality,
            dense_rows=self.dense_rows,
        )


def _spec(name, kind, n, nnz, max_degree, cv, maxdr, locality, dense_rows) -> MatrixSpec:
    return MatrixSpec(name, kind, n, nnz, max_degree, cv, maxdr, locality, dense_rows)


#: all 22 instances of Table 1, in the paper's order
SUITE: dict[str, MatrixSpec] = {
    s.name: s
    for s in [
        _spec("cbuckle", "structural mechanics", 13681, 676515, 600, 0.16, 0.044, 0.96, 1),
        _spec("msc10848", "structural eng.", 10848, 1229778, 723, 0.42, 0.067, 0.96, 2),
        _spec("fe_rotor", "undirected graph", 99617, 1324862, 125, 0.29, 0.001, 0.96, 1),
        _spec("sparsine", "structural eng.", 50000, 1548988, 56, 0.36, 0.001, 0.94, 1),
        _spec("coAuthorsDBLP", "co-author network", 299067, 1955352, 336, 1.50, 0.001, 0.92, 4),
        _spec("net125", "optimization", 36720, 2577200, 231, 0.95, 0.006, 0.94, 3),
        _spec("nd3k", "2D/3D problem", 9000, 3279690, 515, 0.26, 0.057, 0.96, 1),
        _spec("GaAsH6", "chemistry problem", 61349, 3381809, 1646, 2.44, 0.027, 0.94, 3),
        _spec("pkustk04", "structural eng.", 55590, 4218660, 4230, 1.46, 0.076, 0.95, 2),
        _spec("gupta2", "linear programming", 62064, 4248286, 8413, 5.20, 0.136, 0.92, 4),
        _spec(
            "TSOPF_FS_b300_c2", "power network", 56814, 8767466, 27742, 6.23, 0.488, 0.88, 2
        ),
        _spec("pattern1", "optimization", 19242, 9323432, 6028, 0.78, 0.313, 0.94, 4),
        _spec("Si02", "chemistry problem", 155331, 11283503, 2749, 4.05, 0.018, 0.94, 3),
        _spec("human_gene2", "gene network", 14340, 18068388, 7229, 1.09, 0.504, 0.9, 5),
        _spec(
            "coPapersCiteseer", "citation network", 434102, 32073440, 1188, 1.37, 0.003, 0.92, 4
        ),
        _spec("mip1", "optimization", 66463, 10352819, 66395, 2.25, 0.999, 0.92, 1),
        _spec(
            "TSOPF_FS_b300_c3", "power network", 84414, 13135930, 41542, 7.59, 0.492, 0.88, 2
        ),
        _spec("crankseg_2", "structural eng.", 63838, 14148858, 3423, 0.43, 0.054, 0.96, 1),
        _spec(
            "Ga41As41H72", "chemistry problem", 268096, 17488476, 702, 1.53, 0.003, 0.94, 3
        ),
        _spec(
            "bundle_adj", "computer vision prb.", 513351, 20208051, 12588, 6.37, 0.025, 0.93, 3
        ),
        _spec("F1", "structural eng.", 343791, 26837113, 435, 0.52, 0.001, 0.96, 1),
        _spec("nd24k", "2D/3D problem", 72000, 28715634, 520, 0.19, 0.007, 0.96, 1),
    ]
}

#: the 15 instances of Sections 6.2-6.4 (Table 1's top block)
TOP15: tuple[str, ...] = tuple(list(SUITE)[:15])

#: the large-scale instances of Section 6.5: nnz > 10 million
BOTTOM10: tuple[str, ...] = tuple(name for name, s in SUITE.items() if s.nnz > 10_000_000)


def spec(name: str) -> MatrixSpec:
    """Look up a Table 1 instance by name."""
    try:
        return SUITE[name]
    except KeyError:
        raise MatrixGenerationError(
            f"unknown matrix {name!r}; known: {', '.join(SUITE)}"
        ) from None


def generate_instance(
    name: str,
    *,
    scale: float = 1.0,
    seed: int | None = None,
    values: str = "ones",
) -> sp.csr_matrix:
    """Generate the synthetic equivalent of a Table 1 instance.

    ``seed`` defaults to a stable hash of the name, so repeated calls
    (and different experiments) see the same matrix.
    """
    s = spec(name).scaled(scale)
    if seed is None:
        # hash() is salted per interpreter; use a deterministic digest
        seed = sum(ord(c) * 131**i for i, c in enumerate(name)) % (2**31)
    return generate_matrix(
        s.n,
        s.nnz,
        s.max_degree,
        s.cv,
        locality=s.locality,
        dense_rows=s.dense_rows,
        seed=seed,
        values=values,
    )
