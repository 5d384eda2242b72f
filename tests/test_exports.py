"""Every exported name resolves, and deleted names stay deleted.

A stale ``__all__`` entry only fails when someone first star-imports or
reaches for the name; this checks every module of the package at once.
"""

import importlib
import importlib.util
import pkgutil

import pytest

import repro
from repro.core import CommPattern, CommPlan, VirtualProcessTopology
from repro.spmv import PersistentSpMV


def _modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):  # importing it runs the CLI
            names.append(info.name)
    return names


@pytest.mark.parametrize("name", _modules())
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which it does not define"


#: module -> names that left it (test-only code deleted from the library)
REMOVED = {
    "repro.core": ("refine_vpt_mapping", "dense_volume_blowup", "enumerate_factorizations",
                   "route_length"),
    "repro.core.mapping": ("refine_vpt_mapping",),
    "repro.core.collective_baseline": ("dense_volume_blowup",),
    "repro.core.dimensioning": ("enumerate_factorizations",),
    "repro.core.routing": ("route_length",),
    "repro.core.plan": ("stage_route_key",),
    "repro.core.stfw": ("stage_route_key",),
    "repro.simmpi": ("RankSummary", "rank_summary", "stage_breakdown"),
    "repro.spmv": ("columnparallel_pattern", "ColSpMVResult", "iterative_reference"),
    "repro.spmv.driver": ("iterative_reference",),
    "repro.partition": ("edge_cut", "connectivity_volume", "partition_quality"),
}

#: class -> attributes that left it
REMOVED_ATTRS = {
    VirtualProcessTopology: ("group", "group_id", "group_id_array", "iter_groups", "num_groups",
                             "are_neighbors", "neighbor_dim", "first_diff_dim_array", "ranks",
                             "is_hypercube"),
    CommPattern: ("from_sendsets", "scaled"),
    CommPlan: ("stage_summary",),
    PersistentSpMV: ("average_time_us",),
}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    for gone in REMOVED[name]:
        assert not hasattr(module, gone), f"{name}.{gone} is back"
        assert gone not in getattr(module, "__all__", ())


@pytest.mark.parametrize("cls", list(REMOVED_ATTRS), ids=lambda c: c.__name__)
def test_removed_attributes_are_gone(cls):
    for gone in REMOVED_ATTRS[cls]:
        assert not hasattr(cls, gone), f"{cls.__name__}.{gone} is back"


@pytest.mark.parametrize(
    "name", ["repro.spmv.columnparallel", "repro.simmpi.analysis", "repro.partition.metrics"]
)
def test_removed_modules_are_gone(name):
    assert importlib.util.find_spec(name) is None
