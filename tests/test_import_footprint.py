"""SciPy loads where a sparse matrix is built, not where an exchange runs.

Each case runs in a fresh interpreter, since this test session has long
imported SciPy.  ``scipy.sparse`` and ``scipy.io`` may sit in
``sys.modules`` as unexecuted lazy stubs; a module under them exists
only once they have run.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

# a module under any of these exists only if a SciPy package body ran
EXECUTED = ("scipy.sparse.", "scipy.io.", "scipy.linalg")


def run_cold(script: str) -> list[str]:
    """Run ``script`` in a fresh interpreter; the modules it left loaded."""
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


class TestExchangeStackRunsWithoutScipy:
    def test_both_engines_and_a_service_epoch(self):
        loaded = run_cold(
            """
import repro, repro.simmpi.batch, repro.spmv.persistent, repro.experiments.harness, repro.obs.export
from repro.core import CommPattern, make_vpt, run_exchange
from repro.network.machines import BGQ
from repro.spmv.persistent import PersistentExchangeService

p = CommPattern.random(64, 4, words=3, seed=1)
for engine in ("event", "batch"):
    res = run_exchange(p, dims=2, machine=BGQ, engine=engine)
    assert res.completed and sum(len(d) for d in res.delivered) == p.num_messages
report = PersistentExchangeService(p, make_vpt(64, 2), machine=BGQ).run_epoch()
assert report.delivered == report.expected == p.num_messages
"""
        )
        assert "repro.spmv.persistent" in loaded
        assert [m for m in loaded if m.startswith(EXECUTED)] == []


class TestSparseWorkLoadsScipyOnFirstUse:
    def test_generate_then_rcm_order(self):
        loaded = run_cold(
            """
import numpy as np
from repro.matrices.generators import generate_matrix
from repro.partition.rcm import rcm_order

A = generate_matrix(400, 3000, 40, 1.0, seed=3)
order = rcm_order(A)
assert A.shape == (400, 400) and np.array_equal(np.sort(order), np.arange(400))
"""
        )
        assert "scipy.sparse.csgraph" in loaded
