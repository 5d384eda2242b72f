"""SciPy on first use: a module object that imports itself when touched.

The exchange stack (``core``, ``simmpi``, ``network``, ``obs``,
``metrics``) never calls SciPy; only building, partitioning and
multiplying a sparse matrix does.  Modules that need ``scipy.sparse`` or
``scipy.io`` bind ``sp = lazy_module("scipy.sparse")`` instead of
importing it, so a process that only runs exchanges never executes them.
Subpackages of a lazy module (``scipy.sparse.csgraph``) are imported
inside the function that uses them: finding one executes its parent.

``importlib.util.LazyLoader`` is not thread-safe on Python 3.11 (two
threads touching a fresh stub may both run its module body); this
package runs in one thread.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType

__all__ = ["lazy_module"]


def lazy_module(name: str) -> ModuleType:
    """``import name`` deferred until an attribute of the result is read."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
