"""numpy, imported on first use and only where it pays.

``import numpy`` costs about 0.15 s of interpreter start-up on a 2-vCPU
Xeon — more than half of ``import repro.cli`` when it was eager — while
the pure-Python branches finish bulk placement work at the catalog's
sizes (b <= 9,600) in milliseconds. So no module imports numpy at load
time. Code that can use it asks this accessor at the call site:

* :func:`module` — numpy itself, for paths that need it (ndarray
  input); imported on the first call;
* :func:`optional` — numpy if importable, else ``None``
  (``replica_matrix()``, the ``.npz`` and mmap artifact validators);
* :func:`for_bulk` — numpy only when a bulk pass over ``b`` objects
  crosses :data:`BULK_MIN_B`, where its speed outweighs its import;
* :func:`installed` — whether numpy can be imported, decided without
  importing it (test skips);
* :func:`is_array` — whether a value is a numpy array, decided without
  importing numpy (a caller holding one has imported it already).
"""

from __future__ import annotations

import importlib.util
import sys
from typing import Any

#: Objects from which a bulk placement pass (loads, CSR, row sort and
#: validation, failure queries, design-row gathers) takes numpy. Measured
#: on a 2-vCPU Xeon at n=512, r=3, pure Python vs numpy to kernel-ready
#: (loads + CSR + native kernel): 10 vs 5 ms at b=9,600, 96 vs 53 ms at
#: b=100k, 0.18 vs 0.10 s at b=200k; with row sort and validation in
#: front: 27 vs 6 ms, 0.28 vs 0.07 s and 0.61 vs 0.14 s. The ~0.15 s
#: import is repaid from b~70k on validated input and b~350k on trusted
#: input; the crossover sits between them.
BULK_MIN_B = 100_000

_numpy: Any = None
_missing = False


def module():
    """The numpy module, imported on the first call.

    Raises ``ImportError`` when numpy is absent (or fails to import).
    """
    global _numpy, _missing
    if _numpy is None:
        try:
            import numpy
        except ImportError:
            _missing = True
            raise
        _numpy = numpy
    return _numpy


def optional():
    """numpy if it imports, else ``None``."""
    try:
        return module()
    except ImportError:
        return None


def for_bulk(b: int):
    """numpy when a bulk pass over ``b`` objects pays for it, else ``None``."""
    return optional() if b >= BULK_MIN_B else None


def installed() -> bool:
    """Whether numpy is importable, decided without importing it.

    A failed :func:`module` call is remembered, so a broken installation
    reads as absent once something has tried it.
    """
    if _numpy is not None or sys.modules.get("numpy") is not None:
        return True
    if _missing:
        return False
    try:
        return importlib.util.find_spec("numpy") is not None
    except (ImportError, ValueError):
        return False


def is_array(value: object) -> bool:
    """Whether ``value`` is a numpy array; never imports numpy."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(value, numpy.ndarray)
