"""Optional third-party dependencies, imported once.

NumPy is optional at two very different depths:

- The columnar engine and the CSR matching kernels ship pure-Python
  fallbacks (``repro.db.columnar``, ``repro.ir.index``/``search`` each
  hold their own ``_np`` binding so tests can shim them independently) —
  those paths *work* without NumPy, just slower.
- The probabilistic model (candidate spaces, EM, priors, scope/refine) and
  the cell gather that answers its spaces (``repro.db.gather``) are built
  on ndarray math with no fallback; without NumPy the model fails fast via
  :func:`require_numpy` with an actionable error instead of an
  ``ImportError`` at import time. This keeps the package importable in a
  NumPy-free environment (the CI matrix runs one) so the fallback kernels
  above are exercised for real.
"""

from __future__ import annotations

from repro.errors import MissingDependencyError

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI job
    np = None  # type: ignore[assignment]


def require_numpy(feature: str) -> None:
    """Raise a clear error when ``feature`` is used without NumPy."""
    if np is None:
        raise MissingDependencyError(
            f"{feature} requires NumPy, which is not installed. "
            "Install numpy to run the probabilistic verification model; "
            "the columnar/CSR kernels alone work without it."
        )
