"""Online integrity auditing: shadow verification, trust ladder, scrubbing.

The service's caches (disk cube cells, incremental verdict memos) and
its queue journal are validated structurally on read; this
package adds the *semantic* layer — continuously demonstrating, in the
running service, the bit-identity contract the test suite asserts between
the columnar engine and the row-wise NAIVE oracle:

- :mod:`repro.audit.trust` — the per-database trust ladder (full caches
  → disk-tier bypass → oracle-only execution);
- :mod:`repro.audit.shadow` — the :class:`ShadowAuditor`, which samples
  acked verdicts and re-verifies them in the background against the
  oracle with every cache tier bypassed;
- :mod:`repro.audit.scrub` — the offline deep scrubber behind
  ``python -m repro scrub``.
"""

from repro.audit.scrub import scrub_state
from repro.audit.shadow import DEFAULT_AUDIT_RATE, ShadowAuditor
from repro.audit.trust import TrustLadder, TrustLevel

__all__ = [
    "DEFAULT_AUDIT_RATE",
    "ShadowAuditor",
    "TrustLadder",
    "TrustLevel",
    "scrub_state",
]
