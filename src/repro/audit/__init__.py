"""Offline integrity checking: the deep scrubber behind ``repro scrub``.

Every stored tier is validated structurally when it is read (CRC framing
on disk cube entries, memo entries and journal records);
:mod:`repro.audit.scrub` adds the semantic check — each disk cube entry
is recomputed from its source data and compared bit-exactly.
"""

from repro.audit.scrub import scrub_state

__all__ = ["scrub_state"]
