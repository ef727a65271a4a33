"""Fault-injection harness: the test-facing façade over :mod:`repro.faults`.

The injector itself lives in the leaf module ``repro.faults`` so the
engine, disk cache, and checker can hit fire points without importing the
(heavy, and circular-from-their-position) harness package. Tests and
benchmarks import everything from here::

    from repro.harness.faults import FaultSpec, active

    with active(FaultSpec("checker.stage", "raise", match="inference")):
        checker.check_document(document)  # raises InjectedFault

See the :mod:`repro.faults` docstring for the fire-point and action
catalog, and ARCHITECTURE.md ("Failure domains & degradation ladder")
for which recovery path each point exercises.
"""

from __future__ import annotations

from repro.errors import InjectedFault
from repro.faults import (
    ENV_FAULTS,
    ENV_STATE,
    FaultInjector,
    FaultSpec,
    active,
    decode_specs,
    encode_specs,
    fire,
    install,
    uninstall,
)

__all__ = [
    "ENV_FAULTS",
    "ENV_STATE",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "active",
    "decode_specs",
    "encode_specs",
    "fire",
    "install",
    "uninstall",
]
