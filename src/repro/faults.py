"""Deterministic fault injection for resilience testing.

The recovery paths this repo promises — corrupt-cache quarantine, queue
re-delivery and dead-lettering, deadline degradation, per-claim error
events — are worthless if they can only be exercised by real hardware
failures. This module puts named *fire points* at the places faults
matter and arms them from the environment, so tests inject precise
failures into otherwise-unmodified production code paths (including a
``repro serve`` subprocess, which inherits the environment).

Fire points (``fire(point, key, payload)`` is a no-op unless armed):

- ``checker.stage``   — key = pipeline stage (``match``, ``candidates``,
  ``inference``, ``verdicts``), at that stage boundary;
- ``checker.rung``    — key = degradation rung (``full``, ``scope``,
  ``no_exec``), at the start of that inference attempt;
- ``checker.claim``   — key = the claim mention text, per claim;
- ``diskcache.read``  — key = cache file name, payload = its path;
- ``queue.worker``    — key = worker name, at the top of each queue
  worker loop (``raise`` kills the worker thread before it leases);
- ``queue.lease``     — key = job group id, after a group is leased but
  outside the nack handler (``raise`` simulates a worker dying mid-job:
  no ack, no nack — recovery is lease expiry + re-delivery);
- ``queue.exec``      — key = job group id, inside the execution handler
  (``raise`` exercises the clean nack -> retry -> dead-letter path);
- ``budget.estimate`` — key = sorted table names of the cube, payload =
  estimated cell count, fired where the engine sizes a cube *before*
  materializing it (``raise`` is translated into
  :class:`~repro.errors.BudgetExceeded`, driving the space-budget
  degradation ladder without needing a hostile database);
- ``admission.cost``  — key = client id, payload = computed request
  cost, fired during cost-based admission in the async front end
  (``raise`` is translated into
  :class:`~repro.errors.AdmissionRejectedError` — a structured 413 —
  exercising the rejection path under normal load);
- ``audit.bitflip``   — the integrity corruption points, one per
  stored tier, distinguished by key prefix: ``cell:<stem>``
  (``raise`` → poison a cube cell value *before* the CRC is computed — a
  semantic corruption only a recompute can catch), ``<file>.cube``
  (``bitflip`` → flip a byte of the written cache file; the CRC catches
  it), ``memo:<fingerprint>`` (``raise`` → poison an incremental-memo
  payload after its CRC is taken; the CRC catches it on the next hit),
  ``journal`` (``bitflip`` on the queue journal after a write).

Actions: ``raise`` (:class:`~repro.errors.InjectedFault`), ``sleep``
(consume ``seconds`` of wall clock, for deadline tests), ``corrupt``
(scribble over the payload path before it is read), ``bitflip`` (XOR one
byte in the middle of the payload path — survives framing, caught only by
checksums or recompute comparison). Each spec fires at most ``times`` times
(0 = unlimited) — "at most N times **across processes**" is arbitrated
through ``O_EXCL`` marker files in a shared state directory, so the test
that arms a server subprocess and the server share one budget.

This module is a leaf (stdlib + ``repro.errors``): the engine, disk
cache, and checker import it without dragging in — or cycling with — the
harness package. Tests use the :mod:`repro.harness.faults` façade.
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path

from repro.errors import InjectedFault, ReproError

#: Environment variable holding encoded fault specs (``;``-separated).
ENV_FAULTS = "REPRO_FAULTS"
#: Environment variable naming the shared cross-process state directory.
ENV_STATE = "REPRO_FAULT_STATE"

_FIELD_SEP = "|"
_SPEC_SEP = ";"
_ACTIONS = frozenset({"raise", "sleep", "corrupt", "bitflip"})


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where it fires, what it does, how often."""

    point: str
    action: str
    match: str = "*"
    seconds: float = 0.0
    times: int = 1

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ReproError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {sorted(_ACTIONS)})"
            )
        for text in (self.point, self.match):
            if _FIELD_SEP in text or _SPEC_SEP in text:
                raise ReproError(
                    f"fault fields must not contain {_FIELD_SEP!r} or "
                    f"{_SPEC_SEP!r}: {text!r}"
                )

    def encode(self) -> str:
        return _FIELD_SEP.join(
            [
                self.point,
                self.action,
                self.match,
                repr(self.seconds),
                str(self.times),
            ]
        )

    @classmethod
    def decode(cls, text: str) -> "FaultSpec":
        parts = text.split(_FIELD_SEP)
        if len(parts) != 5:
            raise ReproError(f"malformed fault spec: {text!r}")
        point, action, match, seconds, times = parts
        return cls(point, action, match, float(seconds), int(times))


def encode_specs(specs: tuple[FaultSpec, ...]) -> str:
    return _SPEC_SEP.join(spec.encode() for spec in specs)


def decode_specs(text: str) -> tuple[FaultSpec, ...]:
    return tuple(
        FaultSpec.decode(part) for part in text.split(_SPEC_SEP) if part
    )


class FaultInjector:
    """Evaluates armed specs at fire points and executes their actions."""

    def __init__(
        self, specs: tuple[FaultSpec, ...], state_dir: Path | None
    ) -> None:
        self.specs = specs
        self.state_dir = state_dir
        self._local_counts: dict[FaultSpec, int] = {}

    def fire(self, point: str, key: str, payload: object) -> None:
        for spec in self.specs:
            if spec.point != point or not fnmatchcase(key, spec.match):
                continue
            if self._claim_budget(spec):
                self._act(spec, point, key, payload)

    def _claim_budget(self, spec: FaultSpec) -> bool:
        """Atomically claim one firing (False once ``times`` are spent)."""
        if spec.times <= 0:
            return True
        if self.state_dir is None:
            count = self._local_counts.get(spec, 0)
            if count >= spec.times:
                return False
            self._local_counts[spec] = count + 1
            return True
        # Cross-process arbitration: O_EXCL creation of marker k succeeds
        # in exactly one process, so all processes sharing the state
        # directory together fire at most ``times`` times.
        import hashlib

        digest = hashlib.sha256(spec.encode().encode("utf-8")).hexdigest()
        for k in range(spec.times):
            marker = self.state_dir / f"{digest[:16]}.{k}"
            try:
                fd = os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False  # state dir gone: disarm rather than over-fire
            os.close(fd)
            return True
        return False

    def _act(
        self, spec: FaultSpec, point: str, key: str, payload: object
    ) -> None:
        if spec.action == "sleep":
            time.sleep(spec.seconds)
        elif spec.action == "raise":
            raise InjectedFault(point, key)
        elif spec.action == "corrupt":
            if isinstance(payload, (str, Path)):
                path = Path(payload)
                if path.exists():
                    path.write_bytes(b"\x00repro injected corruption\x00")
        elif spec.action == "bitflip":
            # One flipped byte mid-file: framing survives, the content
            # lies. Only a checksum (or recompute) can tell.
            if isinstance(payload, (str, Path)):
                path = Path(payload)
                try:
                    data = bytearray(path.read_bytes())
                except OSError:
                    return
                if data:
                    data[len(data) // 2] ^= 0x40
                    try:
                        path.write_bytes(bytes(data))
                    except OSError:
                        pass


#: Injector armed programmatically (same-process tests without env vars).
_installed: FaultInjector | None = None
#: Parse cache for env-armed specs: (raw, state) -> injector.
_env_cache: tuple[tuple[str, str | None], FaultInjector | None] = (
    ("", None),
    None,
)


def _current() -> FaultInjector | None:
    raw = os.environ.get(ENV_FAULTS)
    if not raw:
        return _installed
    global _env_cache
    state = os.environ.get(ENV_STATE) or None
    cache_key = (raw, state)
    if _env_cache[0] != cache_key:
        injector = FaultInjector(
            decode_specs(raw), Path(state) if state else None
        )
        _env_cache = (cache_key, injector)
    return _env_cache[1]


def fire(point: str, key: str = "", payload: object = None) -> None:
    """Hit a fire point. No-op (one env lookup) when nothing is armed."""
    injector = _current()
    if injector is not None:
        injector.fire(point, key, payload)


def install(
    specs: tuple[FaultSpec, ...], state_dir: Path | None = None
) -> None:
    """Arm faults in this process only (no env, not inherited by workers)."""
    global _installed
    _installed = FaultInjector(specs, state_dir)


def uninstall() -> None:
    global _installed
    _installed = None


@contextmanager
def active(*specs: FaultSpec, state_dir: str | Path | None = None):
    """Arm ``specs`` through the environment for the duration of the block.

    Subprocesses started inside the block inherit the environment and
    therefore the armed faults; the shared state directory (a fresh temp
    dir unless given) enforces fire budgets across all of them. Restores
    the previous environment on exit.
    """
    owns_dir = state_dir is None
    state = Path(state_dir) if state_dir is not None else Path(
        tempfile.mkdtemp(prefix="repro-faults-")
    )
    state.mkdir(parents=True, exist_ok=True)
    saved = {name: os.environ.get(name) for name in (ENV_FAULTS, ENV_STATE)}
    os.environ[ENV_FAULTS] = encode_specs(specs)
    os.environ[ENV_STATE] = str(state)
    try:
        yield state
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        if owns_dir:
            import shutil

            shutil.rmtree(state, ignore_errors=True)
