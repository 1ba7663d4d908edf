"""The nine ``REPRO_*`` environment settings, parsed in one place.

Each setting is read where it always was — at module import
(``REPRO_EAGER_LIMIT``, ``REPRO_TRACE``), per ``Universe`` (the
sanitizer's three), per job (the two heartbeat settings, ``REPRO_SHM``,
``REPRO_FAULT``) — but through one typed reader each, so every one fails
the same way: a value that does not parse raises ``ValueError`` naming
the variable and the form it accepts.  Unset or empty means the default.

``python -m repro.config`` prints the effective settings.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, TypeVar

T = TypeVar("T")
N = TypeVar("N", int, float)

DEFAULT_EAGER_LIMIT = 1024 * 1024


def _read(name: str, parse: Callable[[str], T], default: T, form: str) -> T:
    raw = os.environ.get(name, "")
    if raw == "":
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r}: expected {form}") from None


def _flag(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(raw)
    return raw == "1"


def _at_least(minimum: int, kind: Callable[[str], N]) -> Callable[[str], N]:
    def parse(raw: str) -> N:
        value = kind(raw)
        if not value >= minimum:      # also refuses nan
            raise ValueError(raw)
        return value
    return parse


def eager_limit() -> int:
    """``REPRO_EAGER_LIMIT``: the eager/rendezvous switchover in bytes."""
    return _read("REPRO_EAGER_LIMIT", _at_least(0, int), DEFAULT_EAGER_LIMIT,
                 "a byte count >= 0")


def fault() -> Optional[str]:
    """``REPRO_FAULT``: the fault-injection specs, unparsed (their
    grammar belongs to :mod:`repro.util.faultinject`)."""
    return os.environ.get("REPRO_FAULT") or None


def _heartbeat_ms() -> float:
    return _read("REPRO_HEARTBEAT_MS", _at_least(0, float), 100.0,
                 "milliseconds >= 0")


def heartbeat_interval() -> float:
    """``REPRO_HEARTBEAT_MS``: the worker heartbeat period, in seconds
    (default 100 ms; 0 disables the heartbeat plane)."""
    return _heartbeat_ms() / 1000.0


def heartbeat_miss() -> int:
    """``REPRO_HEARTBEAT_MISS``: silent heartbeat intervals before a rank
    is declared dead.  Generous by default: a false positive kills a
    healthy job, while EOF detection already catches actual process death
    instantly — this threshold only rules on ranks that wedged with their
    sockets still open."""
    return _read("REPRO_HEARTBEAT_MISS", _at_least(2, int), 20,
                 "an integer >= 2")


def sanitize() -> bool:
    """``REPRO_SANITIZE``: install the runtime sanitizer per Universe."""
    return _read("REPRO_SANITIZE", _flag, False, "0 or 1")


def _sanitize_probe_ms() -> int:
    return max(5, _read("REPRO_SANITIZE_PROBE_MS", _at_least(0, int), 40,
                        "a whole number of milliseconds >= 0"))


def sanitize_probe_interval() -> float:
    """``REPRO_SANITIZE_PROBE_MS``: the sanitizer's wait-loop tick, in
    seconds (default 40 ms, never below 5)."""
    return _sanitize_probe_ms() / 1000.0


def sanitize_strict() -> bool:
    """``REPRO_SANITIZE_STRICT``: the Finalize audit raises, not prints."""
    return _read("REPRO_SANITIZE_STRICT", _flag, False, "0 or 1")


def shm() -> bool:
    """``REPRO_SHM``: same-host pairs get a shared-memory bulk path
    (default on; 0 = sockets only, what cross-host pairs get)."""
    return _read("REPRO_SHM", _flag, True, "0 or 1")


def trace_dir() -> Optional[str]:
    """``REPRO_TRACE``: the directory traces are dumped to (unset: off)."""
    return os.environ.get("REPRO_TRACE") or None


def effective() -> dict[str, object]:
    """Every setting as the runtime will read it now."""
    return {
        "REPRO_EAGER_LIMIT": eager_limit(),
        "REPRO_FAULT": fault(),
        "REPRO_HEARTBEAT_MS": _heartbeat_ms(),
        "REPRO_HEARTBEAT_MISS": heartbeat_miss(),
        "REPRO_SANITIZE": sanitize(),
        "REPRO_SANITIZE_PROBE_MS": _sanitize_probe_ms(),
        "REPRO_SANITIZE_STRICT": sanitize_strict(),
        "REPRO_SHM": shm(),
        "REPRO_TRACE": trace_dir(),
    }


if __name__ == "__main__":
    for _name, _value in effective().items():
        print(f"{_name}={_value}")
