"""Each datapath decision has one home — checked by reading ``src/repro``.

The copy-strategy choice (contiguous slice / run walk / index map) lives
in ``repro/datatypes/layout.py``; the window check in
``runtime/buffers.validate_buffer``; the landing of a rendezvous body in
one function of ``transport/wire.py``.  These names coming back anywhere
else means a second copy of a decision has been written.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _hits(pattern: str, exclude: str = ""):
    rx = re.compile(pattern)
    return sorted(
        f"{path.relative_to(SRC)}:{n}"
        for path in SRC.rglob("*.py")
        if not (exclude and path.relative_to(SRC).parts[0] == exclude)
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if rx.search(line))


def test_copy_strategy_is_named_only_under_datatypes():
    assert _hits(r"use_runs|scatter_safe|flat_indices|_validate_window",
                 exclude="datatypes") == []


def test_the_per_caller_copies_are_gone():
    assert _hits(r"land_dense_segment|_DenseEnv|def gather_elements"
                 r"|def scatter_elements") == []


def test_a_rendezvous_body_lands_in_one_place():
    # the mailbox lands eager messages; wire.py only rendezvous bodies
    assert [hit.split(":")[0] for hit in _hits(r"posted\.land\(")] \
        == ["runtime/mailbox.py", "transport/wire.py"]
