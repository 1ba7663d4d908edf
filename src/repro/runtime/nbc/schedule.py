"""Schedule representation for (non)blocking collectives.

A *schedule* is each rank's local plan for one collective operation: an
ordered list of **rounds**, each round an unordered set of primitive ops
(the design libNBC introduced and MPI-3 nonblocking collectives grew out
of).  Three op kinds exist:

* :class:`Send` — ship one contribution to a peer (never blocks on the
  peer; ``borrow`` marks storage the schedule writes again later);
* :class:`Recv` — capture one contribution from a peer into a :class:`Box`,
  or straight into the private array ``into`` names;
* :class:`Compute` — local work (landing into user buffers, reductions,
  concatenation), run only once the round's communication is over.

Within a round, receives are posted first, then sends are issued, and
computes run once the round is *complete*: every receive has landed and
every send has flushed (its bytes have left this rank) — only then may a
compute write storage the round sent.  Rounds execute in order; the round
boundary is purely *local* — peers' rounds need not align, matching is
entirely by (source, tag, context).

Schedules are data, not control flow: building one performs no
communication, so an algorithm's critical-path structure (how many rounds,
what each depends on) is explicit and benchmarkable, and the same builder
serves the blocking collective ("build, run to completion") and the
nonblocking one ("build, return the in-flight request").
"""

from __future__ import annotations

from typing import Callable, Optional, Union


class Box:
    """A single-value landing slot wired between schedule ops.

    Receives deposit contributions here; later sends and computes read
    them.  Boxes are how data flows across rounds without the engine
    knowing anything about contribution semantics.
    """

    __slots__ = ("contrib",)

    def __init__(self, contrib=None):
        self.contrib = contrib

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box({'set' if self.contrib is not None else 'empty'})"


#: a Send's payload: a literal contribution, or a Box resolved at issue time
SendData = Union[tuple, Box]


class Send:
    """Ship one contribution to ``peer`` (comm rank) this round.

    ``tag`` is the per-operation-instance tag; composed schedules (e.g.
    reduce+bcast allreduce) carry a distinct tag per phase, so it lives on
    the op, not the schedule.  ``borrow`` says the dense payload is
    storage that is written again after this round (an accumulator, the
    caller's window): it travels like a zero-copy point-to-point send,
    and whoever keeps it past the delivery copies it.
    """

    __slots__ = ("peer", "data", "tag", "borrow")

    def __init__(self, peer: int, data: SendData, tag: int,
                 borrow: bool = False):
        self.peer = peer
        self.data = data
        self.tag = tag
        self.borrow = borrow

    def resolve(self) -> tuple:
        if isinstance(self.data, Box):
            return self.data.contrib
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Send(to={self.peer}, tag={self.tag})"


class Recv:
    """Capture one contribution from ``peer`` (comm rank) into ``box``.

    ``into`` — a contiguous, writable array of base elements that nothing
    else touches until the round is over — is where a dense payload lands
    (posted like a point-to-point receive window: a message that finds it
    posted is written there directly, an early one is copied at the
    match; a dtype mismatch or an overrun is the MPI error).  The box
    then holds the landed prefix of ``into``.
    """

    __slots__ = ("peer", "box", "tag", "into")

    def __init__(self, peer: int, tag: int, box: Optional[Box] = None,
                 into=None):
        self.peer = peer
        self.tag = tag
        self.box = box if box is not None else Box()
        self.into = into

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Recv(from={self.peer}, tag={self.tag})"


class Compute:
    """Local work ``fn(*args)`` run once the round is complete."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], *args):
        self.fn = fn
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Compute({getattr(self.fn, '__name__', 'fn')})"


Op = Union[Send, Recv, Compute]


class Schedule:
    """One rank's plan for one collective operation."""

    __slots__ = ("rounds",)

    def __init__(self):
        self.rounds: list[list[Op]] = []

    def round(self, *ops: Op | None) -> None:
        """Append a round; ``None`` entries and empty rounds are dropped."""
        kept = [op for op in ops if op is not None]
        if kept:
            self.rounds.append(kept)

    def compute(self, fn: Callable[..., None], *args) -> None:
        """Append a compute-only round."""
        self.round(Compute(fn, *args))

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def comm_ops(self) -> tuple[int, int]:
        """(sends, recvs) across all rounds — the algorithm's message count."""
        sends = sum(1 for r in self.rounds for op in r
                    if isinstance(op, Send))
        recvs = sum(1 for r in self.rounds for op in r
                    if isinstance(op, Recv))
        return sends, recvs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s, r = self.comm_ops()
        return f"Schedule({self.n_rounds} rounds, {s} sends, {r} recvs)"
