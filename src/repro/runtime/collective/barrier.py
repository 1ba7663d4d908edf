"""``MPI_Barrier`` / ``MPI_Ibarrier``.

Default algorithm is dissemination (Hensgen/Finkel/Manber): ``ceil(log2 p)``
rounds, in round ``k`` each rank sends a token to ``(rank + 2^k) % p`` and
receives from ``(rank - 2^k) % p``.  The linear variant (everyone reports
to rank 0, rank 0 releases) exists for the ablation benchmark.
"""

from __future__ import annotations

from repro.runtime.collective.common import (algorithm_for, empty_token,
                                             note_algorithm)
from repro.runtime import nbc
from repro.runtime.nbc import Recv, Send


def barrier(comm) -> None:
    nbc.run(comm, *plan_barrier(comm))


def ibarrier(comm):
    return nbc.launch(comm, *plan_barrier(comm))


def plan_barrier(comm):
    comm._check_alive()
    comm._require_intra("Barrier")
    algorithm = algorithm_for("barrier")
    note_algorithm(comm, "barrier", algorithm)

    def build(sched):
        if comm.size == 1:
            return
        tag = comm.next_coll_tag()
        if algorithm == "dissemination":
            _dissemination(comm, sched, tag)
        elif algorithm == "linear":
            _linear(comm, sched, tag)
        else:
            raise ValueError(f"unknown barrier algorithm {algorithm!r}")

    return "Barrier", build


def _dissemination(comm, sched, tag) -> None:
    rank, size = comm.rank, comm.size
    k = 1
    while k < size:
        sched.round(Send((rank + k) % size, empty_token(), tag),
                    Recv((rank - k) % size, tag))
        k *= 2


def _linear(comm, sched, tag) -> None:
    rank, size = comm.rank, comm.size
    if rank == 0:
        sched.round(*[Recv(r, tag) for r in range(1, size)])
        sched.round(*[Send(r, empty_token(), tag) for r in range(1, size)])
    else:
        sched.round(Send(0, empty_token(), tag))
        sched.round(Recv(0, tag))
