"""Collective operations (MPI 1.1 chapter 4, plus nonblocking variants).

Every algorithm *emits a schedule* (rounds of send/recv/compute ops, see
:mod:`repro.runtime.nbc`) executed over the runtime's point-to-point
layer on the communicator's *collective* context, so user point-to-point
traffic can never interfere with collective traffic (the reason MPI
allocates a second context per communicator).  A collective *is* its
``plan_<name>(comm, ...)`` — argument checks and algorithm choice, then
``(name, build)``; nothing here runs one.  The ``coll`` row of
:mod:`repro.jni.spec` that names the plan decides: a blocking row's stub
runs it in the calling thread (``nbc.run``), an ``i`` row's hands it to
the engine (``nbc.launch``) and returns the in-flight
:class:`~repro.runtime.nbc.CollRequestImpl`.

Algorithm selection is configurable through
:func:`~repro.runtime.collective.common.algorithm_overrides` — the
ablation benchmark flips these to compare e.g. binomial vs linear
broadcast, which DESIGN.md lists as a design-choice experiment.
"""

from repro.runtime.collective import (allgather, allreduce, alltoall,
                                      barrier, bcast, gather, reduce,
                                      reduce_scatter, scan, scatter)
from repro.runtime.collective.common import (ALGORITHM_CHOICES,
                                             DEFAULT_ALGORITHMS,
                                             algorithm_for,
                                             algorithm_overrides)

__all__ = ["allgather", "allreduce", "alltoall", "barrier", "bcast",
           "gather", "reduce", "reduce_scatter", "scan", "scatter",
           "ALGORITHM_CHOICES", "DEFAULT_ALGORITHMS", "algorithm_for",
           "algorithm_overrides"]
