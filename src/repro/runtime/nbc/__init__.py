"""Schedule-based (non)blocking collectives engine.

The subsystem splits a collective operation into two halves:

* :mod:`repro.runtime.nbc.schedule` — the *plan*: rounds of send / recv /
  compute ops, built per rank by the algorithm modules in
  :mod:`repro.runtime.collective`;
* :mod:`repro.runtime.nbc.progress` — the *executors*: both run a
  schedule off the point-to-point layer.

Blocking collectives are "build schedule, :func:`run` it in the calling
thread"; nonblocking collectives :func:`launch` the event-driven engine
and return the in-flight :class:`CollRequestImpl`, which plugs straight
into the Wait/Test/Waitall machinery alongside point-to-point requests.
"""

from repro.runtime.nbc.schedule import (Box, Compute, Recv, Schedule,
                                        Send)
from repro.runtime.nbc.progress import CollRequestImpl, launch, run

__all__ = ["Box", "Compute", "Recv", "Schedule", "Send",
           "CollRequestImpl", "launch", "run"]
