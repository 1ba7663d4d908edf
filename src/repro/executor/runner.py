"""``mpirun``: run one function as an SPMD job of N rank-threads.

The paper's programs run as N processes started by ``mpirun``/WMPI's
daemons; here a job is N threads of one Python process, each bound to a
:class:`~repro.runtime.engine.RankRuntime`.  The ``MPI`` class resolves the
calling thread's rank through that binding, which is what lets the paper's
``MPI.COMM_WORLD.Rank()`` style work unchanged.

>>> from repro import mpirun
>>> from repro.mpijava import MPI
>>> def main():
...     MPI.Init([])
...     r = MPI.COMM_WORLD.Rank()
...     MPI.Finalize()
...     return r
>>> sorted(mpirun(3, main))
[0, 1, 2]
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Sequence

from repro.errors import AbortException
from repro.obs import export as obs_export
from repro.obs.trace import TRACE
from repro.runtime.engine import (RankRuntime, Universe, bind_thread,
                                  unbind_thread)
from repro.util.faultinject import SimulatedRankDeath, reset as \
    _faultinject_reset


class RankFailure(Exception):
    """Raised by :func:`mpirun` when any rank raised; carries all failures.

    ``failures`` maps world rank -> the exception that rank failed with.
    Job aborts are folded back to the *originating* rank: victims that
    unwound with :class:`~repro.errors.AbortException` do not appear, and
    the origin's entry is the root-cause exception that poisoned the job
    (e.g. the ``ValueError`` a user reduction op raised).
    """

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = failures
        ranks = ", ".join(str(r) for r in sorted(failures))
        first = failures[min(failures)]
        super().__init__(f"rank(s) {ranks} failed; first failure: "
                         f"{type(first).__name__}: {first}")


class JobTimeoutError(TimeoutError):
    """Raised when rank(s) are still running at the job deadline.

    Unlike a bare ``TimeoutError``, failures already collected from
    ranks that *did* fail before the deadline are preserved in
    ``failures`` (world rank -> exception) and the wedged ranks are
    listed in ``hung_ranks`` — a job where one rank died and another
    hung reports both facts instead of masking the root cause.
    """

    def __init__(self, timeout: float, hung_ranks, failures):
        self.timeout = timeout
        self.hung_ranks = sorted(hung_ranks)
        self.failures = dict(failures)
        msg = (f"{len(self.hung_ranks)} rank(s) did not finish within "
               f"{timeout}s: {self.hung_ranks}")
        if self.failures:
            first = self.failures[min(self.failures)]
            msg += (f"; rank(s) {sorted(self.failures)} failed before the "
                    f"deadline (first: {type(first).__name__}: {first})")
        super().__init__(msg)


class MPIExecutor:
    """Reusable job launcher bound to one :class:`Universe`.

    Useful when benchmarks need control over the transport or clock;
    :func:`mpirun` is the convenience wrapper for the common case.
    """

    def __init__(self, nprocs: int, transport="inproc", clock=None,
                 universe: Universe | None = None):
        self.universe = universe or Universe(nprocs, transport=transport,
                                             clock=clock)
        self.nprocs = self.universe.nprocs

    def run(self, main: Callable[..., Any], args: Sequence = (),
            per_rank_args: bool = False,
            timeout: float | None = 120.0) -> list:
        """Run ``main`` on every rank; returns per-rank return values.

        ``per_rank_args=True`` passes ``args[rank]`` (a tuple) to each rank
        instead of the same ``args`` everywhere.  Raises
        :class:`RankFailure` if any rank raised (job aborts are folded into
        the originating rank's failure).
        """
        try:
            return self._run(main, args, per_rank_args, timeout)
        finally:
            # tracing to a directory: every run dumps per-rank files and
            # a merged trace.json, failures and timeouts included (a
            # trace of the run that hung is the one you want most)
            if TRACE.enabled and TRACE.dir:
                obs_export.dump_local(TRACE)

    def _run(self, main, args, per_rank_args, timeout) -> list:
        results: list = [None] * self.nprocs
        failures: dict[int, BaseException] = {}
        lock = threading.Lock()
        _faultinject_reset()   # fault-spec hit counts are per job

        def entry(rank: int) -> None:
            rt = RankRuntime(self.universe, rank)
            bind_thread(rt)
            try:
                call_args = args[rank] if per_rank_args else args
                results[rank] = main(*call_args)
            except AbortException as exc:
                # This rank unwound because the job was poisoned.  Fold
                # the failure back to the originating rank — even when
                # that rank's thread already exited (or returned
                # normally after catching the abort), so it is never
                # silently dropped.  setdefault: if the origin recorded
                # (or goes on to record) its own exception, that wins.
                origin = exc.origin_rank
                root = exc.__cause__ if exc.__cause__ is not None else exc
                with lock:
                    if 0 <= origin < self.nprocs:
                        failures.setdefault(origin, root)
                    else:
                        failures.setdefault(rank, root)
            except SimulatedRankDeath as exc:
                # An injected rank death must look like a *peer loss*,
                # not a clean error: feed the failure plane (survivable
                # under ERRORS_RETURN) instead of poisoning the job.
                with lock:
                    failures[rank] = exc
                self.universe.note_peer_failure(rank, cause=exc)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                with lock:
                    failures[rank] = exc
                # Uniformly poison the job on rank-thread death so peers
                # blocked on this rank wake up; ``poison`` is idempotent
                # and locked, so two simultaneously-failing ranks cannot
                # race the flag.
                self.universe.poison(rank, 1, cause=exc)
            finally:
                unbind_thread()

        threads = [threading.Thread(target=entry, args=(rank,),
                                    name=f"repro-rank-{rank}")
                   for rank in range(self.nprocs)]
        for t in threads:
            t.start()
        # One shared deadline for the whole job: a wedged job reports
        # after ``timeout``, not after ``nprocs * timeout``.
        if timeout is None:
            for t in threads:
                t.join()
        else:
            deadline = time.monotonic() + timeout
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        hung = [r for r, t in enumerate(threads) if t.is_alive()]
        if hung:
            # Snapshot failures *before* poisoning: the hung ranks are
            # about to unwind with AbortException(origin=-1), and those
            # timeout victims must not pollute the report of ranks that
            # genuinely failed before the deadline.
            with lock:
                pre_deadline_failures = dict(failures)
            # abort-aware waits unwind the hung ranks in milliseconds
            self.universe.poison(-1, 1)
            for r in hung:
                threads[r].join(timeout=5.0)
            raise JobTimeoutError(timeout, hung, pre_deadline_failures)
        if failures:
            raise RankFailure(failures)
        return results

    def close(self) -> None:
        self.universe.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def mpirun(nprocs: int, main: Callable[..., Any], args: Sequence = (),
           transport="inproc", per_rank_args: bool = False,
           timeout: float | None = 120.0, clock=None) -> list:
    """Run ``main`` as an SPMD job of ``nprocs`` ranks; see MPIExecutor."""
    with MPIExecutor(nprocs, transport=transport, clock=clock) as ex:
        return ex.run(main, args=args, per_rank_args=per_rank_args,
                      timeout=timeout)
