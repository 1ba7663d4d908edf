"""The worker side of a process-backend job:
``python -m repro.executor.procworker``.

Started by :class:`~repro.executor.procrunner.ProcExecutor` and kept
between jobs, never run by hand.  Three kinds of process run this
module, each forked from the one before:

*zygote* — the process that starts here.  It has imported the runtime
(this module's imports — never user code) and serves job requests, one
at a time, on the ``socketpair`` end it was handed (``--control FD``).
For each request it checks that it has a single thread, freezes its
heap and forks the job's *proxy*; it hands the proxy the connection
and does not read it again until it has reaped the proxy (an EOF that
comes before the proxy has forked the ranks — the launcher gone while
the proxy imports — is the zygote's to act on: it SIGKILLs the proxy,
see :func:`_reap_proxy`).  Then, whatever the proxy's exit status, it
unlinks the job's shared-memory segment names that are left (a rank
that did not finalize unlinks nothing, and a killed proxy leaks
nothing either).  It serves the next
request only if the proxy exited 0 — every rank reaped with code 0 and
the connection still standing — and exits after
:data:`~repro.executor.procrunner.LINGER_S` without one.  So no module
one job imported is ever seen by the next: they lived in the proxy.

*proxy* — one per job, what ``hydra_pmi_proxy`` and ``orted`` are to
MPICH and Open MPI.  It dies with the zygote (``PR_SET_PDEATHSIG``),
takes on the job's per-run state (:func:`_enter_job`: the launcher's
fds 0 / 1 / 2, its working directory, its environment and the CPU
affinity of the thread that called ``run()``), imports the target once,
flushes stdio (output printed at import is not repeated by every rank),
checks that the import left it single-threaded, wires the job (a
loopback TCP pair per rank pair), freezes its heap and forks the ranks,
then closes the wiring.  An import that raises is swallowed here: each
rank raises it again as its own failure.  A target whose import leaves
a thread running, or a mesh past the fd limit, fails the job before any
rank exists (``refused``).  From the fork on the
proxy is the ranks' parent and nothing else (:func:`_parent_ranks`): it
tells the launcher ``forked {rank: pid}``, reaps each rank and reports
``exited {rank, rc}``, and SIGKILLs a rank when the launcher says
``kill {rank}`` — the only process that ever signals a rank, because
only the parent knows that a pid is still the child it forked.  EOF on
its connection, in either direction, is teardown: it kills and reaps
whatever is left and exits non-zero.

*rank* — dies with the proxy (``PR_SET_PDEATHSIG``); nothing survives
a SIGKILLed proxy or zygote.  A rank is born connected: it keeps its
own row of the mesh and its own control end and closes every other
rank's and the proxy's connection, so a dead peer's EOF and a dead
rank's control EOF still arrive; only then does it reach the
``bootstrap`` fault site.  Then (:func:`_rank_main`) it resolves the
target (the proxy's module, inherited by the fork), trades lane hellos
with its peers (:func:`_attach_lanes`), hosts a single-rank view of the
:class:`~repro.runtime.engine.Universe`, runs the target, and marshals
the result (or exception) home over its control connection.
From its fork to its target a rank dials nothing, imports nothing —
what its settings make it use, the sanitizer included, the zygote
imported — and starts only the threads its job needs.

In a rank, one control thread talks to the launcher for the whole job
lifetime, from the moment the universe exists.  It serves commands:
``abort`` poisons the local universe (and, through the mesh broadcast,
every peer), ``peerfail`` feeds a single dead rank into the ULFM failure
plane (survivable under ``ERRORS_RETURN``), ``exit`` is the wire
finalize barrier, and EOF — the launcher itself dying — tears the job
down rather than orphaning the rank.  Between commands it beats a
``hb`` frame home every ``REPRO_HEARTBEAT_MS``, so the launcher can
detect a rank that wedged without dropping its sockets.  Beside the
rank's own thread that makes three: the pump, the writer and this one.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import pickle
import resource
import select
import selectors
import signal
import socket
import struct
import sys
import threading
import time

# numpy.random brings in OpenSSL (through ``secrets``): loaded here once
# rather than by each rank's first use, whose initialisation after the
# fork would cost every rank ~3 MiB of pages of its own
import numpy.random

import repro.mpijava  # noqa: F401 - every rank needs it: import it once
from repro import config
from repro.errors import AbortException
from repro.executor.procrunner import (LINGER_S, SCM_MAX_FD,
                                       dump_exception, recv_msg,
                                       recv_msg_fds, resolve_target,
                                       send_msg)
from repro.obs.trace import TRACE
from repro.runtime.engine import RankRuntime, Universe, bind_thread, \
    unbind_thread
from repro.transport import cma, shm as shm_transport
from repro.transport.shm import ShmChannel, ShmSegment
from repro.transport.socket_tcp import Row, mesh, mesh_channels, tcp_pair
from repro.transport.wire import WireTransport, recv_exact
from repro.util import faultinject

#: what a rank of a job with shm lanes tells each peer on the pair's
#: socket before the first frame: whether its inbound segments exist, and
#: the ``(pid, address, value)`` of its probe word (:func:`cma.advert`)
HELLO = struct.Struct("!?qQQ")


def _control_loop(ctl: socket.socket, rank: int, universe: Universe,
                  exit_evt: threading.Event, lock: threading.Lock,
                  interval: float) -> None:
    """Serve launcher commands until ``exit`` or launcher death, and
    beat every ``interval`` seconds meanwhile (0: never; the loop then
    just blocks on the socket).  The rank beat once before starting it.

    A beat that cannot be sent means the launcher is gone: beating
    stops, and the read that follows finds out.  Every way this loop
    can end sets ``exit_evt`` — the finished rank's barrier wait below
    relies on that, and a silently-dead control thread would otherwise
    strand the process.
    """
    due = time.monotonic() + interval
    while True:
        if interval > 0:
            wait = due - time.monotonic()
            if wait <= 0:
                if not _beat(ctl, rank, lock):
                    interval = 0.0
                due = time.monotonic() + interval
                continue
            if not select.select([ctl], [], [], wait)[0]:
                continue
        try:
            msg = recv_msg(ctl)
            cmd = msg.get("cmd")
        except Exception:  # noqa: BLE001 - EOF, reset, corrupt frame, ...
            universe.poison(-1, 1, cause=ConnectionError(
                "launcher connection lost"))
            exit_evt.set()
            return
        if cmd == "abort":
            universe.poison(msg.get("origin", -1),
                            msg.get("errorcode", 1))
        elif cmd == "peerfail":
            # launcher-detected single-rank death: failure plane, not
            # abort plane — survivors under ERRORS_RETURN keep running
            dead = msg.get("rank", -1)
            universe.note_peer_failure(dead, cause=ConnectionError(
                f"rank {dead} declared failed by the launcher"))
        elif cmd == "exit":
            exit_evt.set()
            return


def _beat(ctl: socket.socket, rank: int, lock: threading.Lock) -> bool:
    """Send one ``hb`` frame home; False if the launcher is gone.

    ``lock`` keeps heartbeat frames atomic against the final report
    (both write the control stream; an interleaved frame would corrupt
    the length-prefixed protocol)."""
    try:
        with lock:
            send_msg(ctl, {"cmd": "hb", "rank": rank})
    except OSError:
        return False
    return True


def _attach_lanes(chans, rank: int, nonce: str, row: Row) -> None:
    """Give the mesh channels their bulk lanes, and find out which peers
    this rank can read in place.

    This rank's inbound segments come first and its hellos second, so
    every segment a hello names exists when a peer reads it: attachers
    never race creation.  A peer is an shm peer when its hello says its
    inbound segments exist; inbound segments for the others (ranks whose
    /dev/shm failed, or dead) are unlinked right here.  Each direction
    stands alone — the sender marks the frames whose body it put in a
    lane — so an outbound attach failure only leaves that direction on
    the socket: the lanes are an optimization, the mesh is the contract.
    The single-copy get is likewise observed per endpoint, never agreed
    on: one real 8-byte read of the word the peer advertised in its
    hello (:func:`repro.transport.cma.probe`) decides whether this rank
    offers and takes gets on that pair.  A peer whose socket gives EOF
    or an error before its hello is dead: it gets no lanes, and the
    pump reports it as it would mid-job.
    """
    try:
        inbound = shm_transport.create_inbound(nonce, rank, len(row) + 1)
    except OSError:
        inbound = {}   # /dev/shm unavailable: this rank rides TCP
    if inbound:
        # sibling ranks read each other's send buffers in place; under
        # Yama ptrace_scope=1 that takes naming a common ancestor before
        # any of them probes — the parent is the job's proxy, which
        # forked every rank of the job and lives as long as they do
        cma.allow_tracer(os.getppid())
    mine = HELLO.pack(bool(inbound), *cma.advert())
    for sock in row.values():
        try:
            sock.sendall(mine)
        except OSError:
            pass   # its read below fails too
    for chan in chans:
        peer = chan.tx[1]
        try:   # every hello is read: none may be taken for a frame
            ok, *advert = HELLO.unpack(recv_exact(row[peer], HELLO.size))
        except OSError:
            ok = False
        seg = inbound.get((peer, rank))
        if seg is None:
            continue
        if not ok:
            seg.close()   # owner close unlinks the unused segment
            continue
        try:
            out = ShmChannel(ShmSegment(
                shm_transport.segment_name(nonce, rank, peer),
                create=False), rank, peer)
        except (OSError, ValueError):
            out = None
        chan.attach_lanes(out, ShmChannel(seg, peer, rank))
        if cma.probe(rank, *advert):
            chan.cma_pid = advert[0]


def _enter_job(job: dict, stdio: list[int]) -> None:
    """The job's proxy takes on the job's per-run state, for itself and
    the ranks it forks: the launcher's stdio, directory, environment and
    CPU affinity as of its ``run()``."""
    for target, fd in enumerate(stdio):
        os.dup2(fd, target)
        os.close(fd)
    os.chdir(job["cwd"])
    os.environ.clear()
    os.environ.update(job["env"])
    os.sched_setaffinity(0, job["affinity"])


def _threads() -> list[str] | None:
    """The names of this process's threads, if it has more than one.

    fork() copies the calling thread only: a lock some other thread held
    would stay locked in every child, forever.  So the zygote and the
    proxy check, not assume, that they are alone before they fork (it is
    also what keeps Python 3.12's "multi-threaded, use of fork()"
    warning away)."""
    if threading.active_count() == 1:
        return None
    return [t.name for t in threading.enumerate()]


def _settle_heap() -> None:
    """Ready this process's heap for forking: flush what is buffered
    (it would be printed again by every child) and freeze what is
    imported.  The imported heap is shared with the children page by
    page until one of them writes to it, and a collector pass writes to
    every tracked object's header; frozen, it is skipped by their
    collections (and a rank ends by :func:`_fast_exit`, without the
    teardown that would touch it all)."""
    sys.stdout.flush()
    sys.stderr.flush()
    gc.collect()
    gc.freeze()


def _fast_exit(code: int) -> None:
    """End a rank, or the zygote, with what a normal exit does for the
    program — wait for its non-daemon threads, run its exit handlers,
    flush stdio — and then ``os._exit``.  The rest of a normal exit
    tears the imported heap down object by object: in a rank a
    copy-on-write fault per page, ~25 ms a rank on one CPU of a 2-vCPU
    VM.  (``multiprocessing`` ends its forked children with
    ``os._exit`` too, without even the exit handlers.)"""
    for thread in threading.enumerate():
        if thread is not threading.current_thread() and not thread.daemon:
            thread.join()
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def main(argv=None) -> int:
    """The zygote: fork each job's proxy and reap it, until the launcher
    goes or no job comes for ``LINGER_S``."""
    ap = argparse.ArgumentParser(prog="repro.executor.procworker")
    ap.add_argument("--control", type=int, required=True, metavar="FD")
    ctl = socket.socket(fileno=ap.parse_args(argv).control)
    zygote = os.getpid()
    if config.sanitize():
        # every rank's Universe installs one; the environment, and so
        # this setting, is the same for every job this zygote serves
        import repro.check.sanitizer  # noqa: F401

    while select.select([ctl], [], [], LINGER_S)[0]:
        try:
            job, fds = recv_msg_fds(ctl, SCM_MAX_FD)
        except (OSError, EOFError, pickle.PickleError):
            return 0   # the launcher is gone
        # nothing imported here starts a thread (pump, writer and
        # control threads belong to a rank's job)
        threads = _threads()
        if threads:
            raise RuntimeError(f"zygote must fork single-threaded, "
                               f"found {threads}")
        _settle_heap()
        forking, forked = os.pipe()
        proxy = os.fork()
        if proxy == 0:
            # The proxy leaves main() from this block -- by os._exit or
            # by an exception, each of which ends the process -- so it
            # never reaches the loop.  Not _fast_exit: exit handlers and
            # threads the target's import left behind are the ranks'.
            os.close(forking)
            code = _proxy_main(ctl, job, fds, zygote, forked)
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
        os.close(forked)
        for fd in fds:
            os.close(fd)
        rc = _reap_proxy(ctl, proxy, forking)
        if job["shm_nonce"] is not None:
            # what a rank that did not finalize left in /dev/shm (a
            # killed launcher or proxy included) goes here: the ranks
            # died with the proxy, if not before it
            shm_transport.unlink_job_segments(job["shm_nonce"],
                                              job["nprocs"])
        if rc != 0:
            return 0
    return 0   # lingered out


def _reap_proxy(ctl: socket.socket, proxy: int, forking: int) -> int:
    """Wait for the job's proxy to end; its exit code.

    ``forking`` is the read end of a pipe whose write end the proxy
    closes once it has forked the ranks.  Before that the launcher sends
    nothing, so the only event the connection can have is its EOF: the
    launcher is gone, and a proxy still inside the target's import would
    never notice, so it is SIGKILLed.  After that, EOF is the proxy's to
    handle, and the zygote watches the proxy alone."""
    pidfd = os.pidfd_open(proxy)
    try:
        watched = [pidfd, forking, ctl]
        while pidfd not in (ready := select.select(watched, [], [])[0]):
            if forking not in ready:
                os.kill(proxy, signal.SIGKILL)
            watched = [pidfd]
    finally:
        os.close(pidfd)
        os.close(forking)
    return os.waitstatus_to_exitcode(os.waitpid(proxy, 0)[1])


def _proxy_main(ctl: socket.socket, job: dict, fds: list[int],
                zygote: int, forked: int) -> int:
    """One job's proxy, from the zygote's fork to its exit code: 0 when
    every rank was reaped with code 0 and the connection still stands.
    ``forked`` is closed once the ranks are (see :func:`_reap_proxy`)."""
    cma.die_with_parent()
    if os.getppid() != zygote:   # orphaned before the prctl
        return 1
    _enter_job(job, fds[:3])
    ctl_fds = fds[3:]
    # only the hard fd limit may refuse the mesh (the ranks inherit it)
    hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
    resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
    try:
        resolve_target(job["target"])
    except BaseException:  # noqa: BLE001 - each rank raises it again
        pass
    why = _refusal(job["nprocs"])
    if why:
        try:
            send_msg(ctl, {"cmd": "refused", "why": why})
        except OSError:
            pass   # the launcher is gone
        return 1
    with socket.create_server(("127.0.0.1", 0)) as listener:
        rows = mesh(job["nprocs"], lambda: tcp_pair(listener))
    _settle_heap()   # what the import printed is printed once, here
    proxy = os.getpid()
    kids: dict[int, tuple[int, int]] = {}   # rank -> (pid, pidfd)
    for rank, row in enumerate(rows):
        pid = os.fork()
        if pid == 0:
            # A rank leaves _proxy_main() from this block -- by
            # _fast_exit, by an exception or by os._exit, each of which
            # ends the process.  An injected fault is a *real* death
            # here (no report, no finally blocks, just EOF on its fds).
            faultinject.set_hard_kill(True)
            ctl.close()
            os.close(forked)
            for _pid, fd in kids.values():
                os.close(fd)
            _close_wiring(rows, ctl_fds, keep=rank)
            cma.die_with_parent()
            if os.getppid() != proxy:   # orphaned before the prctl
                os._exit(1)
            # the rank's first act of its own: a rank stopped here holds
            # nothing of the proxy's, its siblings' or the zygote's
            faultinject.maybe_fail("bootstrap", rank)
            # ranks that were separate interpreters drew separate
            # unseeded np.random streams; random reseeds itself at
            # fork, numpy does not
            numpy.random.seed()
            _fast_exit(_rank_main(
                socket.socket(fileno=ctl_fds[rank]), rank, row, job))
        kids[rank] = (pid, os.pidfd_open(pid))
    os.close(forked)
    _close_wiring(rows, ctl_fds)
    return 0 if _parent_ranks(ctl, kids) else 1


def _close_wiring(rows: list[Row], ctl_fds: list[int], keep=None) -> None:
    """Close every rank's mesh row and control end but rank ``keep``'s:
    a copy left open anywhere keeps its EOF from ever arriving."""
    for rank, (row, fd) in enumerate(zip(rows, ctl_fds)):
        if rank != keep:
            os.close(fd)
            for sock in row.values():
                sock.close()


def _refusal(nprocs: int) -> str | None:
    """Why the proxy must not wire and fork this job, if it must not."""
    threads = _threads()
    if threads:
        return (f"importing the target left the job's proxy with "
                f"threads {threads}; ranks are forked from it and must "
                f"be forked single-threaded")
    # the proxy holds all p(p-1) mesh ends at once; a rank keeps only its
    # p-1, plus with shm lanes the 2(p-1) segment fds mmap keeps: 3(p-1)
    # and a few, which the proxy's count already bounds for p >= 3 (at
    # p = 2 the proxy's 2 + its open fds cover a rank's 3 + its few)
    limit = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    need = nprocs * (nprocs - 1) + len(os.listdir("/proc/self/fd"))
    if limit != resource.RLIM_INFINITY and need > limit:
        return (f"its {nprocs * (nprocs - 1)} mesh sockets would take the "
                f"job's proxy to {need} fds, over its hard RLIMIT_NOFILE "
                f"of {limit}")
    return None


def _parent_ranks(ctl: socket.socket,
                  kids: dict[int, tuple[int, int]]) -> bool:
    """The proxy after its last fork: the ranks' parent for the job's
    lifetime -- the one process that reaps them and the only one that
    may signal them (it alone knows whether a pid is still its child).

    No thread: one selector over the control connection and a pidfd per
    rank.  Up go ``forked`` (once) and ``exited`` per reaped rank, with
    the code as ``subprocess`` spells it (-9: SIGKILL); down comes
    ``kill``.  EOF or an error on the connection, either way round, is
    teardown: SIGKILL and reap whatever is left, and answer False.
    True: every rank was reaped with code 0 and the connection still
    stands.
    """
    clean = True
    with selectors.DefaultSelector() as sel:
        sel.register(ctl, selectors.EVENT_READ)
        for rank, (_pid, fd) in kids.items():
            sel.register(fd, selectors.EVENT_READ, rank)
        try:
            send_msg(ctl, {"cmd": "forked", "pids": {
                r: pid for r, (pid, _fd) in kids.items()}})
            while kids:
                for key, _ in sel.select():
                    rank = key.data
                    if rank is None:
                        msg = recv_msg(ctl)
                        if msg.get("cmd") == "kill" and msg["rank"] in kids:
                            os.kill(kids[msg["rank"]][0], signal.SIGKILL)
                    else:
                        pid, fd = kids.pop(rank)
                        sel.unregister(fd)
                        os.close(fd)
                        rc = os.waitstatus_to_exitcode(
                            os.waitpid(pid, 0)[1])
                        clean = clean and rc == 0
                        send_msg(ctl, {"cmd": "exited", "rank": rank,
                                       "rc": rc})
            return clean
        except (OSError, EOFError, pickle.PickleError):
            pass   # the launcher is gone, or has closed the job
    for pid, fd in kids.values():
        os.kill(pid, signal.SIGKILL)
        os.close(fd)
    for pid, _fd in kids.values():
        os.waitpid(pid, 0)
    return False


def _rank_main(ctl: socket.socket, rank: int, row: Row, job: dict) -> int:
    """One rank, from its own wiring to its exit code."""
    nprocs, nonce = job["nprocs"], job["shm_nonce"]
    # resolve the target before anything else: an unimportable target
    # reports as this rank's failure, before its peers wait on it
    try:
        target = resolve_target(job["target"])
        args = pickle.loads(job["args"][rank])
    except BaseException as exc:  # noqa: BLE001 - marshalled to launcher
        send_msg(ctl, {"status": "error", **dump_exception(exc)})
        ctl.close()
        return 1

    chans = mesh_channels(nprocs, rank, row)
    if nonce is not None:
        _attach_lanes(chans, rank, nonce, row)
    transport = WireTransport(nprocs, (rank,), chans)
    universe = Universe(nprocs, transport=transport,
                        local_ranks=(rank,))
    exit_evt = threading.Event()
    ctl_lock = threading.Lock()
    hb = config.heartbeat_interval()
    # The first beat goes from here, before the target runs, whatever
    # the interval: it ends this rank's bootstrap for the launcher, which
    # allows a rank that has not beaten BOOTSTRAP_TIMEOUT of silence.
    _beat(ctl, rank, ctl_lock)
    threading.Thread(target=_control_loop,
                     args=(ctl, rank, universe, exit_evt, ctl_lock, hb),
                     name="repro-proc-control", daemon=True).start()

    rt = RankRuntime(universe, rank)
    bind_thread(rt)
    try:
        result = target(*args)
        try:
            report = {"status": "ok",
                      "result": pickle.dumps(result, protocol=4)}
        except Exception as exc:
            report = {"status": "error", **dump_exception(TypeError(
                f"rank {rank} returned an unpicklable result "
                f"({type(result).__name__}): {exc}"))}
    except AbortException as exc:
        # job poisoned elsewhere: report the root cause and its origin so
        # the launcher folds the failure back to the originating rank
        root = exc.__cause__ if exc.__cause__ is not None else exc
        report = {"status": "abort", "origin": exc.origin_rank,
                  **dump_exception(root)}
    except BaseException as exc:  # noqa: BLE001 - marshalled to launcher
        # this rank is the origin: poison the job over the mesh so peers
        # blocked on it unwind (no shared memory to lean on)
        universe.poison(rank, 1, cause=exc)
        report = {"status": "error", **dump_exception(exc)}
    finally:
        unbind_thread()
    if TRACE.enabled:
        # ship this worker's event rings home on the control plane; the
        # launcher merges all ranks into one Chrome trace at finalize
        try:
            report["trace"] = TRACE.snapshot(reset=True)
        except Exception:  # noqa: BLE001 - tracing never fails the job
            pass
    try:
        # the lock is the point: a heartbeat frame interleaved into the
        # length-prefixed report would corrupt the control stream, and
        # the control thread never holds the lock longer than one frame
        with ctl_lock:
            send_msg(ctl, report)  # repro: allow(blocking-under-lock)
    except OSError:
        pass  # launcher died; the control loop poisons and exits
    # Wire finalize barrier: keep the mesh open until every rank has
    # reported — tearing down early would hit slower ranks' pumps as a
    # peer loss and fail a healthy job.  Unbounded on purpose: the
    # control loop sets the event on the launcher's ``exit``, on its
    # death (EOF), and on any control-plane error, and the launcher's
    # deadline path SIGKILLs stragglers.
    exit_evt.wait()
    universe.close()
    ctl.close()
    return 0 if report["status"] == "ok" else 1


if __name__ == "__main__":
    # only the zygote returns from main(): a proxy ends in os._exit, a
    # rank in _fast_exit
    _fast_exit(main())
