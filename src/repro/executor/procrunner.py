"""Process-per-rank job launcher: the paper's real ``mpirun`` model.

The thread executor (:mod:`repro.executor.runner`) keeps every rank inside
one Python process, so no workload ever escapes the GIL.  This launcher
runs ``nprocs`` OS processes — each hosting a *single-rank view* of the
:class:`~repro.runtime.engine.Universe` — and wires them into a full TCP
mesh (:func:`~repro.transport.socket_tcp.TCPMeshTransport`), which is how
the paper's distributed-memory experiments actually ran (``mpirun``/WMPI
daemons, one process per rank).  Start-up is paid once per job, not per
rank: as MPICH's ``hydra_pmi_proxy`` and Open MPI's ``orted`` do on each
node, one proxy process forks the local ranks, reaps them and reports
their exit codes to the launcher.

Bootstrap rendezvous and control plane — the tree is launcher →
zygote → one proxy per job → that job's ranks:

1. the launcher keeps **one** child, the *zygote*
   (``python -m repro.executor.procworker``), on one end of a
   ``socketpair``: it has imported the runtime — never user code.  A
   job is one request, ``{"cmd": "job", "connect", "nprocs", "cwd",
   "affinity", "shm_nonce", "target"}`` with the launcher's fds 0 / 1 /
   2 attached.  The zygote, single-threaded, forks the job's *proxy*
   and hands it the connection until it has reaped it;
2. the proxy takes on the job's stdio, cwd and affinity, imports the
   target — user modules are imported here, once per job, never in the
   zygote — and, still single-threaded, forks the ranks (or answers
   ``refused``, naming the threads the import left running).  It
   reports ``forked {rank: pid}`` and then stays, for the job's
   lifetime, as the ranks' parent: it alone reaps them (``exited {rank,
   rc}`` per rank, ``-9`` meaning SIGKILL as in ``subprocess``) and it
   alone may signal them (on the launcher's ``kill {rank}``) — only a
   parent knows whether a pid is still the child it forked.  The
   launcher's per-rank ``poll`` / ``kill`` / ``wait`` (:class:`_Zygote`)
   are those three messages;
3. every rank dials the job's loopback listener and registers its rank
   (its own *control connection*, kept for the job's lifetime; the
   proxy's is not inherited — ranks close it right after the fork).
   Ranks dial by address, here and in the mesh
   (:func:`~repro.transport.socket_tcp.connect`): after a fork nothing
   is resolved in Python and nothing is imported;
4. the launcher ships each rank its arguments; ranks resolve the target
   (the proxy's module, inherited by the fork; a target whose import
   raised raises again here, as each rank's own failure), open their
   mesh listeners and report the port;
5. once all ranks registered, the launcher gossips the address book and
   the ranks form the mesh (rank *j* dials *i < j*, accepts *k > j*);
6. ranks run the target and marshal the result — or the pickled
   exception with its traceback text — back over the control connection;
7. the launcher's final ``exit`` message is the wire finalize barrier:
   no rank tears its mesh down until every rank has reported.

Who reaps, signals and sweeps on each death:

- *a rank* — its proxy reaps it and reports the code; the launcher sees
  EOF on the rank's connection or the ``exited`` notice, whichever comes
  first.  A rank that loses the launcher poisons its universe and exits;
- *the proxy* — on EOF (the launcher gone, or closing the connection to
  end a failed job) it SIGKILLs and reaps whatever ranks are left and
  exits non-zero.  SIGKILLed itself, its ranks die with it
  (``PR_SET_PDEATHSIG``).  Either way the zygote reaps it, unlinks the
  job's shared-memory names that are left, and — unless the proxy
  exited 0, every rank reaped with code 0 — exits, which is how the
  launcher learns that the proxy died;
- *the zygote* — SIGKILLed, the proxy dies with it and the ranks with
  the proxy; the launcher, losing the connection, fails every rank that
  has not reported, and sweeps the job's shm names itself (it does on
  every exit path);
- *the launcher* — the proxy sees EOF and tears the job down as above
  (before the proxy has forked the ranks, the zygote sees it instead
  and SIGKILLs the proxy: an import may never return); the zygote, with
  no launcher to serve, exits.

The zygote is resident, as the ``multiprocessing`` forkserver is: a job
costs two forks and one import of its target, not an interpreter.  What
a job must see as of its ``run()`` and a resident process would serve
stale, the proxy re-applies from the request before it imports: the
launcher's stdio (pytest swaps fd 1 / 2 per test), working directory
and the calling thread's CPU affinity.  What shapes imports — the
interpreter, the environment with its ``REPRO_*`` settings,
``sys.path`` — cannot be re-applied after them, so a zygote serves only
jobs whose ``(python, _child_env())`` equals the one it was started
with; any other job closes it and starts a fresh one.  A job that fails
in any way closes its zygote too: only one whose ranks were all reaped
with code 0 hands it back.  An idle zygote exits on its own after
:data:`LINGER_S`, so nothing waits on it after the last job; a request
that meets one lingering out finds EOF instead of ``forked`` and is sent
once more, to a fresh zygote.  Forking from the launcher itself would be
unsafe: it has threads.

Faults: a rank that *raises* poisons the job *through the mesh*
(KIND_ABORT frames carrying errorcode + origin + pickled cause — shared
memory is not available, so the envelope is the only carrier).  A rank
that *dies* (hard kill, segfault) is detected by control-connection EOF
or the proxy's ``exited`` notice, whichever comes first (the exit code
always comes from the notice), or — for a rank that wedged without
dropping its sockets — by missed heartbeats: every worker beats a
``hb`` frame home each ``REPRO_HEARTBEAT_MS`` (default 100, 0
disables), and a rank silent for ``REPRO_HEARTBEAT_MISS`` intervals
(default 20) is SIGKILLed (by its proxy) and declared dead.  Either
way the launcher broadcasts a ``peerfail`` notice, feeding the death
into the survivors' ULFM failure plane:
under ``ERRORS_RETURN`` they see ``ERR_PROC_FAILED`` and may
Revoke/Shrink and continue; under ``ERRORS_ARE_FATAL`` (the default)
their next operation on the dead rank poisons the job, folding the
failure back to the dead rank exactly as before.  A launcher timeout
aborts the job with ``origin_rank=-1`` and reports hung ranks *and*
pre-deadline failures via
:class:`~repro.executor.runner.JobTimeoutError`.  Detection latency
(seconds past the last heartbeat's implied liveness window) is exported
through :mod:`repro.obs.metrics` as the ``proc.ft`` counter group.

The control plane pickles between coordinating processes of one user on
one machine (same trust domain as ``multiprocessing``); it is not a
network-facing protocol.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import select
import selectors
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
from typing import Any, Callable, Sequence

from repro import config
from repro.executor.runner import JobTimeoutError, RankFailure
from repro.obs import export as obs_export
from repro.obs.metrics import REGISTRY
from repro.runtime.envelope import (dump_exception_chain,
                                    load_exception_chain)
from repro.transport import shm as shm_transport
from repro.transport.socket_tcp import BOOTSTRAP_TIMEOUT
from repro.transport.wire import recv_exact, set_nodelay

_LEN = struct.Struct("!I")

#: per-launcher-process sequence making shm nonces unique across the
#: many jobs one test process launches back to back
_SHM_RUN_SEQ = itertools.count(1)

#: grace between "the job is over" (abort/exit sent) and SIGKILL
KILL_GRACE = 5.0

#: how long a rank's ``exited`` notice may trail the EOF on its own
#: control connection (the proxy has to be scheduled and reap it)
EXIT_NOTICE_WAIT = 1.0

#: an idle zygote exits after this many seconds without a job
LINGER_S = 1.0


# -- control-plane framing (length-prefixed pickles) -------------------------

def send_msg(sock: socket.socket, obj: Any) -> None:
    blob = pickle.dumps(obj, protocol=4)
    sock.sendall(_LEN.pack(len(blob)) + blob)


def recv_msg(sock: socket.socket) -> Any:
    (n,) = _LEN.unpack(recv_exact(sock, _LEN.size))
    return pickle.loads(recv_exact(sock, n))


def send_msg_fds(sock: socket.socket, obj: Any, fds: Sequence[int]) -> None:
    """:func:`send_msg` with ``fds`` riding on its first bytes
    (``SCM_RIGHTS``: an AF_UNIX socket only)."""
    blob = pickle.dumps(obj, protocol=4)
    frame = _LEN.pack(len(blob)) + blob
    sent = socket.send_fds(sock, [frame], fds)
    sock.sendall(frame[sent:])


def recv_msg_fds(sock: socket.socket, maxfds: int) -> tuple[Any, list[int]]:
    """Inverse of :func:`send_msg_fds`: the message and the fds it
    carried, now this process's own."""
    head, fds, _flags, _addr = socket.recv_fds(sock, _LEN.size, maxfds)
    if not head:
        raise EOFError("peer closed")
    (n,) = _LEN.unpack(head + recv_exact(sock, _LEN.size - len(head)))
    return pickle.loads(recv_exact(sock, n)), fds


# -- exception marshalling ---------------------------------------------------

def dump_exception(exc: BaseException) -> dict:
    """Serialize an exception (with its cause chain) for the wire.

    The traceback object itself cannot cross processes, so its formatted
    text rides alongside; unpicklable or constructor-mismatched
    exceptions degrade to summaries rather than losing the failure (see
    :func:`repro.runtime.envelope.dump_exception_chain`).
    """
    tb = "".join(traceback.format_exception(type(exc), exc,
                                            exc.__traceback__))
    return {"exc": dump_exception_chain(exc), "traceback": tb}


def load_exception(report: dict) -> BaseException:
    exc = load_exception_chain(report["exc"])
    if exc is None:
        exc = RuntimeError(f"rank failed but its exception did not "
                           f"deserialize; remote traceback follows:\n"
                           f"{report.get('traceback', '')}")
    try:
        exc.remote_traceback = report.get("traceback", "")
    except Exception:
        pass  # exceptions with __slots__ just lose the cosmetic text
    return exc


# -- target resolution -------------------------------------------------------

def parse_cli_literal(token: str) -> Any:
    """Parse one CLI argument as a Python literal where possible.

    Shared by every front door that takes ``module:func ARGS...``
    (``repro.mpirun``, ``repro.check.verify``): ``100000`` -> int,
    ``[1, 2]`` -> list, anything unparseable stays a string.
    """
    import ast
    try:
        return ast.literal_eval(token)
    except (ValueError, SyntaxError):
        return token


def target_spec(target) -> dict:
    """What the child needs to re-resolve the SPMD entry point.

    Strings name an importable ``module:func`` or a ``path.py:func``;
    callables are pickled by reference (they must be module-level
    functions importable in the child — the same restriction
    ``multiprocessing`` spawn mode imposes).
    """
    if isinstance(target, str):
        mod, sep, func = target.partition(":")
        if mod.endswith(".py"):
            return {"file": os.path.abspath(mod), "func": func or "main"}
        if not sep:
            raise ValueError(f"target {target!r} must be 'module:func' "
                             f"or 'path/to/file.py:func'")
        return {"module": mod, "func": func}
    if callable(target):
        # a function defined in the launching script pickles as
        # ``__main__.f`` — meaningless in the child, whose __main__ is
        # the worker.  Resolve the script's real identity instead.
        qualname = getattr(target, "__qualname__",
                           getattr(target, "__name__", ""))
        if getattr(target, "__module__", None) == "__main__" \
                and qualname.isidentifier():
            main_mod = sys.modules.get("__main__")
            spec = getattr(main_mod, "__spec__", None)
            if spec is not None and spec.name:        # python -m pkg.mod
                return {"module": spec.name, "func": qualname}
            path = getattr(main_mod, "__file__", None)
            if path:                                   # python script.py
                return {"file": os.path.abspath(path), "func": qualname}
        try:
            blob = pickle.dumps(target, protocol=4)
        except Exception as exc:
            raise TypeError(
                f"process backend target {target!r} must be a module-level "
                f"function (picklable by reference); lambdas and local "
                f"closures cannot cross a process boundary") from exc
        return {"pickle": blob}
    raise TypeError(f"target must be callable or 'module:func', "
                    f"got {type(target).__name__}")


def resolve_target(spec: dict) -> Callable:
    """Child-side inverse of :func:`target_spec`."""
    if "pickle" in spec:
        return pickle.loads(spec["pickle"])
    func = spec["func"]
    if "file" in spec:
        import importlib.util
        name = f"_repro_target_{os.path.splitext(os.path.basename(spec['file']))[0]}"
        mod = sys.modules.get(name)
        if getattr(mod, "__file__", None) != spec["file"]:
            # not loaded yet (in a rank: not by its job's proxy).  On
            # failure the name goes, as ``import`` does it, so the next
            # resolver raises the error again
            mspec = importlib.util.spec_from_file_location(name,
                                                           spec["file"])
            mod = importlib.util.module_from_spec(mspec)
            sys.modules[name] = mod
            try:
                mspec.loader.exec_module(mod)
            except BaseException:
                sys.modules.pop(name, None)
                raise
    else:
        import importlib
        mod = importlib.import_module(spec["module"])
    return getattr(mod, func)


def _child_env() -> dict:
    """Child environment: the parent's live ``sys.path`` as PYTHONPATH.

    pytest and friends extend ``sys.path`` at runtime (test directories,
    ``src`` layouts); the child must resolve the same modules to unpickle
    the target by reference.
    """
    env = dict(os.environ)
    paths = [os.path.abspath(p) if p else os.getcwd() for p in sys.path]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    return env


class _Zygote:
    """The launcher's one child process and, through it, each rank's
    handle for the job it is serving.

    The ranks are the children of the job's proxy, which the zygote
    forks and hands this connection for the job: only their parent
    knows whether a pid is still the rank it forked, so the launcher
    never signals a rank.  ``poll`` / ``kill`` / ``wait`` keep their
    ``subprocess.Popen`` meaning per rank and are served by the proxy's
    ``forked`` / ``exited`` notices and its ``kill`` command (see
    :func:`repro.executor.procworker._parent_ranks`).
    """

    def __init__(self, python: str, env: dict):
        #: what shaped the zygote's imports: it serves only jobs that
        #: would be started with the same
        self.key = (python, env)
        ours, theirs = socket.socketpair()
        try:
            self.proc = subprocess.Popen(
                [python, "-m", "repro.executor.procworker",
                 "--control", str(theirs.fileno())],
                env=env, pass_fds=(theirs.fileno(),))
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self.conn = ours
        self.pids: dict[int, int] = {}
        self.codes: dict[int, int] = {}   # rank -> exit code, once reaped
        #: why the job's proxy forked no rank, if it said so
        self.refused: str | None = None
        #: the connection is gone while ranks were still unreaped
        self.lost = False

    def fork_job(self, job: dict, deadline: float) -> bool:
        """Send one job request, with this process's fds 0 / 1 / 2, and
        wait until the ranks are forked.  False: the proxy refused to
        fork them, the zygote or the proxy was gone first, or
        ``deadline`` passed (``refused`` and ``lost`` tell which)."""
        self.pids, self.codes = {}, {}
        try:
            send_msg_fds(self.conn, job, (0, 1, 2))
        except OSError:
            self.lost = True
            return False
        while not self.pids and self.refused is None and not self.lost \
                and (left := deadline - time.monotonic()) > 0:
            self.absorb(left)
        return bool(self.pids)

    def absorb(self, timeout: float = 0.0) -> None:
        """Take in the notices that have arrived, waiting up to
        ``timeout`` for the first.  Never blocks on a connection with
        nothing to read, so a readiness event that an earlier
        :meth:`wait` has already consumed is harmless."""
        while not self.lost \
                and select.select([self.conn], [], [], timeout)[0]:
            timeout = 0.0
            try:
                msg = recv_msg(self.conn)
            except (ConnectionError, OSError, EOFError, pickle.PickleError):
                self.lost = True
                return
            if msg["cmd"] == "forked":
                self.pids = msg["pids"]
            elif msg["cmd"] == "exited":
                self.codes[msg["rank"]] = msg["rc"]
            elif msg["cmd"] == "refused":
                self.refused = msg["why"]

    def poll(self, rank: int) -> int | None:
        return self.codes.get(rank)

    def kill(self, rank: int) -> None:
        if rank in self.codes:
            return
        try:
            send_msg(self.conn, {"cmd": "kill", "rank": rank})
        except OSError:
            pass  # the proxy is gone, and its ranks with it

    def wait(self, rank: int, timeout: float) -> int | None:
        """The rank's exit code, waiting up to ``timeout`` for the
        proxy to reap it; None if it has not (or nobody is left to)."""
        deadline = time.monotonic() + timeout
        while rank not in self.codes and not self.lost \
                and (left := deadline - time.monotonic()) > 0:
            self.absorb(left)
        return self.codes.get(rank)

    def exit_text(self, rank: int) -> str:
        """How a rank that is known to be dead ended, for a failure
        text.  An EOF on the rank's own connection beats the proxy's
        notice by the time it takes to reap a process, hence the wait."""
        rc = self.wait(rank, EXIT_NOTICE_WAIT)
        if rc is None and self.lost:
            return f"killed with its parent: {self.lost_text()}"
        return f"exit code {rc}"

    def lost_text(self) -> str:
        """Who is gone, once the connection is: the zygote closes it by
        exiting, on its own (code 0) only after the job's proxy died
        without serving the job."""
        try:   # its sockets close a moment before it can be reaped
            rc = self.proc.wait(timeout=EXIT_NOTICE_WAIT)
        except subprocess.TimeoutExpired:
            rc = None
        if rc == 0:
            return "the job's proxy died"
        return f"the job's zygote died (exit code {rc})"

    def reap(self) -> None:
        """No leaked children, ever.  Dropping the connection is the
        order: the proxy takes EOF as teardown, kills and reaps what is
        left of its job and exits, and the zygote, having reaped it,
        exits too.  One that does not (it is wedged) is killed, and its
        proxy and ranks die with their parents (``PR_SET_PDEATHSIG``)."""
        self.conn.close()
        if self.proc.poll() is None:
            # Popen.wait(timeout) polls with a growing sleep; a pidfd
            # wakes the moment the zygote is gone
            pidfd = os.pidfd_open(self.proc.pid)
            try:
                if not select.select([pidfd], [], [], KILL_GRACE)[0]:
                    self.proc.kill()
            finally:
                os.close(pidfd)
        self.proc.wait()


#: this process's idle zygote, between one job and the next
_idle: _Zygote | None = None
_idle_lock = threading.Lock()


def _swap_idle(zyg: _Zygote | None) -> _Zygote | None:
    """Put ``zyg`` in this process's idle slot; return what was there."""
    global _idle
    with _idle_lock:
        zyg, _idle = _idle, zyg
    return zyg


def _park(zyg: _Zygote | None) -> None:
    """Keep ``zyg`` for the next job (None: keep none) and close the
    zygote it displaces."""
    old = _swap_idle(zyg)
    if old is not None:
        old.reap()


def _forget_idle() -> None:
    """A forked launcher does not own its parent's zygote; holding the
    connection open would keep the zygote from ever seeing EOF."""
    global _idle, _idle_lock
    if _idle is not None:
        _idle.conn.close()
    _idle, _idle_lock = None, threading.Lock()


atexit.register(_park, None)
os.register_at_fork(after_in_child=_forget_idle)


class ProcExecutor:
    """Run an SPMD job as ``nprocs`` OS processes on this machine.

    Mirrors :class:`~repro.executor.runner.MPIExecutor`'s interface
    (``run`` returns per-rank results, raises
    :class:`~repro.executor.runner.RankFailure` /
    :class:`~repro.executor.runner.JobTimeoutError`), but each rank is a
    real process: compute-bound ranks scale across cores instead of
    serializing on one GIL, and nothing — abort delivery included —
    depends on shared memory.
    """

    def __init__(self, nprocs: int, python: str | None = None,
                 host: str = "127.0.0.1"):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = int(nprocs)
        self.python = python or sys.executable
        self.host = host

    # -- public API --------------------------------------------------------
    def run(self, target, args: Sequence = (), per_rank_args: bool = False,
            timeout: float | None = 120.0) -> list:
        """Run ``target`` on every rank; returns per-rank return values.

        ``target`` is a module-level callable, ``"module:func"`` or
        ``"path/to/file.py:func"``.  ``timeout`` covers the whole job,
        bootstrap included.
        """
        spec = target_spec(target)
        deadline = (None if timeout is None
                    else time.monotonic() + float(timeout))
        listener = socket.create_server((self.host, 0),
                                        backlog=self.nprocs + 1)
        zyg: _Zygote | None = None
        conns: dict[int, socket.socket] = {}
        # shm job identity: ranks derive every segment name from this
        # nonce.  Fault-injected ranks die by os._exit and unlink
        # nothing, so the zygote sweeps those names once it has reaped
        # the job's proxy, and this launcher on every exit path (which
        # covers a zygote that died)
        shm_nonce = None
        if self.nprocs > 1 and config.shm():
            shm_nonce = f"{os.getpid():x}j{next(_SHM_RUN_SEQ)}"
        try:
            zyg = self._fork_ranks(
                {"cmd": "job", "nprocs": self.nprocs,
                 "connect": f"{self.host}:{listener.getsockname()[1]}",
                 "cwd": os.getcwd(), "affinity": os.sched_getaffinity(0),
                 "shm_nonce": shm_nonce, "target": spec},
                deadline, timeout)
            conns = self._rendezvous(listener, zyg, deadline, timeout)
            for rank, conn in conns.items():
                rank_args = tuple(args[rank]) if per_rank_args \
                    else tuple(args)
                send_msg(conn, {"cmd": "job", "nprocs": self.nprocs,
                                "args": pickle.dumps(rank_args,
                                                     protocol=4)})
            book = self._mesh_ports(conns, zyg, deadline, timeout)
            for conn in conns.values():
                send_msg(conn, {"cmd": "book", "book": book})
                conn.settimeout(None)
            reports, failures = self._collect(conns, zyg, deadline,
                                              timeout)
            for conn in conns.values():
                try:
                    send_msg(conn, {"cmd": "exit"})
                except OSError:
                    pass
            # brief grace for voluntary exit: workers unmap and unlink
            # their shm segments in universe.close(); the finally-block
            # reap() would SIGKILL them mid-teardown (its job on failure
            # paths) and leave that cleanup to the launcher sweep
            grace = time.monotonic() + 2.0
            clean = all(zyg.wait(rank, grace - time.monotonic()) == 0
                        for rank in range(self.nprocs))
            self._write_traces(reports)
            results = self._fold(reports, failures)
            if clean:
                _park(zyg)
                zyg = None
            return results
        finally:
            listener.close()
            for conn in conns.values():
                try:
                    conn.close()
                except OSError:
                    pass
            if zyg is not None:
                zyg.reap()
            if shm_nonce is not None:
                # every rank is dead now (reported + exit, or reaped):
                # ranks that finalized unlinked their own names, and the
                # zygote swept the rest unless it died first
                shm_transport.unlink_job_segments(shm_nonce, self.nprocs)

    def close(self) -> None:
        """Nothing to release: the idle zygote belongs to the process,
        not to one executor; provided for executor-API symmetry."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- bootstrap ---------------------------------------------------------
    def _fork_ranks(self, job: dict, deadline, timeout) -> _Zygote:
        """Have a zygote's proxy fork the job's ranks: the idle zygote if
        it was started as this job's would be, else a fresh one.  A
        reused zygote that is gone before its proxy forks (it was
        lingering out) gets the request once more, to a fresh one."""
        key = (self.python, _child_env())
        phase_deadline = deadline if deadline is not None \
            else time.monotonic() + BOOTSTRAP_TIMEOUT
        zyg = _swap_idle(None)
        if zyg is not None and zyg.key != key:
            zyg.reap()
            zyg = None
        while True:
            warm = zyg is not None
            if not warm:
                zyg = _Zygote(*key)
            if zyg.fork_job(job, phase_deadline):
                return zyg
            timed_out = zyg.refused is None and not zyg.lost
            if timed_out:
                # wedged before the proxy's fork (in the target's import,
                # say): no rank to wind down, so no grace -- the proxy
                # dies with the zygote
                zyg.proc.kill()
            zyg.reap()
            if timed_out:
                raise JobTimeoutError(
                    timeout if timeout is not None else BOOTSTRAP_TIMEOUT,
                    range(self.nprocs), {})
            if zyg.refused is not None or not warm:
                why = zyg.refused or f"{zyg.lost_text()} before forking it"
                raise RankFailure({r: RuntimeError(
                    f"rank {r} never started: {why}")
                    for r in range(self.nprocs)})
            zyg = None

    def _rendezvous(self, listener, zyg, deadline, timeout):
        """Accept one control connection per rank (bounded wait).

        Fails *fast* on a rank that dies before registering: the
        proxy's ``exited`` notice for a rank with no connection
        surfaces in milliseconds — naming the dead rank(s) and exit
        codes — instead of burning the whole step timeout waiting for a
        connection that can never come.
        """
        conns: dict[int, socket.socket] = {}
        phase_deadline = deadline if deadline is not None \
            else time.monotonic() + BOOTSTRAP_TIMEOUT
        with selectors.DefaultSelector() as sel:
            sel.register(listener, selectors.EVENT_READ)
            sel.register(zyg.conn, selectors.EVENT_READ)
            while len(conns) < self.nprocs:
                missing = [r for r in range(self.nprocs) if r not in conns]
                dead = {r: rc for r in missing
                        if (rc := zyg.poll(r)) is not None}
                if dead:
                    raise RankFailure(
                        {r: RuntimeError(f"rank {r} process exited during "
                                         f"bootstrap (exit code {rc})")
                         for r, rc in dead.items()})
                if zyg.lost:
                    why = zyg.lost_text()
                    raise RankFailure(
                        {r: RuntimeError(f"rank {r} never started: {why} "
                                         f"during bootstrap")
                         for r in missing})
                left = phase_deadline - time.monotonic()
                if left <= 0:
                    raise JobTimeoutError(
                        timeout if timeout is not None
                        else BOOTSTRAP_TIMEOUT, missing, {})
                for key, _ in sel.select(timeout=left):
                    if key.fileobj is not listener:
                        zyg.absorb()
                        continue
                    conn, _addr = listener.accept()
                    # control frames are tiny and latency-sensitive
                    # (abort/exit must not sit in Nagle's buffer behind
                    # nothing)
                    set_nodelay(conn)
                    conn.settimeout(BOOTSTRAP_TIMEOUT)
                    conns[recv_msg(conn)["rank"]] = conn
                    conn.settimeout(None)
        return conns

    def _mesh_ports(self, conns, zyg, deadline, timeout) -> dict:
        """Every rank's mesh address, in whatever order they report.

        A rank that cannot even resolve the target reports *now*,
        instead of a mesh port: the job is cancelled before meshing up
        (its peers would otherwise wait on it in ``build_mesh``).  The
        job deadline covers this phase too: a rank wedged inside a
        blocking target import must not hang ``run()``, and is reported
        hung — unlike a rank that had already failed.
        """
        book: dict[int, tuple] = {}
        early_failures: dict[int, BaseException] = {}
        phase_deadline = time.monotonic() + self._step_timeout(deadline)
        with selectors.DefaultSelector() as sel:
            for rank, conn in conns.items():
                sel.register(conn, selectors.EVENT_READ, rank)
            while len(book) + len(early_failures) < len(conns):
                left = phase_deadline - time.monotonic()
                ready = sel.select(timeout=max(0.0, left))
                if not ready and left <= 0:
                    hung = [r for r in conns
                            if r not in book and r not in early_failures]
                    self._cancel_bootstrap(conns, skip=hung)
                    zyg.reap()
                    raise JobTimeoutError(
                        timeout if timeout is not None
                        else BOOTSTRAP_TIMEOUT, hung, early_failures)
                for key, _ in ready:
                    rank, conn = key.data, key.fileobj
                    sel.unregister(conn)
                    conn.settimeout(self._step_timeout(deadline))
                    try:
                        msg = recv_msg(conn)
                    except (ConnectionError, OSError, EOFError,
                            pickle.PickleError):
                        msg = {"status": "error",
                               "exc": dump_exception_chain(RuntimeError(
                                   f"rank {rank} died during bootstrap "
                                   f"({zyg.exit_text(rank)})"))}
                    if "mesh_port" not in msg:
                        early_failures[rank] = load_exception(msg)
                        continue
                    # hierarchical address book: address plus the host
                    # identity and shm availability the per-peer
                    # transport selection reads (same-node + shm_ok
                    # peers get shared-memory bulk lanes beside their
                    # socket, the rest talk over the socket alone), and
                    # the (pid, address, value) of the rank's probe
                    # word, which same-node peers read to learn whether
                    # they can get its payloads in place
                    book[rank] = (self.host, msg["mesh_port"],
                                  msg.get("node"), msg.get("shm", False),
                                  msg.get("cma"))
        if early_failures:
            self._cancel_bootstrap(conns, skip=early_failures)
            raise RankFailure(early_failures)
        return book

    @staticmethod
    def _step_timeout(deadline) -> float:
        if deadline is None:
            return BOOTSTRAP_TIMEOUT
        return max(0.05, min(BOOTSTRAP_TIMEOUT,
                             deadline - time.monotonic()))

    @staticmethod
    def _cancel_bootstrap(conns, skip=()) -> None:
        """Tell ranks still in the bootstrap handshake to exit cleanly
        (``skip``: ranks that are dead or wedged and cannot read it)."""
        for rank, conn in conns.items():
            if rank in skip:
                continue
            try:
                send_msg(conn, {"cmd": "cancel"})
            except OSError:
                pass

    # -- result collection -------------------------------------------------
    def _collect(self, conns, zyg, deadline, timeout):
        """Read every rank's report; declare dead children to survivors.

        Three failure detectors feed the same declaration path,
        whichever fires first: control connection EOF and the proxy's
        ``exited`` notice for a rank that has not reported (a process
        that actually died — the notice is where its exit code comes
        from, always), and heartbeat silence (a process that wedged with
        its sockets open — SIGSTOP, runaway C code holding the GIL).  A
        silent rank is SIGKILLed first so the declaration is *true*,
        then every survivor gets a ``peerfail`` notice for its failure
        plane.  Losing the connection loses every rank not yet reaped.
        """
        sel = selectors.DefaultSelector()
        for rank, conn in conns.items():
            sel.register(conn, selectors.EVENT_READ, rank)
        sel.register(zyg.conn, selectors.EVENT_READ, None)
        pending = set(conns)
        reports: dict[int, dict] = {}
        failures: dict[int, BaseException] = {}
        hb = config.heartbeat_interval()
        silent_after = hb * config.heartbeat_miss() if hb > 0 else None
        now = time.monotonic()
        last_hb = {rank: now for rank in conns}
        # ranks that have beaten at least once: until then a generous
        # grace applies (a rank beats from its control thread, which
        # starts once the mesh is built and the universe exists — a
        # wait a tight test threshold must not misread as death)
        seen_hb: set[int] = set()

        def died(rank, text=None):
            sel.unregister(conns[rank])
            pending.discard(rank)
            self._declare_dead(
                rank, RuntimeError(text or (
                    f"rank {rank} process died before reporting "
                    f"({zyg.exit_text(rank)})")),
                conns, zyg, failures, last_hb, hb)

        try:
            while pending:
                wait = 0.5 if silent_after is None else min(0.5, hb)
                if deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        self._timeout(conns, zyg, pending, reports,
                                      failures, timeout)
                    wait = max(0.0, min(wait, left))
                # ranks before the proxy: a report already on a rank's
                # connection outranks the notice that it has exited
                for key, _ in sorted(sel.select(timeout=wait),
                                     key=lambda ev: ev[0].data is None):
                    rank = key.data
                    if rank is None:
                        zyg.absorb()
                        continue
                    try:
                        msg = recv_msg(key.fileobj)
                    except (ConnectionError, OSError, pickle.PickleError,
                            EOFError):
                        died(rank)
                        continue
                    if msg.get("cmd") == "hb":
                        last_hb[rank] = time.monotonic()
                        seen_hb.add(rank)
                        continue
                    sel.unregister(key.fileobj)
                    pending.discard(rank)
                    reports[rank] = msg
                # (a lost connection takes every pending rank: the loop
                # ends)
                for rank in sorted(pending):
                    if zyg.lost or zyg.poll(rank) is not None:
                        died(rank)
                if silent_after is None:
                    continue
                now = time.monotonic()
                for rank in sorted(pending):
                    allowed = silent_after if rank in seen_hb \
                        else max(silent_after, BOOTSTRAP_TIMEOUT)
                    if now - last_hb[rank] <= allowed:
                        continue
                    died(rank, f"rank {rank} (pid {zyg.pids.get(rank)}) "
                               f"missed {config.heartbeat_miss()} heartbeats "
                               f"({silent_after:.2f}s silent); killed and "
                               f"declared failed")
        finally:
            sel.close()
        return reports, failures

    def _declare_dead(self, rank, cause, conns, zyg, failures,
                      last_hb, hb_interval) -> None:
        """One rank is gone: make it true, record it, tell the others.

        SIGKILL (by the rank's parent, on our request) closes a wedged
        rank's mesh sockets too, so a survivor blocked *writing* to it
        (no failure listener can preempt a ``sendall``) unwinds on the
        reset.
        """
        zyg.kill(rank)
        # seconds past the end of the last heartbeat's liveness window;
        # ~0 when EOF beat the heartbeat plane to the detection
        latency = max(0.0, time.monotonic() - last_hb[rank] - hb_interval)
        REGISTRY.counter("proc.ft").inc(failures_detected=1)
        REGISTRY.gauge("proc.ft.detect_latency_s").set(latency)
        failures[rank] = cause
        # survivors feed this into the ULFM failure plane: recoverable
        # under ERRORS_RETURN, job-fatal (folded to this rank) otherwise
        for peer, conn in conns.items():
            if peer == rank or peer in failures:
                continue
            try:
                send_msg(conn, {"cmd": "peerfail", "rank": rank})
            except OSError:
                pass  # that child is already gone too

    def _timeout(self, conns, zyg, pending, reports, failures, timeout):
        """Deadline hit with ranks outstanding: abort, reap, report.

        Failures *already reported* before the deadline must ride on the
        JobTimeoutError instead of being masked by it — that is the whole
        point of the class.
        """
        hung = sorted(pending)
        pre_deadline_failures = self._merge_failures(reports, failures)
        self._broadcast_abort(conns, origin=-1)
        # no report is read after this, nor ``exit`` sent: the EOF is
        # what lets a rank that unwound on the abort end now, so the
        # grace below waits only for ranks deaf to both
        for conn in conns.values():
            conn.close()
        t_grace = time.monotonic() + KILL_GRACE
        for rank in hung:
            zyg.wait(rank, max(0.0, t_grace - time.monotonic()))
        zyg.reap()
        raise JobTimeoutError(timeout, hung, pre_deadline_failures)

    def _broadcast_abort(self, conns, origin: int,
                         errorcode: int = 1, skip=()) -> None:
        for rank, conn in conns.items():
            if rank in skip:
                continue
            try:
                send_msg(conn, {"cmd": "abort", "origin": origin,
                                "errorcode": errorcode})
            except OSError:
                pass  # that child is already gone

    @staticmethod
    def _write_traces(reports) -> None:
        """Merge the workers' shipped event rings into REPRO_TRACE.

        Children inherit the environment, so when the launcher sees
        ``REPRO_TRACE`` every worker traced into memory and attached its
        snapshot to the report; one merged ``trace.json`` (plus the raw
        per-rank files) lands in the directory.  Best-effort: a job that
        failed still folds its failures even if the trace write cannot.
        """
        dir = config.trace_dir()
        if not dir:
            return
        snapshots: dict[int, dict] = {}
        for msg in reports.values():
            for rank, snap in (msg.pop("trace", None) or {}).items():
                rank = int(rank)
                if rank in snapshots:
                    snapshots[rank]["events"].extend(snap["events"])
                    snapshots[rank]["dropped"] += snap["dropped"]
                else:
                    snapshots[rank] = snap
        try:
            obs_export.dump_job_trace(dir, snapshots)
        except OSError:
            pass

    def _fold(self, reports, failures):
        """Launcher-side mirror of the thread executor's failure folding."""
        results: list = [None] * self.nprocs
        failures = self._merge_failures(reports, failures, results)
        if failures:
            raise RankFailure(failures)
        return results

    def _merge_failures(self, reports, failures, results=None):
        """Fold rank reports into a failures dict (results land in
        ``results`` when given; on the timeout path they are moot)."""
        failures = dict(failures)
        for rank, msg in reports.items():
            if msg["status"] == "ok":
                if results is None:
                    continue
                try:
                    results[rank] = pickle.loads(msg["result"])
                except Exception as exc:
                    failures[rank] = RuntimeError(
                        f"rank {rank} result did not unpickle: {exc}")
            elif msg["status"] == "error":
                failures[rank] = load_exception(msg)
        for rank, msg in reports.items():
            if msg["status"] == "abort":
                # a rank that unwound with AbortException: fold the root
                # cause back to the originating rank (its own report, if
                # any, wins via setdefault — same rule as thread mode)
                origin = msg.get("origin", -1)
                exc = load_exception(msg)
                if 0 <= origin < self.nprocs:
                    failures.setdefault(origin, exc)
                else:
                    failures.setdefault(rank, exc)
        return failures


def procrun(nprocs: int, target, args: Sequence = (),
            per_rank_args: bool = False,
            timeout: float | None = 120.0) -> list:
    """Run ``target`` as ``nprocs`` OS processes; see :class:`ProcExecutor`."""
    with ProcExecutor(nprocs) as ex:
        return ex.run(target, args=args, per_rank_args=per_rank_args,
                      timeout=timeout)
