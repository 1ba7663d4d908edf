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

Bootstrap and control plane — the tree is launcher → zygote → one
proxy per job → that job's ranks:

1. the launcher keeps **one** child, the *zygote*
   (``python -m repro.executor.procworker``), on one end of a
   ``socketpair``: it has imported the runtime — never user code.  A
   job is one request, ``{"cmd": "job", "nprocs", "cwd", "affinity",
   "env", "shm_nonce", "target", "args"}`` (``args``: per rank,
   pickled), carrying the launcher's fds 0 / 1 / 2 and one end of a
   fresh ``socketpair`` per rank: that rank's *control connection*.
   The zygote, single-threaded, forks the job's *proxy* and hands it
   the connection until it has reaped it;
2. the proxy takes on the job's stdio, cwd, environment and affinity,
   imports the target — user modules are imported here, once per job,
   never in the zygote — and, still single-threaded, wires the job (a
   loopback TCP pair per rank pair,
   :func:`~repro.transport.socket_tcp.mesh`) and forks the ranks (or
   answers ``refused``, naming the threads the import left running or
   the fd limit the mesh would pass).  It reports ``forked {rank:
   pid}`` and stays, for the job's lifetime, as the ranks' parent: it
   alone reaps them (``exited {rank, rc}`` per rank, ``-9`` meaning
   SIGKILL as in ``subprocess``) and it alone may signal them (on the
   launcher's ``kill {rank}``) — only a parent knows whether a pid is
   still the child it forked.  The launcher's per-rank ``poll`` /
   ``kill`` / ``wait`` (:class:`_Zygote`) are those three messages;
3. each rank keeps its own row of the mesh and its own control end,
   resolves the target (a target whose import raised raises again
   here, as each rank's own failure) and beats once when its universe
   is up: a rank that dies before that died *during bootstrap*;
4. ranks run the target and marshal the result — or the pickled
   exception with its traceback text — back over the control connection;
5. the launcher's final ``exit`` message is the wire finalize barrier:
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
launcher's stdio (pytest swaps fd 1 / 2 per test), working directory,
environment and the calling thread's CPU affinity.  What shapes imports
— the interpreter, and the part of the environment that
:data:`_IMPORT_ENV` names (``sys.path`` and the ``REPRO_*`` settings
among it) — cannot be re-applied after them, so a zygote serves only
jobs whose :func:`_zygote_key` equals the one it was started with; any
other job closes it and starts a fresh one.  A job that fails
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
from repro.transport.wire import recv_exact

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

#: bound on the wait for a job's proxy to fork its ranks when the job
#: has no deadline, and on the wait for a rank's first beat
BOOTSTRAP_TIMEOUT = 30.0

#: most fds one ``SCM_RIGHTS`` message carries (Linux's ``SCM_MAX_FD``):
#: a job request's fds 0 / 1 / 2 and one control end per rank
SCM_MAX_FD = 253


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
    head, fds, flags, _addr = socket.recv_fds(sock, _LEN.size, maxfds)
    if flags & socket.MSG_CTRUNC:
        for fd in fds:
            os.close(fd)
        raise OSError(f"a message came with more than {maxfds} fds; "
                      f"the kernel dropped the rest")
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


#: the variables a zygote's imports can depend on, by prefix (and
#: ``*_NUM_THREADS``): it serves only jobs that agree with it on each.
#: The job's proxy sets the rest (``procworker._enter_job``).
#:
#: - ``PYTHON``: where modules are found (``PYTHONPATH`` carries the
#:   launcher's live ``sys.path``) and how the interpreter loads them;
#: - ``REPRO_``: the runtime's settings, which decide what the zygote
#:   imports (``REPRO_SANITIZE`` the sanitizer) and how its ranks run;
#: - ``OMP_``, ``OPENBLAS_``, ``MKL_`` and ``*_NUM_THREADS``: read from C
#:   by numpy's BLAS once, when the zygote imports numpy;
#: - ``LD_``, ``GLIBC_TUNABLES``, ``LC_`` and ``LANG``: read only as an
#:   interpreter starts, by the loader (where C extensions are found) and
#:   by Python (its locale and stdio encoding).
_IMPORT_ENV = ("PYTHON", "REPRO_", "OMP_", "OPENBLAS_", "MKL_", "LD_",
               "GLIBC_TUNABLES", "LC_", "LANG")


def _zygote_key(python: str, env: dict) -> tuple:
    """What a zygote started with ``python`` and ``env`` has imports
    for: the jobs it may serve are those with the same key."""
    return python, tuple(sorted(
        (name, value) for name, value in env.items()
        if name.startswith(_IMPORT_ENV) or name.endswith("_NUM_THREADS")))


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
        self.key = _zygote_key(python, env)
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

    def fork_job(self, job: dict, ctl_fds: Sequence[int],
                 deadline: float) -> bool:
        """Send one job request, with this process's fds 0 / 1 / 2 and
        the ranks' control ends, and wait until the ranks are forked.
        False: the proxy refused to fork them, the zygote or the proxy
        was gone first, or ``deadline`` passed (``refused`` and ``lost``
        tell which)."""
        self.pids, self.codes = {}, {}
        try:
            send_msg_fds(self.conn, job, (0, 1, 2, *ctl_fds))
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

    def __init__(self, nprocs: int, python: str | None = None):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        if 3 + nprocs > SCM_MAX_FD:
            raise ValueError(
                f"nprocs must be <= {SCM_MAX_FD - 3}, got {nprocs}: a job "
                f"request carries 3 + nprocs fds, and one SCM_RIGHTS "
                f"message at most {SCM_MAX_FD}")
        self.nprocs = int(nprocs)
        self.python = python or sys.executable

    # -- public API --------------------------------------------------------
    def run(self, target, args: Sequence = (), per_rank_args: bool = False,
            timeout: float | None = 120.0) -> list:
        """Run ``target`` on every rank; returns per-rank return values.

        ``target`` is a module-level callable, ``"module:func"`` or
        ``"path/to/file.py:func"``.  ``timeout`` covers the whole job,
        bootstrap included.
        """
        spec = target_spec(target)
        if per_rank_args:
            rank_args = [pickle.dumps(tuple(args[rank]), protocol=4)
                         for rank in range(self.nprocs)]
        else:
            rank_args = [pickle.dumps(tuple(args), protocol=4)] \
                * self.nprocs
        deadline = (None if timeout is None
                    else time.monotonic() + float(timeout))
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
            zyg, conns = self._fork_ranks(
                {"cmd": "job", "nprocs": self.nprocs,
                 "cwd": os.getcwd(), "affinity": os.sched_getaffinity(0),
                 "shm_nonce": shm_nonce, "target": spec,
                 "args": rank_args},
                deadline, timeout)
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
            for conn in conns.values():
                conn.close()
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
    def _fork_ranks(self, job: dict, deadline, timeout) \
            -> tuple[_Zygote, dict[int, socket.socket]]:
        """Have a zygote's proxy fork the job's ranks: the idle zygote if
        it was started as this job's would be, else a fresh one.  A
        reused zygote that is gone before its proxy forks (it was
        lingering out) gets the request once more, to a fresh one.

        Returns the zygote and, by rank, the launcher's ends of the
        control connections, fresh for each request."""
        env = job["env"] = _child_env()
        phase_deadline = deadline if deadline is not None \
            else time.monotonic() + BOOTSTRAP_TIMEOUT
        zyg = _swap_idle(None)
        if zyg is not None and zyg.key != _zygote_key(self.python, env):
            zyg.reap()
            zyg = None
        while True:
            warm = zyg is not None
            if not warm:
                zyg = _Zygote(self.python, env)
            pairs = [socket.socketpair() for _ in range(self.nprocs)]
            try:
                forked = zyg.fork_job(job, [theirs.fileno()
                                            for _, theirs in pairs],
                                      phase_deadline)
            finally:
                # the ranks hold these now: a rank's death must read as
                # EOF on this side's end
                for _, theirs in pairs:
                    theirs.close()
            if forked:
                return zyg, {rank: ours for rank, (ours, _)
                             in enumerate(pairs)}
            for ours, _ in pairs:
                ours.close()
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
        # ranks that have beaten, as each does once its universe exists:
        # until then a rank is in its bootstrap, and a generous grace
        # applies (a wait a tight test threshold must not misread)
        seen_hb: set[int] = set()

        def died(rank, text=None):
            sel.unregister(conns[rank])
            pending.discard(rank)
            when = "died before reporting" if rank in seen_hb \
                else "exited during bootstrap"
            self._declare_dead(
                rank, RuntimeError(text or (
                    f"rank {rank} process {when} "
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
