"""Process-per-rank job launcher: the paper's real ``mpirun`` model.

The thread executor (:mod:`repro.executor.runner`) keeps every rank inside
one Python process, so no workload ever escapes the GIL.  This launcher
spawns ``nprocs`` OS processes — each hosting a *single-rank view* of the
:class:`~repro.runtime.engine.Universe` — and wires them into a full TCP
mesh (:func:`~repro.transport.socket_tcp.TCPMeshTransport`), which is how
the paper's distributed-memory experiments actually ran (``mpirun``/WMPI
daemons, one process per rank).

Bootstrap rendezvous and control plane (all over loopback TCP):

1. the launcher listens; every spawned child dials back and registers its
   rank (the *control connection*, kept for the job's lifetime);
2. the launcher ships each child the job blob (target + args); children
   open their mesh listeners and report the port;
3. once all ranks registered, the launcher gossips the address book and
   the children form the mesh (rank *j* dials *i < j*, accepts *k > j*);
4. children run the target and marshal the result — or the pickled
   exception with its traceback text — back over the control connection;
5. the launcher's final ``exit`` message is the wire-level finalize
   barrier: no child tears its mesh down until every rank has reported.

Faults: a rank that *raises* poisons the job *through the mesh*
(KIND_ABORT frames carrying errorcode + origin + pickled cause — shared
memory is not available, so the envelope is the only carrier).  A rank
that *dies* (hard kill, segfault) is detected by control-connection EOF,
or — for a rank that wedged without dropping its sockets — by missed
heartbeats: every worker beats a ``hb`` frame home each
``REPRO_HEARTBEAT_MS`` (default 100, 0 disables), and a rank silent for
``REPRO_HEARTBEAT_MISS`` intervals (default 20) is SIGKILLed and
declared dead.  Either way the launcher broadcasts a ``peerfail``
notice, feeding the death into the survivors' ULFM failure plane:
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

import itertools
import os
import pickle
import selectors
import socket
import struct
import subprocess
import sys
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


# -- control-plane framing (length-prefixed pickles) -------------------------

def send_msg(sock: socket.socket, obj: Any) -> None:
    blob = pickle.dumps(obj, protocol=4)
    sock.sendall(_LEN.pack(len(blob)) + blob)


def recv_msg(sock: socket.socket) -> Any:
    (n,) = _LEN.unpack(recv_exact(sock, _LEN.size))
    return pickle.loads(recv_exact(sock, n))


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
        mspec = importlib.util.spec_from_file_location(name, spec["file"])
        mod = importlib.util.module_from_spec(mspec)
        sys.modules.setdefault(name, mod)
        mspec.loader.exec_module(mod)
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
                                        backlog=self.nprocs)
        port = listener.getsockname()[1]
        procs: list[subprocess.Popen] = []
        conns: dict[int, socket.socket] = {}
        # shm job identity: workers derive every segment name from this
        # nonce, and the launcher sweeps those names on every exit path —
        # fault-injected workers die by os._exit and unlink nothing
        shm_nonce = None
        if self.nprocs > 1 and config.shm():
            shm_nonce = f"{os.getpid():x}j{next(_SHM_RUN_SEQ)}"
        try:
            env = _child_env()
            for rank in range(self.nprocs):
                procs.append(subprocess.Popen(
                    [self.python, "-m", "repro.executor.procworker",
                     "--connect", f"{self.host}:{port}",
                     "--rank", str(rank), "--nprocs", str(self.nprocs)],
                    env=env))
            conns = self._rendezvous(listener, procs, deadline, timeout)
            for rank, conn in conns.items():
                rank_args = tuple(args[rank]) if per_rank_args \
                    else tuple(args)
                send_msg(conn, {"cmd": "job", "nprocs": self.nprocs,
                                "target": spec, "shm_nonce": shm_nonce,
                                "args": pickle.dumps(rank_args,
                                                     protocol=4)})
            # a rank that cannot even resolve the target reports *now*,
            # instead of a mesh port — cancel the job before meshing up
            # (its peers would otherwise wait on it in build_mesh)
            book = {}
            early_failures: dict[int, BaseException] = {}
            for rank, conn in conns.items():
                # the job deadline covers this phase too: a child wedged
                # inside a blocking target import must not hang run()
                conn.settimeout(self._step_timeout(deadline))
                try:
                    msg = recv_msg(conn)
                except socket.timeout:
                    hung = [r for r in conns if r not in book]
                    self._cancel_bootstrap(conns, skip=hung)
                    self._reap(procs)
                    raise JobTimeoutError(
                        timeout if timeout is not None
                        else BOOTSTRAP_TIMEOUT, hung,
                        early_failures)
                except (ConnectionError, OSError, EOFError,
                        pickle.PickleError):
                    msg = {"status": "error", "exc": dump_exception_chain(
                        RuntimeError(f"rank {rank} died during bootstrap "
                                     f"(exit code {procs[rank].poll()})"))}
                if "mesh_port" in msg:
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
                else:
                    early_failures[rank] = load_exception(msg)
            if early_failures:
                self._cancel_bootstrap(conns, skip=early_failures)
                raise RankFailure(early_failures)
            for conn in conns.values():
                send_msg(conn, {"cmd": "book", "book": book})
                conn.settimeout(None)
            reports, failures = self._collect(conns, procs, deadline,
                                              timeout)
            for conn in conns.values():
                try:
                    send_msg(conn, {"cmd": "exit"})
                except OSError:
                    pass
            # brief grace for voluntary exit: workers unmap and unlink
            # their shm segments in universe.close(); the finally-block
            # _reap would SIGKILL them mid-teardown (its job on failure
            # paths) and leave that cleanup to the launcher sweep
            t_grace = time.monotonic() + 2.0
            for p in procs:
                try:
                    p.wait(timeout=max(0.0, t_grace - time.monotonic()))
                except subprocess.TimeoutExpired:
                    break   # wedged rank: _reap handles it
            self._write_traces(reports)
            return self._fold(reports, failures)
        finally:
            listener.close()
            for conn in conns.values():
                try:
                    conn.close()
                except OSError:
                    pass
            self._reap(procs)
            if shm_nonce is not None:
                # every worker is dead now (reported + exit, or reaped):
                # sweep the job's /dev/shm names.  Workers that finalized
                # cleanly already unlinked their own — this catches hard
                # kills, aborts, and declared-dead ranks.
                shm_transport.unlink_job_segments(shm_nonce, self.nprocs)

    def close(self) -> None:
        """Stateless between runs; provided for executor-API symmetry."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- bootstrap ---------------------------------------------------------
    def _rendezvous(self, listener, procs, deadline, timeout):
        """Accept one control connection per rank (bounded wait).

        Fails *fast* on a child that dies before registering: the accept
        loop polls the children between short accept attempts, so a rank
        killed mid-bootstrap surfaces in milliseconds — naming the dead
        rank(s) and exit codes — instead of burning the whole step
        timeout waiting for a connection that can never come.
        """
        conns: dict[int, socket.socket] = {}
        phase_deadline = deadline if deadline is not None \
            else time.monotonic() + BOOTSTRAP_TIMEOUT
        while len(conns) < self.nprocs:
            dead = {r: procs[r].poll() for r in range(self.nprocs)
                    if r not in conns and procs[r].poll() is not None}
            if dead:
                raise RankFailure(
                    {r: RuntimeError(f"rank {r} process exited during "
                                     f"bootstrap (exit code {rc})")
                     for r, rc in dead.items()})
            left = phase_deadline - time.monotonic()
            if left <= 0:
                missing = [r for r in range(self.nprocs) if r not in conns]
                raise JobTimeoutError(
                    timeout if timeout is not None else BOOTSTRAP_TIMEOUT,
                    missing, {})
            listener.settimeout(max(0.05, min(0.2, left)))
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue   # poll children, re-check the deadline
            # control frames are tiny and latency-sensitive (abort/exit
            # must not sit in Nagle's buffer behind nothing)
            set_nodelay(conn)
            conn.settimeout(BOOTSTRAP_TIMEOUT)
            hello = recv_msg(conn)
            conns[hello["rank"]] = conn
        for conn in conns.values():
            conn.settimeout(None)
        return conns

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
    def _collect(self, conns, procs, deadline, timeout):
        """Read every rank's report; declare dead children to survivors.

        Two failure detectors feed the same declaration path: control
        connection EOF (a process that actually died) and heartbeat
        silence (a process that wedged with its sockets open — SIGSTOP,
        runaway C code holding the GIL).  A silent rank is SIGKILLed
        first so the declaration is *true*, then every survivor gets a
        ``peerfail`` notice for its failure plane.
        """
        sel = selectors.DefaultSelector()
        for rank, conn in conns.items():
            sel.register(conn, selectors.EVENT_READ, rank)
        pending = set(conns)
        reports: dict[int, dict] = {}
        failures: dict[int, BaseException] = {}
        hb = config.heartbeat_interval()
        silent_after = hb * config.heartbeat_miss() if hb > 0 else None
        now = time.monotonic()
        last_hb = {rank: now for rank in conns}
        # ranks that have beaten at least once: until then a generous
        # grace applies (the first beat waits on mesh build + universe
        # setup, which a tight test threshold must not misread as death)
        seen_hb: set[int] = set()
        try:
            while pending:
                wait = 0.5 if silent_after is None else min(0.5, hb)
                if deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        self._timeout(conns, procs, pending, reports,
                                      failures, timeout)
                    wait = max(0.0, min(wait, left))
                for key, _ in sel.select(timeout=wait):
                    rank = key.data
                    try:
                        msg = recv_msg(key.fileobj)
                    except (ConnectionError, OSError, pickle.PickleError,
                            EOFError):
                        msg = None
                    if msg is not None and msg.get("cmd") == "hb":
                        last_hb[rank] = time.monotonic()
                        seen_hb.add(rank)
                        continue
                    sel.unregister(key.fileobj)
                    pending.discard(rank)
                    if msg is None:
                        try:   # EOF usually precedes the exit by a hair
                            rc = procs[rank].wait(timeout=0.2)
                        except subprocess.TimeoutExpired:
                            rc = None
                        self._declare_dead(
                            rank, RuntimeError(
                                f"rank {rank} process died before "
                                f"reporting (exit code {rc})"),
                            conns, procs, failures, last_hb, hb)
                    else:
                        reports[rank] = msg
                if silent_after is None:
                    continue
                now = time.monotonic()
                for rank in sorted(pending):
                    allowed = silent_after if rank in seen_hb \
                        else max(silent_after, BOOTSTRAP_TIMEOUT)
                    if now - last_hb[rank] <= allowed:
                        continue
                    sel.unregister(conns[rank])
                    pending.discard(rank)
                    misses = config.heartbeat_miss()
                    self._declare_dead(
                        rank, RuntimeError(
                            f"rank {rank} missed {misses} heartbeats "
                            f"({silent_after:.2f}s silent); killed and "
                            f"declared failed"),
                        conns, procs, failures, last_hb, hb)
        finally:
            sel.close()
        return reports, failures

    def _declare_dead(self, rank, cause, conns, procs, failures,
                      last_hb, hb_interval) -> None:
        """One rank is gone: make it true, record it, tell the others.

        SIGKILL closes a wedged rank's mesh sockets too, so a survivor
        blocked *writing* to it (no failure listener can preempt a
        ``sendall``) unwinds on the reset.
        """
        if procs[rank].poll() is None:
            procs[rank].kill()
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

    def _timeout(self, conns, procs, pending, reports, failures, timeout):
        """Deadline hit with ranks outstanding: abort, reap, report.

        Failures *already reported* before the deadline must ride on the
        JobTimeoutError instead of being masked by it — that is the whole
        point of the class.
        """
        hung = sorted(pending)
        pre_deadline_failures = self._merge_failures(reports, failures)
        self._broadcast_abort(conns, origin=-1)
        t_grace = time.monotonic() + KILL_GRACE
        for rank in hung:
            budget = max(0.0, t_grace - time.monotonic())
            try:
                procs[rank].wait(timeout=budget)
            except subprocess.TimeoutExpired:
                pass
        self._reap(procs)
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

    def _reap(self, procs) -> None:
        """No leaked children, ever: SIGKILL anything still alive."""
        for p in procs:
            if p.poll() is None:
                p.kill()
        for p in procs:
            try:
                p.wait(timeout=KILL_GRACE)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass


def procrun(nprocs: int, target, args: Sequence = (),
            per_rank_args: bool = False,
            timeout: float | None = 120.0) -> list:
    """Run ``target`` as ``nprocs`` OS processes; see :class:`ProcExecutor`."""
    with ProcExecutor(nprocs) as ex:
        return ex.run(target, args=args, per_rank_args=per_rank_args,
                      timeout=timeout)
