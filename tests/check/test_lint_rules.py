"""Unit tests for ``repro.check.lint``: each rule fires on a minimal
fixture, stays quiet on the matching good idiom, and suppressions work."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check.findings import (Finding, is_suppressed,
                                  parse_suppressions)
from repro.check.lint import main, run_lint

SRC = Path(__file__).resolve().parents[2] / "src"


def lint_source(tmp_path: Path, source: str, name: str = "fixture.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    findings, nfiles, suppressed = run_lint([str(path)])
    assert nfiles == 1
    return findings, suppressed


def rules_of(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# lock-order
# ---------------------------------------------------------------------------

LOCK_CYCLE = """\
import threading

class A:
    def __init__(self):
        self._la = threading.Lock()
        self._lb = threading.Lock()

    def ab(self):
        with self._la:
            with self._lb:
                pass

    def ba(self):
        with self._lb:
            with self._la:
                pass
"""


def test_lock_order_cycle_fires(tmp_path):
    findings, _ = lint_source(tmp_path, LOCK_CYCLE)
    cyc = [f for f in findings if f.rule == "lock-order"]
    assert len(cyc) == 1
    f = cyc[0]
    assert f.severity == "error"
    assert "A._la" in f.message and "A._lb" in f.message
    # both contributing sites are named with file:line
    assert f.message.count("fixture.py:") == 2


def test_lock_order_consistent_nesting_is_clean(tmp_path):
    consistent = LOCK_CYCLE.replace(
        "with self._lb:\n            with self._la:",
        "with self._la:\n            with self._lb:")
    findings, _ = lint_source(tmp_path, consistent)
    assert "lock-order" not in rules_of(findings)


def test_lock_order_cross_function_via_call(tmp_path):
    src = """\
import threading

class A:
    def __init__(self):
        self._la = threading.Lock()
        self._lb = threading.Lock()

    def outer(self):
        with self._la:
            self.inner()

    def inner(self):
        with self._lb:
            pass

    def other(self):
        with self._lb:
            with self._la:
                pass
"""
    findings, _ = lint_source(tmp_path, src)
    cyc = [f for f in findings if f.rule == "lock-order"]
    assert cyc, "call-mediated acquisition must feed the lock graph"
    assert "A._la" in cyc[0].message


def test_lock_order_self_reacquire(tmp_path):
    src = """\
import threading

class A:
    def __init__(self):
        self._l = threading.Lock()

    def reenter(self):
        with self._l:
            with self._l:
                pass
"""
    findings, _ = lint_source(tmp_path, src)
    assert "lock-order" in rules_of(findings)


# ---------------------------------------------------------------------------
# blocking-under-lock
# ---------------------------------------------------------------------------

def test_socket_recv_under_lock_fires(tmp_path):
    src = """\
import threading

class T:
    def __init__(self, sock):
        self._lock = threading.Lock()
        self.sock = sock

    def pump(self):
        with self._lock:
            return self.sock.recv(4)
"""
    findings, _ = lint_source(tmp_path, src)
    hits = [f for f in findings if f.rule == "blocking-under-lock"]
    assert len(hits) == 1
    assert hits[0].severity == "error"
    assert ".recv()" in hits[0].message and "T._lock" in hits[0].message


def test_condition_wait_own_lock_sanctioned(tmp_path):
    src = """\
import threading

class M:
    def __init__(self):
        self._lock = threading.Lock()
        self._arrival = threading.Condition(self._lock)

    def wait_for_arrival(self):
        with self._arrival:
            self._arrival.wait()
"""
    findings, _ = lint_source(tmp_path, src)
    assert "blocking-under-lock" not in rules_of(findings)


def test_condition_wait_foreign_lock_fires(tmp_path):
    src = """\
import threading

class M:
    def __init__(self):
        self._lock = threading.Lock()
        self._other = threading.Lock()
        self._cond = threading.Condition(self._other)

    def bad(self):
        with self._lock:
            with self._cond:
                self._cond.wait()
"""
    findings, _ = lint_source(tmp_path, src)
    hits = [f for f in findings if f.rule == "blocking-under-lock"]
    assert hits, "cond-wait holding an unrelated lock must fire"


def test_thread_join_under_lock_fires(tmp_path):
    src = """\
import threading

class T:
    def __init__(self):
        self._lock = threading.Lock()
        self._pump_thread = threading.Thread(target=lambda: None)

    def stop(self):
        with self._lock:
            self._pump_thread.join()
"""
    findings, _ = lint_source(tmp_path, src)
    assert "blocking-under-lock" in rules_of(findings)


def test_cross_memory_read_under_lock_fires(tmp_path):
    """A ``cma.read`` is a whole payload copied out of a peer process:
    it must not run under the mailbox lock or a channel lock."""
    src = """\
import threading
from repro.transport import cma

class T:
    def __init__(self):
        self.lock = threading.Lock()

    def get(self, pid, remote, local):
        with self.lock:
            cma.read(pid, remote, local)

    def fine(self, pid, remote, local):
        with self.lock:
            table = cma.address_table(local)
        cma.read(pid, remote, table)
"""
    findings, _ = lint_source(tmp_path, src)
    hits = [f for f in findings if f.rule == "blocking-under-lock"]
    assert len(hits) == 1
    assert hits[0].severity == "error" and hits[0].line == 10
    assert "cma.read()" in hits[0].message and "T.lock" in hits[0].message


def test_waiter_park_under_lock_fires(tmp_path):
    """The sleep behind every request wait is a ``Lock.acquire`` of a
    gate only a completer opens — not an ``Event.wait`` — so the rule
    knows ``.park()`` by name: parking under the mailbox lock would stall
    the very pump that has to complete the request."""
    src = """\
import threading
from repro.runtime.requests import Waiter

class Mailbox:
    def __init__(self):
        self._lock = threading.Lock()

    def bad(self, req):
        waiter = Waiter()
        with self._lock:
            req.add_listener(waiter.wake)
            waiter.park()

    def fine(self, req):
        waiter = Waiter()
        with self._lock:
            req.add_listener(waiter.wake)
        waiter.park(0.04)
"""
    findings, _ = lint_source(tmp_path, src)
    hits = [f for f in findings if f.rule == "blocking-under-lock"]
    assert len(hits) == 1
    assert hits[0].severity == "error" and hits[0].line == 12
    assert "park()" in hits[0].message \
        and "Mailbox._lock" in hits[0].message


def test_request_locks_nest_under_nothing_and_over_nothing():
    """Lock order around the waiter, from the shipped tree: a request's
    lock and a waiter's guard are leaves (nothing is acquired while
    either is held), and neither the failure walk nor a completion runs
    under ``Mailbox._lock``."""
    from repro.check import lockmodel
    from repro.check.lint import build_model, load_files
    model = build_model(load_files([str(SRC / "repro")]))
    acq = lockmodel.may_acquire(model)
    edges = set()
    for fm in model.functions.values():
        for a in fm.acquisitions:
            edges.update((held, a.node) for held in a.held)
        for cs in fm.calls:
            for lock in acq.get(cs.callee or "", ()):
                edges.update((held, lock) for held in cs.held)
    nodes = {n for e in edges for n in e} \
        | {a.node for fm in model.functions.values()
           for a in fm.acquisitions}
    assert {"RequestImpl._lock", "Waiter._guard", "Waiter._gate"} <= nodes
    for held, taken in edges:
        assert held not in ("RequestImpl._lock", "Waiter._guard"), \
            (held, taken)
        if held == "Mailbox._lock":
            assert taken not in ("RequestImpl._lock", "Waiter._guard",
                                 "Waiter._gate"), (held, taken)


def test_failure_walk_under_mailbox_lock_fires(tmp_path):
    """Seed the defect the walk must not have: failing the queued
    receives *inside* the snapshot's critical section re-enters
    ``Mailbox._lock`` through ``discard_posted``."""
    runtime = SRC / "repro" / "runtime"
    walk = ("        for req in queued:\n"
            "            req.fail_if_affected()\n")
    mailbox = (runtime / "mailbox.py").read_text(encoding="utf-8")
    assert mailbox.count(walk) == 1
    seeded = mailbox.replace(walk, "".join(
        "    " + line + "\n" for line in walk.splitlines()))
    (tmp_path / "mailbox.py").write_text(seeded, encoding="utf-8")
    (tmp_path / "requests.py").write_text(
        (runtime / "requests.py").read_text(encoding="utf-8"),
        encoding="utf-8")
    findings, _, _ = run_lint([str(tmp_path)])
    assert any(f.rule == "lock-order"
               and "Mailbox._lock -> Mailbox._lock" in f.message
               and "fail_if_affected" in f.message for f in findings), \
        findings
    # and the shipped pair is clean
    (tmp_path / "mailbox.py").write_text(mailbox, encoding="utf-8")
    findings, _, _ = run_lint([str(tmp_path)])
    assert "lock-order" not in rules_of(findings), findings


def test_transitive_block_is_warning(tmp_path):
    src = """\
import threading

class T:
    def __init__(self, sock):
        self._lock = threading.Lock()
        self.sock = sock

    def raw_read(self):
        return self.sock.recv(4)

    def locked_read(self):
        with self._lock:
            return self.raw_read()
"""
    findings, _ = lint_source(tmp_path, src)
    hits = [f for f in findings if f.rule == "blocking-under-lock"]
    assert len(hits) == 1
    assert hits[0].severity == "warning"
    assert "raw_read" in hits[0].message


# ---------------------------------------------------------------------------
# trace-guard
# ---------------------------------------------------------------------------

def test_unguarded_trace_fires(tmp_path):
    src = """\
from repro.obs.trace import TRACE

def f(rank):
    TRACE.instant(rank, "x")
"""
    findings, _ = lint_source(tmp_path, src)
    hits = [f for f in findings if f.rule == "trace-guard"]
    assert len(hits) == 1
    assert "TRACE.instant" in hits[0].message


@pytest.mark.parametrize("body", [
    # plain guard
    "    if TRACE.enabled:\n        TRACE.instant(rank, 'x')\n",
    # ternary
    "    t0 = TRACE.now() if TRACE.enabled else 0.0\n",
    # early return
    "    if not TRACE.enabled:\n        return\n"
    "    TRACE.instant(rank, 'x')\n",
    # and-chain
    "    return TRACE.enabled and TRACE.now()\n",
    # lambda defined inside a guarded block
    "    if TRACE.enabled:\n"
    "        cb = lambda: TRACE.span(rank, 'x', 0.0)\n",
])
def test_guarded_trace_idioms_are_clean(tmp_path, body):
    src = "from repro.obs.trace import TRACE\n\ndef f(rank):\n" + body
    findings, _ = lint_source(tmp_path, src)
    assert "trace-guard" not in rules_of(findings), body


def test_trace_lifecycle_methods_exempt(tmp_path):
    src = """\
from repro.obs.trace import TRACE

def f():
    TRACE.snapshot()
    TRACE.install(4)
"""
    findings, _ = lint_source(tmp_path, src)
    assert "trace-guard" not in rules_of(findings)


# ---------------------------------------------------------------------------
# suppressions + output plumbing
# ---------------------------------------------------------------------------

def test_allow_comment_suppresses(tmp_path):
    src = """\
from repro.obs.trace import TRACE

def f(rank):
    # repro: allow(trace-guard) -- test fixture
    TRACE.instant(rank, "x")
"""
    findings, suppressed = lint_source(tmp_path, src)
    assert "trace-guard" not in rules_of(findings)
    assert suppressed == 1


def test_allow_all_and_parse():
    allows = parse_suppressions(
        "x = 1  # repro: allow(all)\n"
        "# repro: allow(lock-order, trace-guard)\n")
    assert allows[1] == {"all"}
    assert allows[2] == {"lock-order", "trace-guard"}
    f = Finding("blocking-under-lock", "error", "p.py", 1, "m")
    assert is_suppressed(f, allows)
    f2 = Finding("lock-order", "error", "p.py", 3, "m")
    assert is_suppressed(f2, allows)    # line above carries the allow
    f3 = Finding("blocking-under-lock", "error", "p.py", 5, "m")
    assert not is_suppressed(f3, allows)


def test_main_json_output_and_exit_codes(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.obs.trace import TRACE\n\n"
        "def f(rank):\n    TRACE.instant(rank, 'x')\n",
        encoding="utf-8")
    out = tmp_path / "report.json"
    rc = main([str(bad), "--json", str(out)])
    assert rc == 1
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["tool"] == "repro.check.lint"
    assert data["files"] == 1
    assert data["findings"][0]["rule"] == "trace-guard"
    assert data["findings"][0]["line"] == 4

    good = tmp_path / "good.py"
    good.write_text("x = 1\n", encoding="utf-8")
    assert main([str(good)]) == 0


def test_strict_promotes_warnings(tmp_path):
    src = """\
import threading

class T:
    def __init__(self, sock):
        self._lock = threading.Lock()
        self.sock = sock

    def raw_read(self):
        return self.sock.recv(4)

    def locked_read(self):
        with self._lock:
            return self.raw_read()
"""
    p = tmp_path / "warn.py"
    p.write_text(src, encoding="utf-8")
    assert main([str(p)]) == 0
    assert main([str(p), "--strict"]) == 1


# ---------------------------------------------------------------------------
# shm-ring-discipline
# ---------------------------------------------------------------------------

RING_TEMPLATE = """\
import struct

_SZ = struct.Struct("<Q")

class Ring:
    def __init__(self, ctrl, data):
        self._ctrl = ctrl
        self._head_off = 0
        self._tail_off = 64
        self._data = data

    def _load(self, off):
        return _SZ.unpack_from(self._ctrl, off)[0]

    def _store(self, off, value):
        _SZ.pack_into(self._ctrl, off, value)

    def write(self, buf):
        head = self._load(self._head_off)
        self._store(self._head_off, head + len(buf))

    def read_some(self, view):
        tail = self._load(self._tail_off)
        self._store({store_off}, tail + len(view))
"""


def test_ring_discipline_clean_on_good_ring(tmp_path):
    findings, _ = lint_source(
        tmp_path, RING_TEMPLATE.format(store_off="self._tail_off"))
    assert "shm-ring-discipline" not in rules_of(findings)


def test_ring_discipline_fires_on_cross_side_store(tmp_path):
    # the consumer advancing head is the single-writer violation the
    # ring's lock-free correctness argument cannot survive
    findings, _ = lint_source(
        tmp_path, RING_TEMPLATE.format(store_off="self._head_off"))
    hits = [f for f in findings if f.rule == "shm-ring-discipline"]
    assert len(hits) == 1
    assert hits[0].severity == "error"
    assert "read_some" in hits[0].message
    assert "consumer" in hits[0].message and "head" in hits[0].message


def test_ring_discipline_producer_storing_tail_fires(tmp_path):
    src = RING_TEMPLATE.format(store_off="self._tail_off").replace(
        "self._store(self._head_off, head + len(buf))",
        "self._store(self._tail_off, head + len(buf))")
    findings, _ = lint_source(tmp_path, src)
    hits = [f for f in findings if f.rule == "shm-ring-discipline"]
    assert len(hits) == 1
    assert hits[0].severity == "error" and "write" in hits[0].message


def test_ring_discipline_unclassified_method_warns(tmp_path):
    src = RING_TEMPLATE.format(store_off="self._tail_off") + """\

    def rewind(self):
        self._store(self._head_off, 0)
"""
    findings, _ = lint_source(tmp_path, src)
    hits = [f for f in findings if f.rule == "shm-ring-discipline"]
    assert len(hits) == 1
    assert hits[0].severity == "warning"
    assert "rewind" in hits[0].message


def test_ring_discipline_ignores_non_ring_classes(tmp_path):
    src = """\
import struct

class NotARing:
    def __init__(self):
        self._head_off = 0   # no _tail_off: not an SPSC ring

    def read_some(self):
        struct.pack_into("<Q", b"", self._head_off, 1)
"""
    findings, _ = lint_source(tmp_path, src)
    assert "shm-ring-discipline" not in rules_of(findings)


def test_module_entrypoint_clean_on_tree():
    """The acceptance bar: the shipped tree lints clean."""
    repo = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.check.lint", "src/repro"],
        cwd=repo, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
