"""Static lint over the reproduction's runtime: concurrency discipline.

Four rules, each emitting ``file:line`` findings (see
:mod:`repro.check.findings` for severities, suppressions and JSON):

``lock-order``
    Builds a cross-module lock-order graph from every acquisition site
    (``with self._lock``, ``.acquire()``), including acquisitions made
    by callees while a lock is held, and fails on potential-deadlock
    cycles (including re-acquiring a held non-reentrant lock).

``blocking-under-lock``
    Flags operations that can block — socket recv/send, ``.wait()`` on
    events and foreign conditions, a request waiter's ``.park()``, thread
    joins, mailbox waits, a cross-memory payload read (``cma.read``) —
    made while holding a lock.  The classic ``Condition.wait`` under its own
    (single) lock is sanctioned.  Calls to functions that may
    transitively block are warnings.

``trace-guard``
    Every ``TRACE.instant/span/span_at/now`` instrumentation site must
    sit behind the ``TRACE.enabled`` fast-path check the observability
    layer budgeted for (guarding ``if``, ternary, ``and``-chain, or an
    ``if not TRACE.enabled: return`` early exit).

``shm-ring-discipline``
    In SPSC ring classes (any class addressing both ``self._head_off``
    and ``self._tail_off``), producer-side methods (``write*``) may
    store only the head counter and consumer-side methods (``read*``)
    only the tail counter — each side reads the other's counter but
    never writes it.  A cross-side store is an error; a counter store
    from a method on neither side is a warning (unclassifiable role).

plus ``stale-suppression`` for allow-comments that excuse nothing.  The
rules read source text, so the stubs :mod:`repro.jni.capi` compiles from
:mod:`repro.jni.spec` are outside the call graph — they take no lock and
block only inside the runtime calls the graph does see.  That the stub
surface and ``mpijava/`` agree is a test (``tests/unit/test_capi_spec.py``):
both are read from the one table.

Usage::

    python -m repro.check.lint src/repro [--json out.json] [--strict]
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

from repro.check import lockmodel
from repro.check.findings import (ERROR, WARNING, Finding, apply_baseline,
                                  dump_json, is_suppressed, load_baseline,
                                  parse_suppressions, render_report,
                                  sort_findings)

RULES = ("lock-order", "blocking-under-lock", "trace-guard",
         "shm-ring-discipline", "stale-suppression")

#: rules that produce findings a suppression could apply to
_FINDING_RULES = tuple(r for r in RULES if r != "stale-suppression")

#: TRACE methods that are per-event instrumentation (must be guarded);
#: lifecycle/config methods (use_clock, snapshot, ...) are exempt
GUARDED_TRACE_METHODS = frozenset({"instant", "span", "span_at", "now"})

#: modules exempt from the trace-guard rule: the recorder itself (its
#: methods *are* the implementation) and this package
TRACE_GUARD_EXEMPT = ("obs/trace.py", "check/")


class SourceFile:
    def __init__(self, path: Path, rel: str, text: str, tree: ast.Module):
        self.path = path
        self.rel = rel              # repo-relative display path
        self.text = text
        self.tree = tree
        self.module = _module_name(rel)
        self.allows = parse_suppressions(text)


def _module_name(rel: str) -> str:
    parts = Path(rel).with_suffix("").parts
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    return ".".join(parts)


def load_files(paths: list[str]) -> list[SourceFile]:
    seen: dict[Path, SourceFile] = {}
    for raw in paths:
        root = Path(raw)
        candidates = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for p in candidates:
            rp = p.resolve()
            if rp in seen:
                continue
            text = p.read_text(encoding="utf-8")
            try:
                tree = ast.parse(text, filename=str(p))
            except SyntaxError as exc:
                raise SystemExit(f"repro.check.lint: cannot parse "
                                 f"{p}: {exc}") from exc
            try:
                rel = str(p.resolve().relative_to(Path.cwd()))
            except ValueError:
                rel = str(p)
            seen[rp] = SourceFile(p, rel, text, tree)
    return list(seen.values())


# ---------------------------------------------------------------------------
# rule: lock-order
# ---------------------------------------------------------------------------

def check_lock_order(files: list[SourceFile],
                     model: lockmodel.CodeModel) -> list[Finding]:
    acq = lockmodel.may_acquire(model)
    paths = {fm.key: fm.path for fm in model.functions.values()}
    # edge (held -> acquired) -> one representative site
    edges: dict[tuple[str, str], tuple[str, int, str]] = {}
    for fm in model.functions.values():
        for a in fm.acquisitions:
            for held in a.held:
                edges.setdefault((held, a.node),
                                 (fm.path, a.line, fm.key))
        for cs in fm.calls:
            if not cs.held or not cs.callee:
                continue
            for lock in acq.get(cs.callee, ()):
                for held in cs.held:
                    edges.setdefault(
                        (held, lock),
                        (fm.path, cs.line, f"{fm.key} via {cs.desc}()"))
    findings: list[Finding] = []
    graph: dict[str, set[str]] = {}
    for (a, b), _site in edges.items():
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    for cycle in _find_cycles(graph):
        sites = []
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if (a, b) in edges:
                path, line, where = edges[(a, b)]
                sites.append((path, line, f"{a} -> {b} at {path}:{line} "
                                          f"({where})"))
        if not sites:
            continue
        path, line, _ = sites[0]
        order = " -> ".join(cycle + cycle[:1])
        detail = "; ".join(s for _, _, s in sites)
        findings.append(Finding(
            "lock-order", ERROR, path, line,
            f"potential deadlock cycle in lock-order graph: {order} "
            f"[{detail}]"))
    return findings


def _find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Elementary cycles worth reporting: one per SCC (plus self-loops).

    A full Johnson enumeration is overkill for a lint message — each
    nontrivial strongly connected component is reported once, as a cycle
    through its members found by DFS."""
    cycles: list[list[str]] = []
    for node, succs in graph.items():
        if node in succs:
            cycles.append([node])
    for scc in _tarjan(graph):
        if len(scc) < 2:
            continue
        cycles.append(_cycle_through(graph, scc))
    return cycles


def _tarjan(graph: dict[str, set[str]]) -> list[list[str]]:
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(v: str) -> None:
        work = [(v, iter(sorted(graph.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, succs = work[-1]
            advanced = False
            for w in succs:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return sccs


def _cycle_through(graph: dict[str, set[str]], scc: list[str]) -> list[str]:
    """A concrete cycle visiting nodes of one SCC (DFS back to start)."""
    members = set(scc)
    start = sorted(scc)[0]
    path = [start]
    seen = {start}
    node = start
    while True:
        nxt = None
        for w in sorted(graph.get(node, ())):
            if w == start and len(path) > 1:
                return path
            if w in members and w not in seen:
                nxt = w
                break
        if nxt is None:
            # fall back: direct 2-cycle with any member pointing back
            for w in sorted(graph.get(node, ())):
                if w == start:
                    return path
            return path
        path.append(nxt)
        seen.add(nxt)
        node = nxt


# ---------------------------------------------------------------------------
# rule: blocking-under-lock
# ---------------------------------------------------------------------------

def check_blocking(files: list[SourceFile],
                   model: lockmodel.CodeModel) -> list[Finding]:
    blk = lockmodel.may_block(model)
    findings: list[Finding] = []
    for fm in model.functions.values():
        direct_lines = set()
        for b in fm.blocks:
            if not b.held or b.sanctioned:
                continue
            direct_lines.add(b.line)
            findings.append(Finding(
                "blocking-under-lock", ERROR, fm.path, b.line,
                f"{b.desc} while holding {_fmt_locks(b.held)} "
                f"(in {fm.key})"))
        for cs in fm.calls:
            if not cs.held or not cs.callee or cs.line in direct_lines:
                continue
            ops = blk.get(cs.callee, ())
            if ops:
                findings.append(Finding(
                    "blocking-under-lock", WARNING, fm.path, cs.line,
                    f"call to {cs.desc}() may block "
                    f"({sorted(ops)[0]}) while holding "
                    f"{_fmt_locks(cs.held)} (in {fm.key})"))
    return findings


def _fmt_locks(held: tuple) -> str:
    return ", ".join(held)


# ---------------------------------------------------------------------------
# rule: trace-guard
# ---------------------------------------------------------------------------

def check_trace_guard(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        posix = sf.path.as_posix()
        if any(marker in posix for marker in TRACE_GUARD_EXEMPT):
            continue
        parents = _parent_map(sf.tree)
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if not (isinstance(fn, ast.Attribute)
                    and fn.attr in GUARDED_TRACE_METHODS
                    and _is_trace(fn.value)):
                continue
            if not _is_guarded(node, parents):
                findings.append(Finding(
                    "trace-guard", ERROR, sf.rel, node.lineno,
                    f"TRACE.{fn.attr}() not behind the TRACE.enabled "
                    f"fast-path check"))
    return findings


def _is_trace(expr: ast.expr) -> bool:
    return (isinstance(expr, ast.Name) and expr.id == "TRACE") or \
        (isinstance(expr, ast.Attribute) and expr.attr == "TRACE")


def _mentions_enabled(expr: ast.expr) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "enabled"
               and _is_trace(n.value) for n in ast.walk(expr))


def _is_negated_enabled(expr: ast.expr) -> bool:
    """``not TRACE.enabled`` (possibly or-ed with more conditions)."""
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        return _mentions_enabled(expr.operand)
    if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.Or):
        return any(_is_negated_enabled(v) for v in expr.values)
    return False


def _block_exits(stmts: list[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


def _parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _is_guarded(call: ast.Call, parents: dict) -> bool:
    node: ast.AST = call
    while True:
        parent = parents.get(node)
        if parent is None:
            return False
        if isinstance(parent, ast.If):
            in_body = _contains(parent.body, node)
            if in_body and _mentions_enabled(parent.test) \
                    and not _is_negated_enabled(parent.test):
                return True
            if not in_body and _is_negated_enabled(parent.test):
                return True
        elif isinstance(parent, ast.IfExp):
            if node is parent.body and _mentions_enabled(parent.test):
                return True
            if node is parent.orelse and _is_negated_enabled(parent.test):
                return True
        elif isinstance(parent, ast.BoolOp) \
                and isinstance(parent.op, ast.And):
            idx = parent.values.index(node) if node in parent.values else -1
            if idx > 0 and any(_mentions_enabled(v)
                               for v in parent.values[:idx]):
                return True
        # early-exit guard: a preceding `if not TRACE.enabled: return`
        # in any enclosing statement block
        for field_val in (getattr(parent, "body", None),
                          getattr(parent, "orelse", None),
                          getattr(parent, "finalbody", None)):
            if not isinstance(field_val, list) or node not in field_val:
                continue
            before = field_val[:field_val.index(node)]
            for st in before:
                if isinstance(st, ast.If) \
                        and _is_negated_enabled(st.test) \
                        and _block_exits(st.body):
                    return True
        node = parent


def _contains(stmts: list[ast.stmt], node: ast.AST) -> bool:
    return any(node is st or any(node is d for d in ast.walk(st))
               for st in stmts)


# ---------------------------------------------------------------------------
# rule: shm-ring-discipline
# ---------------------------------------------------------------------------

#: method-name prefixes that classify a ring method's side
RING_PRODUCER_PREFIX = "write"
RING_CONSUMER_PREFIX = "read"

#: counter-offset attributes that identify an SPSC ring class
_RING_COUNTER_ATTRS = frozenset({"_head_off", "_tail_off"})


def _self_attrs(node: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "self"}


def _counter_store_target(call: ast.Call) -> str | None:
    """Which ring counter (if any) a call stores to: a ``_store``/
    ``pack_into`` whose arguments mention a counter-offset attribute."""
    fn = call.func
    if not (isinstance(fn, ast.Attribute)
            and fn.attr in ("_store", "pack_into")):
        return None
    for arg in call.args:
        for n in ast.walk(arg):
            if isinstance(n, ast.Attribute) \
                    and n.attr in _RING_COUNTER_ATTRS:
                return n.attr
    return None


def check_ring_discipline(files: list[SourceFile]) -> list[Finding]:
    """SPSC index discipline: write* methods own head, read* own tail.

    The ring's correctness argument (lock-free byte stream, monotonic
    64-bit counters, TSO publish ordering) rests entirely on each
    counter having exactly one writer; this rule keeps refactors from
    quietly breaking that invariant.
    """
    findings: list[Finding] = []
    for sf in files:
        for cls in ast.walk(sf.tree):
            if not isinstance(cls, ast.ClassDef) \
                    or not _RING_COUNTER_ATTRS <= _self_attrs(cls):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) \
                        or fn.name.startswith("__") \
                        or fn.name in ("_store", "_load"):
                    continue
                if fn.name.startswith(RING_PRODUCER_PREFIX):
                    side, forbidden = "producer", "_tail_off"
                elif fn.name.startswith(RING_CONSUMER_PREFIX):
                    side, forbidden = "consumer", "_head_off"
                else:
                    side, forbidden = None, None
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    target = _counter_store_target(node)
                    if target is None:
                        continue
                    counter = target.strip("_").split("_")[0]
                    if side is None:
                        findings.append(Finding(
                            "shm-ring-discipline", WARNING, sf.rel,
                            node.lineno,
                            f"{cls.name}.{fn.name} stores the ring "
                            f"{counter} counter but is neither a "
                            f"producer (write*) nor a consumer (read*) "
                            f"method — its side is unclassifiable"))
                    elif target == forbidden:
                        owner = "consumer" if side == "producer" \
                            else "producer"
                        findings.append(Finding(
                            "shm-ring-discipline", ERROR, sf.rel,
                            node.lineno,
                            f"{cls.name}.{fn.name} ({side} side) stores "
                            f"the ring {counter} counter — SPSC "
                            f"discipline: only the {owner} side may "
                            f"advance {counter}"))
    return findings


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def build_model(files: list[SourceFile]) -> lockmodel.CodeModel:
    model = lockmodel.CodeModel()
    for sf in files:
        model.add_module(sf.module, sf.rel, sf.tree)
    # display paths for findings come from FuncModel.path (already rel)
    model.analyze()
    return model


def check_stale_suppressions(files: list[SourceFile],
                             used: set[tuple[str, int]],
                             active: set[str]) -> list[Finding]:
    """Allow-comments that suppressed nothing this run (so they can't
    rot in place after the code they excused is gone).

    Only comments whose named rules were all *active* this run are
    judged — a comment for a rule that didn't execute (``--rules``
    subset, or another tool's rule like the verifier's) proves nothing
    either way.
    """
    findings: list[Finding] = []
    all_active = set(_FINDING_RULES) <= active
    for sf in files:
        for lineno, names in sorted(sf.allows.items()):
            checkable = names <= active or ("all" in names and all_active)
            if not checkable or (sf.rel, lineno) in used:
                continue
            findings.append(Finding(
                "stale-suppression", WARNING, sf.rel, lineno,
                f"'# repro: allow({', '.join(sorted(names))})' "
                f"suppresses nothing here — remove it (or fix the rule "
                f"name)"))
    return findings


def run_lint(paths: list[str], rules: tuple[str, ...] = RULES):
    """Run the selected rules; returns (findings, nfiles, nsuppressed)."""
    files = load_files(paths)
    model = build_model(files) \
        if {"lock-order", "blocking-under-lock"} & set(rules) else None
    findings: list[Finding] = []
    if "lock-order" in rules:
        findings += check_lock_order(files, model)
    if "blocking-under-lock" in rules:
        findings += check_blocking(files, model)
    if "trace-guard" in rules:
        findings += check_trace_guard(files)
    if "shm-ring-discipline" in rules:
        findings += check_ring_discipline(files)
    allows = {sf.rel: sf.allows for sf in files}
    kept, suppressed = [], 0
    used: set[tuple[str, int]] = set()
    for f in findings:
        file_allows = allows.get(f.path, {})
        if is_suppressed(f, file_allows):
            suppressed += 1
            for lineno in (f.line, f.line - 1):
                names = file_allows.get(lineno)
                if names and (f.rule in names or "all" in names):
                    used.add((f.path, lineno))
        else:
            kept.append(f)
    if "stale-suppression" in rules:
        kept += check_stale_suppressions(files, used, set(rules))
    return sort_findings(kept), len(files), suppressed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.check.lint",
        description="concurrency lint for the repro runtime")
    ap.add_argument("paths", nargs="*", default=["src/repro"],
                    help="files or directories to lint "
                         "(default: src/repro)")
    ap.add_argument("--rules", default=",".join(RULES),
                    help=f"comma-separated rules (default: all of "
                         f"{', '.join(RULES)})")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write the findings as JSON")
    ap.add_argument("--baseline", metavar="PATH", default=None,
                    help="JSON report of known findings to filter out")
    ap.add_argument("--strict", action="store_true",
                    help="treat warnings as failures too")
    args = ap.parse_args(argv)
    rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    unknown = set(rules) - set(RULES)
    if unknown:
        ap.error(f"unknown rule(s): {', '.join(sorted(unknown))}")
    findings, nfiles, suppressed = run_lint(args.paths or ["src/repro"],
                                            rules)
    baselined = 0
    if args.baseline:
        findings, baselined = apply_baseline(
            findings, load_baseline(args.baseline,
                                    tool="repro.check.lint"))
    print(render_report(findings, nfiles))
    if suppressed:
        print(f"repro.check.lint: {suppressed} finding(s) suppressed by "
              f"'# repro: allow(...)' comments")
    if baselined:
        print(f"repro.check.lint: {baselined} known finding(s) filtered "
              f"by the baseline")
    if args.json:
        Path(args.json).write_text(
            dump_json(findings, nfiles, suppressed), encoding="utf-8")
    errors = sum(1 for f in findings if f.severity == ERROR)
    warnings = sum(1 for f in findings if f.severity == WARNING)
    if errors or (args.strict and warnings):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
