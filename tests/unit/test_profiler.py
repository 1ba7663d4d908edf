"""PMPI-style profiling hook: interposition on Comm entry points."""

import numpy as np
import pytest

from repro.executor.runner import MPIExecutor, RankFailure
from repro.mpijava import (MPI, CommProfiler, CountingProfiler,
                           TracingProfiler)
from repro.mpijava import profiler
from repro.jni.spec import CALLS


@pytest.fixture(autouse=True)
def detach_everything():
    yield
    for p in list(profiler._active):
        profiler.detach(p)


def _run(nprocs, body):
    with MPIExecutor(nprocs) as ex:
        return ex.run(body)


class TestDisplayName:
    def test_stub_names_map_to_mpijava_names(self):
        assert CALLS["send"].oo_name == "Send"
        assert CALLS["comm_rank"].oo_name == "Rank"
        assert CALLS["comm_size"].oo_name == "Size"
        assert CALLS["comm_group"].oo_name == "Group"
        assert CALLS["group_rank"].oo_name == "Group.Rank"
        assert CALLS["isend"].oo_name == "Isend"

    def test_every_name_is_a_member_of_the_binding_and_unique(self):
        """A bare name is a member of some class ``repro.mpijava``
        exports (or the export itself); a qualified one resolves as
        written.  Two rows never report the same name."""
        import repro.mpijava as oo
        classes = [getattr(oo, n) for n in oo.__all__
                   if isinstance(getattr(oo, n), type)]
        for call in CALLS.values():
            owner, _, member = call.oo_name.rpartition(".")
            if owner:
                assert hasattr(getattr(oo, owner), member), call.oo_name
            else:
                assert hasattr(oo, member) or any(
                    hasattr(cls, member) for cls in classes), call.oo_name
        names = [call.oo_name for call in CALLS.values()]
        assert len(set(names)) == len(names)

    def test_names_are_cached(self):
        assert CALLS["send"].oo_name is CALLS["send"].oo_name


class TestAttachDetach:
    def test_attach_rejects_non_profilers(self):
        with pytest.raises(TypeError):
            MPI.attach_profiler(object())

    def test_attach_is_idempotent_and_detach_unknown_is_noop(self):
        p = CountingProfiler()
        MPI.attach_profiler(p)
        MPI.attach_profiler(p)
        assert profiler._active.count(p) == 1
        MPI.detach_profiler(p)
        MPI.detach_profiler(p)
        assert p not in profiler._active

    def test_detached_profiler_sees_nothing(self):
        p = CountingProfiler()
        MPI.attach_profiler(p)
        MPI.detach_profiler(p)
        _run(1, lambda: MPI.COMM_WORLD.Rank())
        assert p.counts() == {}


class TestDispatch:
    def test_counting_profiler_tallies_by_name(self):
        p = MPI.attach_profiler(CountingProfiler())

        def body():
            world = MPI.COMM_WORLD
            world.Rank()
            buf = np.zeros(4, dtype=np.int32)
            world.Bcast(buf, 0, 4, MPI.INT, 0)

        _run(2, body)
        c = p.counts()
        assert c["Rank"] == 2
        assert c["Bcast"] == 2

    def test_stacking_order_outermost_is_last_attached(self):
        order = []

        class Tag(CommProfiler):
            def __init__(self, tag):
                self.tag = tag

            def intercept(self, comm, name, args, invoke):
                order.append(self.tag)
                return invoke()

        MPI.attach_profiler(Tag("inner"))
        MPI.attach_profiler(Tag("outer"))
        _run(1, lambda: MPI.COMM_WORLD.Rank())
        assert order == ["outer", "inner"]

    def test_profiler_sees_comm_name_and_args(self):
        seen = []

        class Spy(CommProfiler):
            def intercept(self, comm, name, args, invoke):
                seen.append((type(comm).__name__, name, len(args)))
                return invoke()

        MPI.attach_profiler(Spy())
        _run(1, lambda: MPI.COMM_WORLD.Rank())
        kinds, names, _ = zip(*seen)
        assert "Rank" in names
        assert all(k == "Intracomm" for k in kinds)

    def test_suppressing_invoke_suppresses_the_call(self):
        class Mute(CommProfiler):
            def intercept(self, comm, name, args, invoke):
                if name == "Rank":
                    return 42          # never calls invoke()
                return invoke()

        MPI.attach_profiler(Mute())
        assert _run(1, lambda: MPI.COMM_WORLD.Rank()) == [42]

    def test_profiler_exception_propagates_to_caller(self):
        class Boom(CommProfiler):
            def intercept(self, comm, name, args, invoke):
                raise RuntimeError("interposer died")

        MPI.attach_profiler(Boom())
        with pytest.raises(RankFailure) as ei:
            _run(1, lambda: MPI.COMM_WORLD.Rank())
        assert "interposer died" in str(ei.value)


class TestPcontrol:
    def test_levels_mute_unmute_reset(self):
        p = MPI.attach_profiler(CountingProfiler())
        _run(1, lambda: MPI.COMM_WORLD.Rank())
        assert p.counts()
        MPI.Pcontrol(0)
        assert p.muted
        before = p.counts()
        _run(1, lambda: MPI.COMM_WORLD.Rank())
        assert p.counts() == before     # muted: dispatch skips it
        MPI.Pcontrol(1)
        assert not p.muted
        MPI.Pcontrol(2)
        assert p.counts() == {}

    def test_unknown_levels_are_ignored(self):
        MPI.Pcontrol(7)     # implementation-defined: must not raise


class TestTracingProfiler:
    def test_spans_land_on_the_callers_lane(self):
        from repro.obs.trace import TRACE
        TRACE.reset()
        TRACE.enable()
        MPI.attach_profiler(TracingProfiler())
        try:
            _run(2, lambda: MPI.COMM_WORLD.Rank())
            snap = TRACE.snapshot(reset=True)
        finally:
            TRACE.disable()
            TRACE.reset()
        names = {e[3] for r in snap.values() for e in r["events"]}
        assert "mpi.Rank" in names
        assert set(snap) >= {0, 1}

    def test_without_tracing_it_is_transparent(self):
        MPI.attach_profiler(TracingProfiler())
        assert _run(1, lambda: MPI.COMM_WORLD.Rank()) == [0]
