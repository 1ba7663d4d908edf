"""Correctness tooling for the reproduction's own runtime.

Two prongs, mirroring the MUST/Umpire split in the MPI verification-tool
ecosystem:

* :mod:`repro.check.lint` — static AST analysis over ``src/repro``:
  a cross-module lock-order graph with deadlock-cycle detection,
  blocking-call-under-lock detection, ``TRACE.enabled`` fast-path guard
  verification and the shm ring's one-writer-per-counter discipline.
  Run it with ``python -m repro.check.lint src/repro``.

* :mod:`repro.check.sanitizer` — a runtime verification layer for user
  MPI programs (``REPRO_SANITIZE=1``): wait-for-graph deadlock
  detection across blocked ranks, send-buffer-mutation checksums,
  datatype signature checking, per-communicator collective consistency
  and a Finalize-time resource audit.

The sanitizer and the static protocol verifier
(:mod:`repro.check.verify`) read what an MPI call is — which argument is the root, which a
datatype handle, whether it is a collective and who it waits for — from
the one table of the surface, :mod:`repro.jni.spec`.
"""
