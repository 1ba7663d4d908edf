"""repro — reproduction of *mpiJava: An Object-Oriented Java Interface to MPI*.

The package is layered exactly like the paper's Figure 4:

* :mod:`repro.mpijava` — the object-oriented API (the paper's contribution),
  a class hierarchy lifted from the MPI-2 C++ binding: ``MPI``, ``Comm``,
  ``Intracomm``, ``Intercomm``, ``Cartcomm``, ``Graphcomm``, ``Group``,
  ``Datatype``, ``Status``, ``Request``, ``Prequest``.
* :mod:`repro.jni` — the flat, procedural, handle-based "JNI C stub" layer.
  The OO layer reaches the runtime only through this layer, so the wrapper
  overhead the paper measures is a real, measurable quantity here too.
* :mod:`repro.runtime` — the "native MPI library": a complete MPI 1.1
  message-passing engine (matching, communication modes, collectives,
  groups, contexts, virtual topologies).
* :mod:`repro.transport` — shared-memory (SM) and socket (DM) transports,
  plus a calibrated cost-model transport used to regenerate the paper's
  published numbers.

Entry points:

>>> from repro import mpirun
>>> from repro.mpijava import MPI
>>> def main():
...     MPI.Init([])
...     me = MPI.COMM_WORLD.Rank()
...     MPI.Finalize()
...     return me
>>> sorted(mpirun(2, main))
[0, 1]
"""

from repro.version import __version__

__all__ = ["__version__", "mpirun", "MPIExecutor", "procrun",
           "ProcExecutor"]

#: the launchers, imported on first use (PEP 562): they pull in the
#: whole runtime, which ``python -m repro.config`` (runpy warns when the
#: package has already imported the module it is about to run) and a
#: process that only reads settings have no use for
_LAUNCHERS = {"mpirun": "repro.executor.runner",
              "MPIExecutor": "repro.executor.runner",
              "procrun": "repro.executor.procrunner",
              "ProcExecutor": "repro.executor.procrunner"}


def __getattr__(name):
    if name not in _LAUNCHERS:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(_LAUNCHERS[name]), name)
    globals()[name] = value
    return value
