"""The "JNI C stub" layer (the paper's Figure 4 middle box).

A flat, procedural, handle-based API in the image of the MPI C binding:
opaque integer handles index per-rank tables of runtime objects, and every
function is free-standing (``mpi_send(comm, buf, offset, count, datatype,
dest, tag)``).  The object-oriented :mod:`repro.mpijava` layer reaches the
runtime **only** through these stubs, so the benchmark's ``-C`` columns
(direct stub calls) versus ``-J`` columns (OO API) measure a real layering
difference, just as the paper's C-vs-Java columns do.  The surface is
stated once, in :mod:`repro.jni.spec`; :mod:`repro.jni.capi` compiles its
regular stubs from it.
"""
