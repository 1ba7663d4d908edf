"""``Datatype`` — basic and derived datatypes (paper §2.2).

Derived-type constructors are instance methods of the old type
(``MPI.INT.Vector(3, 2, 4)``), except ``Struct`` which combines several
types and is a static member.  Per the paper's documented restriction, all
types combined by ``Struct`` must share one base type, agreeing with the
element type of the buffer array; there is no ``MPI_BOTTOM``/``Address``.

Destruction is garbage-collected (no explicit ``Free`` needed) but a
``Free`` binding is provided for symmetry with C programs.
"""

from __future__ import annotations

from repro.jni import capi


class Datatype:
    """Opaque datatype handle with derived-type constructors."""

    __slots__ = ("_handle", "_name")

    def __init__(self, handle: int, name: str = "derived"):
        self._handle = handle
        self._name = name

    # -- derived-type constructors -----------------------------------------
    def Contiguous(self, count: int) -> "Datatype":
        """``count`` consecutive copies of this type."""
        return Datatype(capi.mpi_type_contiguous(count, self._handle))

    def Vector(self, count: int, blocklength: int, stride: int) \
            -> "Datatype":
        """``count`` blocks of ``blocklength``, starts ``stride`` apart
        (stride in units of this type's extent)."""
        return Datatype(capi.mpi_type_vector(count, blocklength, stride,
                                             self._handle))

    def Hvector(self, count: int, blocklength: int, stride_bytes: int) \
            -> "Datatype":
        """Like :meth:`Vector` with the stride in bytes."""
        return Datatype(capi.mpi_type_hvector(count, blocklength,
                                              stride_bytes, self._handle))

    def Indexed(self, blocklengths, displacements) -> "Datatype":
        """Blocks of varying length at displacements (in extents)."""
        return Datatype(capi.mpi_type_indexed(blocklengths, displacements,
                                              self._handle))

    def Hindexed(self, blocklengths, byte_displacements) -> "Datatype":
        """Like :meth:`Indexed` with byte displacements."""
        return Datatype(capi.mpi_type_hindexed(blocklengths,
                                               byte_displacements,
                                               self._handle))

    @staticmethod
    def Struct(blocklengths, byte_displacements, types) -> "Datatype":
        """General structure type — restricted to a single base type
        across all members (paper §2.2)."""
        return Datatype(capi.mpi_type_struct(
            blocklengths, byte_displacements,
            [t._handle for t in types]))

    # -- lifecycle ---------------------------------------------------------
    def Commit(self) -> "Datatype":
        """Make the type usable in communication; returns self."""
        capi.mpi_type_commit(self._handle)
        return self

    def Free(self) -> None:
        capi.mpi_type_free(self._handle)

    # -- inquiry -------------------------------------------------------------
    def Extent(self) -> int:
        """Extent in bytes (``MPI_Type_extent``)."""
        return capi.mpi_type_extent(self._handle)

    def Size(self) -> int:
        """Bytes of data per item (``MPI_Type_size``)."""
        return capi.mpi_type_size(self._handle)

    def Lb(self) -> int:
        return capi.mpi_type_lb(self._handle)

    def Ub(self) -> int:
        return capi.mpi_type_ub(self._handle)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Datatype({self._name}, handle={self._handle})"
