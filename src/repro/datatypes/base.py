"""Datatype kernel.

A datatype in this reproduction is what the paper's Java binding makes it:
a *selection pattern over a one-dimensional array of one primitive type*.
Because Java (and our binding) forbids mixed-primitive buffers, a derived
type never needs a byte-level type map — it reduces to

* a primitive ``base`` (NumPy dtype + element size),
* ``disp`` — the element offsets (in base-element units) touched by one
  instance of the type, in serialization order, and
* ``extent_elems`` — the stride between consecutive instances when
  ``count > 1`` (MPI's *extent*, in elements).

The map compiles into the run-length layout IR
(:mod:`repro.datatypes.layout`), which owns every way elements move —
including the flat index map ``offset + i*extent + disp`` that
:meth:`DatatypeImpl.flat_indices` exposes as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MPIException, ERR_ARG, ERR_COUNT, ERR_TYPE
from repro.datatypes.layout import LayoutIR


@dataclass(frozen=True)
class PrimitiveInfo:
    """Descriptor of a primitive base type.

    ``is_object`` marks the ``MPI.OBJECT`` extension type whose buffers hold
    arbitrary serializable Python objects rather than numeric elements.
    """

    name: str
    np_dtype: object          # numpy dtype (None for OBJECT)
    itemsize: int             # bytes per element (0 for OBJECT)
    is_object: bool = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrimitiveInfo({self.name})"


class DatatypeImpl:
    """Internal (runtime-side) datatype object.

    The public :class:`repro.mpijava.datatype.Datatype` wraps a handle that
    resolves to one of these.  Instances are immutable after ``commit``.
    """

    def __init__(self, base: PrimitiveInfo, disp, extent_elems: int,
                 name: str = "", committed: bool = False,
                 is_pair: bool = False):
        self.base = base
        self.disp = np.ascontiguousarray(disp, dtype=np.int64)
        if self.disp.ndim != 1:
            raise MPIException(ERR_TYPE, "displacement map must be 1-D")
        self.extent_elems = int(extent_elems)
        self.name = name or "user"
        self.committed = bool(committed)
        self.freed = False
        #: pair types (INT2 &c.) are the only legal operands of MINLOC/MAXLOC
        self.is_pair = bool(is_pair)
        self._layout: LayoutIR | None = None   # run-length layout IR cache

    # -- inquiry (MPI_Type_size / extent / lb / ub) --------------------------
    @property
    def size_elems(self) -> int:
        """Number of base elements transferred per instance."""
        return int(self.disp.shape[0])

    def size_bytes(self) -> int:
        """``MPI_Type_size`` — bytes of actual data per instance."""
        return self.size_elems * self.base.itemsize

    def lb_elems(self) -> int:
        """Lower bound, in elements (``MPI_Type_lb`` / element units)."""
        return self.layout().span_lo

    def ub_elems(self) -> int:
        """Upper bound, in elements (``MPI_Type_ub`` / element units)."""
        return self.layout().span_hi

    def lb_bytes(self) -> int:
        return self.lb_elems() * self.base.itemsize

    def ub_bytes(self) -> int:
        return self.ub_elems() * self.base.itemsize

    def extent_bytes(self) -> int:
        """``MPI_Type_extent`` in bytes."""
        return self.extent_elems * self.base.itemsize

    @property
    def is_primitive(self) -> bool:
        return (self.size_elems == 1 and self.extent_elems == 1
                and (self.size_elems == 0 or int(self.disp[0]) == 0))

    def layout(self) -> LayoutIR:
        """The run-length layout IR (built once, cached; see
        :class:`~repro.datatypes.layout.LayoutIR`)."""
        lay = self._layout
        if lay is None:
            self._check_alive()   # a freed type must not rebuild its IR
            lay = self._layout = LayoutIR(self.disp, self.extent_elems,
                                          self.base.itemsize)
        return lay

    # -- lifecycle -----------------------------------------------------------
    def commit(self) -> None:
        """``MPI_Type_commit`` — mark usable for communication.

        Compiles the layout IR here, once: commit is MPI's declared
        "optimize this type now" point, and every datapath consumer
        (validation, copies, iovec construction, direct landing, segment
        math) reads the cached IR from then on.
        """
        self._check_alive()
        self.committed = True
        if not self.base.is_object:
            self.layout()

    def free(self) -> None:
        """``MPI_Type_free`` — release; further use is erroneous.

        Drops the layout IR and the index maps it caches: a freed type's
        compiled artifacts must not keep the (potentially large) arrays
        alive, and any stale handle reuse fails loudly instead of
        reading a cache.
        """
        self._check_alive()
        self.freed = True
        self._layout = None

    def _check_alive(self) -> None:
        if self.freed:
            raise MPIException(ERR_TYPE, f"datatype {self.name} was freed")

    # -- index map (inquiry; the reference the tests compare against) ---------
    def flat_indices(self, count: int, offset: int = 0) -> np.ndarray:
        """Flat element indices selected by ``count`` instances at
        ``offset`` (cached on the layout IR)."""
        if count < 0:
            raise MPIException(ERR_COUNT, f"negative count {count}")
        return self.layout().flat_indices(count, offset)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DatatypeImpl({self.name}, base={self.base.name}, "
                f"size={self.size_elems}, extent={self.extent_elems})")


def check_same_base(types, context: str) -> PrimitiveInfo:
    """Enforce the paper's §2.2 restriction: one base type per buffer.

    ``Datatype.Struct`` (and any composition) must combine types sharing a
    single primitive base, which must agree with the buffer's element type.
    """
    bases = {t.base.name for t in types}
    if len(bases) != 1:
        raise MPIException(
            ERR_TYPE,
            f"{context}: mpiJava restricts combined types to one base type "
            f"(got {sorted(bases)}); see paper section 2.2")
    return types[0].base


def check_byte_displacement(nbytes: int, base: PrimitiveInfo,
                            context: str) -> int:
    """Convert a byte displacement to elements, validating alignment.

    The pointer-free buffer model means byte displacements (``Hvector``,
    ``Hindexed``, ``Struct``) must land on element boundaries of the base
    type.
    """
    if base.itemsize == 0:
        raise MPIException(ERR_TYPE, f"{context}: byte displacements are "
                                     f"meaningless for MPI.OBJECT")
    q, r = divmod(int(nbytes), base.itemsize)
    if r != 0:
        raise MPIException(
            ERR_ARG,
            f"{context}: byte displacement {nbytes} is not a multiple of "
            f"the {base.name} element size {base.itemsize}")
    return q
