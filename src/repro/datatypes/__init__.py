"""Datatype machinery: primitive types, derived-type constructors, layout IR.

Mirrors the paper's §2 / §2.2 model: message buffers are one-dimensional
arrays of a single primitive type plus an explicit ``offset``; derived
datatypes describe contiguous, strided or indirectly indexed element
selections *within* such an array; ``Struct`` is restricted to a single base
type (the paper's documented limitation); and ``MPI.OBJECT`` implements the
paper's proposed serialization extension.
"""

from repro.datatypes.base import DatatypeImpl, PrimitiveInfo
from repro.datatypes.layout import LayoutIR
from repro.datatypes import primitives
from repro.datatypes.primitives import (
    BYTE, CHAR, SHORT, BOOLEAN, INT, LONG, FLOAT, DOUBLE, PACKED, OBJECT,
    SHORT2, INT2, LONG2, FLOAT2, DOUBLE2, BASIC_TYPES,
)
from repro.datatypes.derived import (
    contiguous, vector, hvector, indexed, hindexed, struct,
)

__all__ = [
    "DatatypeImpl", "PrimitiveInfo", "LayoutIR", "primitives",
    "BYTE", "CHAR", "SHORT", "BOOLEAN", "INT", "LONG", "FLOAT", "DOUBLE",
    "PACKED", "OBJECT", "SHORT2", "INT2", "LONG2", "FLOAT2", "DOUBLE2",
    "BASIC_TYPES",
    "contiguous", "vector", "hvector", "indexed", "hindexed", "struct",
]
