"""Exact graded G-module data for nilpotent-orbit coordinate rings.

The library computes, in exact integer arithmetic, the multiplicity of
each irreducible module L(lambda) in every graded piece of the functions
on the nilpotent cone and on the closure of the subregular nilpotent
orbit, together with the root system, partition function and weight
multiplicity machinery this requires.  Every alternating Weyl sum runs
over the terms of one pruned dot-orbit walk (``dot_terms``) and is summed
by one kernel (``PartitionTable.packed_sums``), which fills the partition
values of a whole batch of sums in one pass, so no computation
enumerates the Weyl group and all types through E_8 are reachable.
"""

__version__ = "0.1.0"

from .errors import (
    InadmissibleTypeError,
    InternalInconsistencyError,
    NilconeError,
    NonDominantWeightError,
    PositivityViolationError,
    StaleCacheError,
    WrongRootSystemError,
)
from .graded import (
    GradedCalculator,
    ModuleKind,
    Variety,
    a2_tilting_euler,
)
from .multiplicity import (
    WeightMultiplicities,
    freudenthal_mult,
    kostant_mult,
    weyl_dim,
)
from .partition import PartitionTable
from .rootsys import RootSystem, RootSystemId, build
from .weyl import (
    dot_terms,
    euler_induced,
    reflection_length_theta,
    shift_constant,
)

__all__ = [
    "GradedCalculator",
    "InadmissibleTypeError",
    "InternalInconsistencyError",
    "ModuleKind",
    "NilconeError",
    "NonDominantWeightError",
    "PartitionTable",
    "PositivityViolationError",
    "RootSystem",
    "RootSystemId",
    "StaleCacheError",
    "Variety",
    "WeightMultiplicities",
    "WrongRootSystemError",
    "a2_tilting_euler",
    "build",
    "dot_terms",
    "euler_induced",
    "freudenthal_mult",
    "kostant_mult",
    "reflection_length_theta",
    "shift_constant",
    "weyl_dim",
]
