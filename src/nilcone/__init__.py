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
The graded multiplicities of weights lams are
``GradedCalculator(rs).profiles(lams, names)``, each name d (nilcone),
a (induced wall) or t (subregular), or ``series(name, lams)`` for one
name; varieties, module kinds and cohomological rows are the command
line's (``cli.PROFILE``, ``cli.KIND_ROWS``).  The Hilbert series of the
d or t ring is the one query off that kernel: it folds the few
low-degree partition values into the dominant chamber (``graded.fold``).
A weight multiplicity is ``WeightMultiplicities(rs, lam).at(mu)``, by
Freudenthal's recursion; ``kostant_mult`` gives the same number from the
kernel, as a check that shares no code with it.
"""

__version__ = "0.1.0"

from .errors import (
    InadmissibleTypeError,
    InternalInconsistencyError,
    NilconeError,
    NonDominantWeightError,
    PositivityViolationError,
    StaleCacheError,
)
from .graded import GradedCalculator
from .multiplicity import WeightMultiplicities, kostant_mult, weyl_dim
from .partition import PartitionTable
from .rootsys import RootSystem, RootSystemId, build
from .weyl import dot_terms, reflection_length_theta, shift_constant

__all__ = [
    "GradedCalculator",
    "InadmissibleTypeError",
    "InternalInconsistencyError",
    "NilconeError",
    "NonDominantWeightError",
    "PartitionTable",
    "PositivityViolationError",
    "RootSystem",
    "RootSystemId",
    "StaleCacheError",
    "WeightMultiplicities",
    "build",
    "dot_terms",
    "kostant_mult",
    "reflection_length_theta",
    "shift_constant",
    "weyl_dim",
]
