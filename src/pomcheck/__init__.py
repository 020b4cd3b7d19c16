"""Truly concurrent (pre)bisimulation checking over finite
pomset-labelled processes.

Decides pomset, step, history-preserving and hereditary
history-preserving bisimulations, their divergence-sensitive
prebisimulation preorders, stratified approximants and finitary
preorders, with distinguishing-tree extraction, over finite pomset
synchronization trees compiled to prime event structures.
"""

from ._canon_py import BACKEND
from .equiv import RelationKind, Verdict, Witness, bisim
from .errors import (
    InternalInconsistencyError,
    ParseError,
    PomcheckError,
    StructuralError,
)
from .estructure import (
    ProcessState,
    PrimeEventStructure,
    compile_tree,
    compiled,
)
from .grammar import format_pomset, format_tree, parse, parse_pomset, parse_term
from .pomset import (
    LabelledPoset,
    Pomset,
    canonicalize,
    chain_of,
    singleton,
    step_of,
)
# NB: the `prebisim` function itself is reached via the submodule
# (pomcheck.prebisim.prebisim) to keep the module name unshadowed.
from .prebisim import (
    OMEGA,
    StratParams,
    fin_preorder,
    finitary_via_trees,
    kernel,
    level_approx,
    strat,
    strat_omega,
)
from .synctree import NIL, SyncTree, prefix
from .testgen import (
    characteristic_tree,
    distinguishing_tree,
    enumerate_trees,
    random_tree,
)

__version__ = "0.1.0"
