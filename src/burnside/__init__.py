"""Exact computational algebra for Burnside rings of finite groups.

Library layout: permutation groups (perm, permgroup, with named groups and
cycle parsing in groups), table of marks (marks), ghost subrings and
congruence data (bring), mod-p blocks (modp), minimal resolutions
(resolution), integral Ext/Tor reports (exttor) with a Smith-form oracle
(oracle), exact linear algebra over F_p (fplinalg) and Z (intlinalg), the
error taxonomy (errors), and a CLI (cli) with a marks cache (cache).
"""

from .perm import Permutation
from .permgroup import (PermGroup, Subgroup, SubgroupClassTable,
                        enumerate_elements, normalizer, o_p, subgroup_classes)
from .marks import BurnsideElement, MarksTable, decompose, ghost, multiply, table_of_marks
from .bring import BRing, congruence_d, p_classes, separators
from .modp import ModPAlgebra, LocalBlock, blocks
from .resolution import (MinimalResolution, betti_growth_certificate,
                         betti_sequence, ext_dims_pair)
from .exttor import (ExtTorContext, ext_ranks, ext_report, hom_base,
                     tensor_base, tor_ranks, tor_report, verify_squarefree)
from .oracle import oracle_ext, oracle_tor

__version__ = "0.1.0"
