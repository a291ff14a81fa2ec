"""Exact computational algebra for Burnside rings of finite groups.

Library layout: permutation groups (perm, permgroup), table of marks
(marks), ghost subrings and congruence data (bring), mod-p blocks (modp),
minimal resolutions (resolution), integral Ext/Tor reports (exttor) with
a Smith-form oracle (oracle), and a CLI (cli) with a marks cache (cache).
"""

from .perm import Permutation
from .permgroup import (PermGroup, Subgroup, SubgroupClassTable, coset_action,
                        enumerate_elements, normalizer, o_p, subgroup_classes)
from .marks import BurnsideElement, MarksTable, decompose, ghost, multiply, table_of_marks
from .bring import BRing, congruence_d, from_marks, p_classes, separators
from .modp import ModPAlgebra, LocalBlock, blocks, build_modp, radical
from .resolution import (MinimalResolution, betti_growth_certificate,
                         betti_sequence, ext_dims_pair, tor_dims_pair)
from .exttor import (ExtTorContext, ext_ranks, ext_report, hom_base,
                     tensor_base, tor_ranks, tor_report, verify_squarefree)
from .oracle import oracle_ext, oracle_tor

__version__ = "0.1.0"
