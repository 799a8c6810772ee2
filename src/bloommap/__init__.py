"""bloommap: succinct approximate maps from keys to a small value alphabet.

A generalization of the Bloom filter for key-value data: store n pairs
(key, value) where values follow a known distribution, in close to the
information-theoretic minimum number of bits.  Lookups of stored keys
always answer, never with "absent"; absent keys are reported absent
except with probability epsilon, and any wrong answer overstates the
value index with probability at most epsilon.

Two layouts share the same guarantees: a flat one (a block of hash
functions per value) and a tree one that routes each key along a path
shaped like an optimal alphabetic code for the value distribution, which
makes both space and probe counts track the distribution's entropy.
"""

from .bounds import (
    lb_false_positive_only,
    lb_general,
    lb_symmetric,
    space_report,
)
from .codetree import build_alphabetic_tree
from .core import (
    BitArray,
    BloomMap,
    QueryOutcome,
    build_simple,
    build_tree,
    plan_tree_map,
    zero_fraction,
)
from .distribution import (
    ValueDistribution,
    entropy,
    integer_counts,
    load_distribution,
    new_distribution,
    uniform_distribution,
)
from .errors import (
    BloomMapError,
    DuplicateKey,
    FormatError,
    FrozenError,
    InvalidDistribution,
    InvalidEpsilon,
    InvalidScheme,
    IoError,
    UnknownValue,
)
from .harness import measure
from .hashing import HashFamily
from .mapfile import load, save

__version__ = "0.1.0"

__all__ = [
    "BitArray",
    "BloomMap",
    "BloomMapError",
    "DuplicateKey",
    "FormatError",
    "FrozenError",
    "HashFamily",
    "InvalidDistribution",
    "InvalidEpsilon",
    "InvalidScheme",
    "IoError",
    "QueryOutcome",
    "UnknownValue",
    "ValueDistribution",
    "build_alphabetic_tree",
    "build_simple",
    "build_tree",
    "entropy",
    "integer_counts",
    "lb_false_positive_only",
    "lb_general",
    "lb_symmetric",
    "load",
    "load_distribution",
    "measure",
    "new_distribution",
    "plan_tree_map",
    "save",
    "space_report",
    "uniform_distribution",
    "zero_fraction",
]
