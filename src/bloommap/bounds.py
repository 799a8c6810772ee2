"""Closed-form space floors and probe cost limits.

Any structure that answers key-value queries with a false positive rate
eps_plus, a misassignment rate eps_star, and a false negative rate
eps_minus needs a minimum number of bits per stored key.  The functions
here evaluate those floors (asymptotic form, vanishing per-key terms
dropped), plus the analytic probe cost limits of the tree traversal.
space_report() lines a concrete map up against them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .distribution import entropy
from .errors import InvalidEpsilon
from .plan import LOG2E, _check_epsilon

__all__ = [
    "BoundReport",
    "lb_false_positive_only",
    "lb_general",
    "lb_symmetric",
    "space_report",
    "standard_negative_probe_limit",
    "fast_negative_probe_limit",
    "fast_positive_probe_limit",
]

def _xlog2x(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log2(x)


def lb_false_positive_only(eps_plus: float, entropy_bits: float) -> float:
    """Bits per key any structure needs when only false positives (rate at
    most eps_plus) are tolerated: log2(1/eps_plus) + H."""
    if not (0.0 < eps_plus <= 1.0):
        raise InvalidEpsilon(f"false positive rate must lie in (0, 1], got {eps_plus!r}")
    if entropy_bits < 0.0:
        raise ValueError(f"negative entropy {entropy_bits!r}")
    return math.log2(1.0 / eps_plus) + entropy_bits


def lb_general(eps_plus: float, eps_star: float, eps_minus: float,
               entropy_bits: float) -> float:
    """Bits per key needed when false positives, misassignments, and false
    negatives are all allowed:

        (1 - e-) log2(1/e+) + (1 - e- - e*) H - H(e-, e*, 1 - e- - e*)

    with the ternary entropy using the 0 log 0 = 0 convention.  The
    closed form is a good guide for small rates; a warning fires when any
    rate exceeds 1/8.  With eps_star = eps_minus = 0 this reduces exactly
    to lb_false_positive_only.
    """
    if not (0.0 < eps_plus <= 1.0):
        raise InvalidEpsilon(f"false positive rate must lie in (0, 1], got {eps_plus!r}")
    for name, rate in (("misassignment", eps_star), ("false negative", eps_minus)):
        if not (0.0 <= rate < 1.0):
            raise InvalidEpsilon(f"{name} rate must lie in [0, 1), got {rate!r}")
    if eps_star + eps_minus >= 1.0:
        raise InvalidEpsilon(
            f"misassignment + false negative rates must stay below 1, "
            f"got {eps_star + eps_minus!r}"
        )
    if entropy_bits < 0.0:
        raise ValueError(f"negative entropy {entropy_bits!r}")
    if max(eps_plus, eps_star, eps_minus) > 0.125:
        warnings.warn(
            "error rates above 1/8 stretch the closed-form floor; treat the "
            "result as indicative only",
            stacklevel=2,
        )
    bulk = 1.0 - eps_minus - eps_star
    mix_entropy = -(_xlog2x(eps_minus) + _xlog2x(eps_star) + _xlog2x(bulk))
    return (
        (1.0 - eps_minus) * math.log2(1.0 / eps_plus)
        + bulk * entropy_bits
        - mix_entropy
    )


def lb_symmetric(eps: float, entropy_bits: float) -> float:
    """Relaxed floor for the common case of equal false positive and
    misassignment budgets and no false negatives:

        (1 - eps) (log2(1/eps) + H - log2(e) (eps + eps**2))

    This is lb_general(eps, eps, 0, H), which reduces to
    (1 - eps) (log2(1/eps) + H + log2(1 - eps)), with the log2(1 - eps)
    term relaxed through ln(1 - x) >= -(x + x**2) and the factor log2(e)
    that converts nats to bits.  It therefore never exceeds the exact form
    for eps up to the root of ln(1 - e) = -(e + e**2), about 0.684, which
    covers every budget of at most 1/8 that the closed forms are meant for.
    """
    _check_epsilon(eps)
    if entropy_bits < 0.0:
        raise ValueError(f"negative entropy {entropy_bits!r}")
    return (1.0 - eps) * (
        math.log2(1.0 / eps) + entropy_bits - LOG2E * (eps + eps * eps)
    )


# -- probe cost limits for the tree traversal -------------------------


def standard_negative_probe_limit(entropy_bits: float) -> float:
    """Expected probes for an absent key, standard scheme: at most H + 2
    (requires at least half the bit array zero)."""
    return entropy_bits + 2.0


def fast_negative_probe_limit() -> float:
    """Expected probes for an absent key, fast scheme: at most 3."""
    return 3.0


def fast_positive_probe_limit(b: int, value_index: int, p: float,
                              epsilon: float) -> float:
    """Expected probes when looking up a stored key of the given value
    (0-based index into the sorted distribution), fast scheme:

        3 log2(values at or right of the leaf) + 2 log2(1/p) + log2(1/eps) + 2

    The first term pays for detours into sibling subtrees entered before
    the true path; the rest is the true path itself.
    """
    remaining = b - value_index
    return (
        3.0 * math.log2(remaining)
        + 2.0 * math.log2(1.0 / p)
        + math.log2(1.0 / epsilon)
        + 2.0
    )


# -- report -----------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """A map's achieved space next to the analytic floors.

    All *_bpk values are bits per stored key.  ratio compares achieved
    space to the symmetric floor; values modestly above 1 are the price
    of hashing (log2(e)) and integer ceilings.  The floors drop vanishing
    per-key terms, as flagged by asymptotic_terms_omitted.
    """

    variant: str
    n: int
    m: int
    b: int
    epsilon: float
    entropy_bits: float
    achieved_bpk: float
    variant_bpk: float
    fp_only_lower_bpk: float
    general_lower_bpk: float
    symmetric_lower_bpk: float
    ratio: float
    asymptotic_terms_omitted: bool = True


def space_report(bmap) -> BoundReport:
    """Compare a frozen map's bits per key against the analytic floors.

    variant_bpk is log2(e) * sum_i p_i t_i over the path weights t_i of
    the map's own plan: its bits per key, before the ceiling on m, when
    its tallies follow the distribution exactly.
    """
    t = bmap.describe()["path_weights"]
    h = entropy(bmap.dist)
    eps = bmap.epsilon
    achieved = bmap.bits_per_key()
    symmetric = lb_symmetric(eps, h)
    return BoundReport(
        variant=bmap.variant,
        n=bmap.n,
        m=bmap.m,
        b=bmap.b,
        epsilon=eps,
        entropy_bits=h,
        achieved_bpk=achieved,
        variant_bpk=LOG2E * math.fsum(p * ti for p, ti in zip(bmap.dist.probs, t)),
        fp_only_lower_bpk=lb_false_positive_only(eps, h),
        general_lower_bpk=lb_general(eps, eps, 0.0, h),
        symmetric_lower_bpk=symmetric,
        ratio=achieved / symmetric if symmetric > 0 else math.inf,
    )
