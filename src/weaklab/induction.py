"""Proxy-driven induction and the exact generalisation probabilities.

All probabilities are exact rationals; in the formula paths the denominator
is a power of two by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NoModelError, TaskPreconditionError
from .lattice import Language, Statement
from .tasks import VTask

WEAKNESS = "weakness"
INVERSE_DESCRIPTION_LENGTH = "inverse-description-length"


def induce(task: VTask, kind: str) -> Statement:
    """Return the proxy-maximal model of the task: the weakest model for
    ``weakness``, the shortest for ``mdl`` (alias
    ``inverse-description-length``).

    Ties are broken by the global statement order (size, then lexicographic
    on indices): the earliest maximal model wins.
    """
    if kind not in (WEAKNESS, "mdl", INVERSE_DESCRIPTION_LENGTH):
        raise ValueError(f"unknown proxy kind {kind!r}")
    ms = task.models()
    if not ms:
        raise NoModelError("model set empty")
    # max and min both return the first extremal item
    if kind == WEAKNESS:
        return max(ms, key=task.lang.weakness)
    return min(ms, key=len)


def generalisation_probability(task: VTask, h: Statement) -> Fraction:
    """Probability that a model of the task generalises to an unknown strict
    parent: 2^|Z̄_S ∩ Z_h| / 2^|Z̄_S|, with Z̄_S the statements outside the
    reach of the situations."""
    if not task.is_model(h):
        raise TaskPreconditionError(f"{h!r} is not a model of the task")
    lang = task.lang
    inside_h = (lang.extension_mask(h) & ~task.reach).bit_count()
    return Fraction(1 << inside_h, 1 << (lang.size - task.reach.bit_count()))


def prior(lang: Language, h: Statement) -> Fraction:
    """Probability assigned to a statement by the weakness prior:
    2^|Z_h| / 2^|L|."""
    return Fraction(1 << lang.weakness(h), 1 << lang.size)


@dataclass(frozen=True)
class ExclusiveFamily:
    """A pairwise mutually exclusive family anchored at one statement, with
    the exact sum of its members' priors."""

    anchor: Statement
    members: tuple[Statement, ...]
    total: Fraction


def exclusive_family_sum(lang: Language, x: Statement) -> ExclusiveFamily:
    """Greedily extend {x} to a maximal pairwise mutually exclusive family
    (scanning in global order) and report the exact sum of priors.

    Reporting only: maximal families are not unique and observed totals can
    differ from 1; nothing is asserted here.
    """
    family = 1 << lang.position(x)
    # members containing some member of the family, x itself included
    above = lang.extension_mask(x)
    for i, s in enumerate(lang.statements):
        ext = lang.extension_mask(s)
        # s is exclusive with the family iff it contains no member of it
        # and no member contains s
        if not above >> i & 1 and not ext & family:
            family |= 1 << i
            above |= ext
    members = lang.statements_of(family)
    total = sum((prior(lang, f) for f in members), Fraction(0))
    return ExclusiveFamily(x, members, total)
