"""Rokhlin towers over the nine-piece exchange.

At stage k the nine induced pieces I_{i,k} serve as tower bases; tower i has
height equal to the length of the stage-k word of letter i, and its levels
are the forward images of the base under the original (stage-0) map T.  Each
level travels as a single interval: pushing an interval that straddled a
discontinuity would be a construction fault and raises immediately.  The
letters read along the levels spell out the stage-k word itself, which ties
the geometric towers back to the substitutive words.

Grouping bases by projected letter (1-4 -> a, 5-7 -> b, 8-9 -> c) gives
three coarser towers whose levels are unions of at most three, two, and one
intervals respectively.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import OutOfDomain
from .iet import Ar9Map, Interval, Lattice, OrderTag, _merge
from .induction import InductionStage
from .words import A3_MEMBERS, A9, heights_by_matrix, letter_height

Pieces = tuple[Interval, ...]
IntPieces = tuple[tuple[int, int], ...]


class LatticeLevels(Sequence):
    """Tower levels held as integer pieces on the lattice (1/D)Z.

    Reading a level gives its Fraction intervals; the checks below take the
    integers as they are.
    """

    __slots__ = ("D", "ints")

    def __init__(self, D: int, ints: tuple[IntPieces, ...]):
        self.D = D
        self.ints = ints

    def __len__(self) -> int:
        return len(self.ints)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return LatticeLevels(self.D, self.ints[j])
        D = self.D
        return tuple(Interval(Fraction(l, D), Fraction(r, D)) for l, r in self.ints[j])

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, LatticeLevels)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Tower:
    """One tower: base, integer height, and the level sets T^j(base)."""

    label: str
    stage: int
    base: Pieces
    height: int
    levels: Sequence[Pieces]
    word: str | None = None  # nine-letter towers: letters read along levels

    def measure(self) -> Fraction:
        return sum((p.length for p in self.base), Fraction(0)) * self.height


@dataclass(frozen=True)
class TowerFamily:
    """All towers of one stage: nine fine ones plus the three projected ones."""

    stage: int
    order: OrderTag
    nine: dict[str, Tower]
    three: dict[str, Tower]
    base_map: Ar9Map  # the stage-0 map whose powers build the levels


def towers_at_stage(
    m0: Ar9Map, stages: Sequence[InductionStage], k: int
) -> TowerFamily:
    """Build the stage-k towers by pushing the stage-k pieces under T.

    stages come from iterate_induction(m0, K) with K >= k; k = 0 uses the
    original pieces and height-1 towers.
    """
    if not 0 <= k <= len(stages):
        raise ValueError(f"stage {k} outside the computed range 0..{len(stages)}")
    stage_map = m0 if k == 0 else stages[k - 1].map
    prefix = tuple(s.case for s in stages[:k])
    hv = heights_by_matrix(prefix)[-1]
    lat = m0.lattice.refined(stage_map.lattice.D)
    push = lat.push
    nine: dict[str, Tower] = {}
    for ch in A9:
        height = letter_height(ch, hv)
        base = stage_map.domain[ch]
        left, right = lat.coordinate(base.left), lat.coordinate(base.right)
        levels = []
        letters = []
        try:
            for j in range(height):
                here, offset = push(left, right)
                levels.append(((left, right),))
                letters.append(here)
                left += offset
                right += offset
        except RuntimeError as e:
            raise RuntimeError(f"level {j} of tower {ch}: {e}") from None
        nine[ch] = Tower(ch, k, (base,), height, LatticeLevels(lat.D, tuple(levels)),
                         "".join(letters))
    three: dict[str, Tower] = {}
    for letter, members in A3_MEMBERS.items():
        height = nine[members[0]].height
        if any(nine[ch].height != height for ch in members):
            raise RuntimeError(f"towers {', '.join(members)} differ in height")
        rows = zip(*(nine[ch].levels.ints for ch in members))
        levels = LatticeLevels(
            lat.D, tuple(_merge(p for level in row for p in level) for row in rows)
        )
        three[letter] = Tower(letter, k, levels[0], height, levels)
    return TowerFamily(k, stage_map.order, nine, three, m0)


def _on_lattice(f: TowerFamily) -> tuple[Lattice, dict[str, Sequence[IntPieces]]]:
    """The levels the family holds, as integer pieces on one lattice.

    The base map's lattice is refined until it holds every level.  Levels
    built by towers_at_stage on that lattice pass through as they are; any
    other sequence of Interval levels is rescaled once.
    """
    towers = {**f.nine, **f.three}
    D = math.lcm(*(
        t.levels.D if isinstance(t.levels, LatticeLevels)
        else math.lcm(*(v.denominator for level in t.levels for p in level for v in p))
        for t in towers.values()
    ))
    lat = f.base_map.lattice.refined(D)
    columns = {}
    for label, t in towers.items():
        if isinstance(t.levels, LatticeLevels) and t.levels.D == lat.D:
            columns[label] = t.levels.ints
        else:
            columns[label] = tuple(
                tuple((lat.coordinate(p.left), lat.coordinate(p.right)) for p in level)
                for level in t.levels
            )
    return lat, columns


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    total_length: Fraction
    expected_length: Fraction
    defect: str | None = None


def partition_check(f: TowerFamily) -> PartitionReport:
    """All levels of the nine towers tile the full space exactly."""
    lat, columns = _on_lattice(f)
    pieces = sorted(p for ch in A9 for level in columns[ch] for p in level)
    support = lat.union(A9)
    total = Fraction(sum(r - l for l, r in pieces), lat.D)
    expected = Fraction(sum(r - l for l, r in support), lat.D)
    for prev, nxt in zip(pieces, pieces[1:]):
        if nxt[0] < prev[1]:
            return PartitionReport(
                False, total, expected,
                f"levels {lat.interval(*prev)} and {lat.interval(*nxt)} overlap")
    if _merge(pieces) != support:
        return PartitionReport(False, total, expected,
                               "union of levels differs from the space")
    return PartitionReport(True, total, expected)


@dataclass(frozen=True)
class AdjacencyReport:
    ok: bool
    violations: tuple[str, ...] = ()


ADJACENT_PAIRS = (("2", "3"), ("5", "6"), ("8", "9"))


def adjacency_check(f: TowerFamily) -> AdjacencyReport:
    """Levels of towers 2|3, 5|6, 8|9 at equal height are adjacent, with
    2, 5, 8 on the left exactly when the stage order is not reversed."""
    reversed_ = f.order.reversed
    lat, columns = _on_lattice(f)
    violations: list[str] = []
    for lo, hi in ADJACENT_PAIRS:
        for j, ((p_lo,), (p_hi,)) in enumerate(zip(columns[lo], columns[hi])):
            left, right = (p_hi, p_lo) if reversed_ else (p_lo, p_hi)
            if left[1] != right[0]:
                violations.append(
                    f"level {j} of towers {lo},{hi}: {lat.interval(*p_lo)} vs "
                    f"{lat.interval(*p_hi)} not adjacent with {lo} "
                    f"{'right' if reversed_ else 'left'}most"
                )
    return AdjacencyReport(not violations, tuple(violations))


def level_component_counts(f: TowerFamily) -> dict[str, int]:
    """Largest number of intervals in any level of each projected tower."""
    _, columns = _on_lattice(f)
    return {letter: max(map(len, columns[letter])) for letter in f.three}


def locate(f: TowerFamily, x: Fraction) -> tuple[str, int]:
    """The (tower letter, level index) pair containing a point."""
    for ch in A9:
        for j, level in enumerate(f.nine[ch].levels):
            if any(p.contains(x) for p in level):
                return ch, j
    raise OutOfDomain(f"{x} lies in no tower level", point=str(x))
