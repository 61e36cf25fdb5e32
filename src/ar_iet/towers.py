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

A tower is held as integer pieces on the lattice (1/D)Z of the stage-0 map
refined to hold the stage-k pieces, and the checks read those integers;
its base and levels are Fraction views of them.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import OutOfDomain
from .iet import Ar9Map, Interval, Lattice, OrderTag, _merge
from .induction import InductionStage
from .words import A3_MEMBERS, A9, heights_by_matrix, letter_height

Pieces = tuple[Interval, ...]
IntPieces = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Tower:
    """One tower: the level sets T^j(base), j < height, each held as merged
    integer pieces on (1/D)Z."""

    label: str
    stage: int
    D: int
    pieces: tuple[IntPieces, ...]  # by level
    word: str | None = None  # nine-letter towers: letters read along levels

    @property
    def height(self) -> int:
        return len(self.pieces)

    def _view(self, level: IntPieces) -> Pieces:
        return tuple(Interval(Fraction(left, self.D), Fraction(right, self.D))
                     for left, right in level)

    @cached_property
    def base(self) -> Pieces:
        return self._view(self.pieces[0])

    @cached_property
    def levels(self) -> tuple[Pieces, ...]:
        return tuple(map(self._view, self.pieces))

    def measure(self) -> Fraction:
        return Fraction(sum(right - left for left, right in self.pieces[0]) * self.height,
                        self.D)


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
    bases = stage_map.lattice.refined(lat.D).by_label()
    nine: dict[str, Tower] = {}
    for ch in A9:
        height = letter_height(ch, hv)
        left, right, _ = bases[ch]
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
        nine[ch] = Tower(ch, k, lat.D, tuple(levels), "".join(letters))
    three: dict[str, Tower] = {}
    for letter, members in A3_MEMBERS.items():
        height = nine[members[0]].height
        if any(nine[ch].height != height for ch in members):
            raise RuntimeError(f"towers {', '.join(members)} differ in height")
        rows = zip(*(nine[ch].pieces for ch in members))
        three[letter] = Tower(letter, k, lat.D, tuple(
            _merge(p for level in row for p in level) for row in rows))
    return TowerFamily(k, stage_map.order, nine, three, m0)


def _lattice(f: TowerFamily) -> Lattice:
    """The base map's lattice, refined to the one every level is held on."""
    lat = f.base_map.lattice.refined(f.nine["1"].D)
    if any(t.D != lat.D for t in (*f.nine.values(), *f.three.values())):
        raise ValueError("tower levels are held on different lattices")
    return lat


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    total_length: Fraction
    expected_length: Fraction
    defect: str | None = None


def partition_check(f: TowerFamily) -> PartitionReport:
    """All levels of the nine towers tile the full space exactly."""
    lat = _lattice(f)
    pieces = sorted(p for ch in A9 for level in f.nine[ch].pieces for p in level)
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
    lat = _lattice(f)
    violations: list[str] = []
    for lo, hi in ADJACENT_PAIRS:
        for j, ((p_lo,), (p_hi,)) in enumerate(zip(f.nine[lo].pieces, f.nine[hi].pieces)):
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
    return {letter: max(map(len, t.pieces)) for letter, t in f.three.items()}


def locate(f: TowerFamily, x: Fraction) -> tuple[str, int]:
    """The (tower letter, level index) pair containing a point."""
    for ch in A9:
        # the level ends are integers, so floor(xD) lies in a level exactly
        # when xD does
        t = f.nine[ch]
        k = x.numerator * t.D // x.denominator
        for j, level in enumerate(t.pieces):
            if any(left <= k < right for left, right in level):
                return ch, j
    raise OutOfDomain(f"{x} lies in no tower level", point=str(x))
