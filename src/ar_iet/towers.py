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
intervals respectively.  They are not built: `level_component_counts`
counts, column by column, the member right ends that meet another member's
left end, and keeps only the counts.

Towers live on the lattice (1/D)Z of the stage-0 map, which holds the
stage-k pieces of its chain.  A nine-letter tower is one walk of its base
(`Lattice.walk`) and holds the base width and one integer left end per
level.  The checks read those integers and the right-end column built from
them once; base and levels are views of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, permutations
from operator import eq

from .errors import OutOfDomain
from .iet import Ar9Map, Interval, Lattice, OrderTag, _merge
from .induction import StageChain
from .words import A3_MEMBERS, A9, letter_height


@dataclass(frozen=True)
class Tower:
    """A nine-letter tower: the level sets T^j(base), j < height, of one
    stage piece, each held as its integer left end on (1/D)Z; every level is
    `width` long."""

    D: int
    width: int
    lefts: tuple[int, ...]  # by level
    word: str  # the letters read along the levels

    @property
    def height(self) -> int:
        return len(self.lefts)

    @cached_property
    def rights(self) -> tuple[int, ...]:
        """The integer right end of each level."""
        return tuple(map(self.width.__add__, self.lefts))

    @cached_property
    def base(self) -> Interval:
        left = self.lefts[0]
        return Interval(Fraction(left, self.D), Fraction(left + self.width, self.D))

    @cached_property
    def levels(self) -> tuple[Interval, ...]:
        D, width = self.D, self.width
        return tuple(Interval(Fraction(left, D), Fraction(left + width, D))
                     for left in self.lefts)


@dataclass(frozen=True)
class TowerFamily:
    """The nine towers of one stage."""

    stage: int
    order: OrderTag
    nine: dict[str, Tower]
    base_map: Ar9Map  # the stage-0 map whose powers build the levels


def towers_at_stage(chain: StageChain, k: int) -> TowerFamily:
    """Build the stage-k towers of the chain by pushing the stage-k pieces
    under T, to the chain's heights; the chain must hold stage k induced
    (k = 0 uses the original pieces and height-1 towers).
    """
    m0, stages = chain.m0, chain.stages
    if not 0 <= k <= len(stages):
        raise ValueError(f"stage {k} outside the computed range 0..{len(stages)}")
    stage_map = m0 if k == 0 else stages[k - 1].map
    lat = m0.lattice  # the stage map's, as every stage's of the chain
    bases = stage_map.lattice.by_label()
    nine: dict[str, Tower] = {}
    for ch in A9:
        left, right, _ = bases[ch]
        try:
            letters, lefts = lat.walk(left, right, letter_height(ch, chain.heights[k]))
        except RuntimeError as e:
            raise RuntimeError(f"level {e.level} of tower {ch}: {e}") from None
        nine[ch] = Tower(lat.D, right - left, tuple(lefts), "".join(letters))
    if uneven := _uneven(nine):
        raise RuntimeError(uneven)
    return TowerFamily(k, stage_map.order, nine, m0)


def _uneven(nine: dict[str, Tower]) -> str | None:
    """What is wrong when the member towers of a three-letter tower differ in
    height; None when no two do."""
    for members in A3_MEMBERS.values():
        if len({nine[ch].height for ch in members}) > 1:
            return f"towers {', '.join(members)} differ in height"
    return None


def _lattice(f: TowerFamily) -> Lattice:
    """The base map's lattice, refined to the one every level is held on."""
    lat = f.base_map.lattice.refined(f.nine["1"].D)
    if any(t.D != lat.D for t in f.nine.values()):
        raise ValueError("tower levels are held on different lattices")
    return lat


def _row_lattice(f: TowerFamily) -> Lattice:
    """`_lattice`, for the checks that read the member towers level by level:
    a row is one level of each member, so they must be of equal height."""
    lat = _lattice(f)
    if uneven := _uneven(f.nine):
        raise ValueError(uneven)
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
    towers = [f.nine[ch] for ch in A9]
    support = lat.union(A9)
    total = Fraction(sum(t.width * t.height for t in towers), lat.D)
    expected = Fraction(sum(r - l for l, r in support), lat.D)
    # Nonempty levels tile the support exactly when their indicators sum to
    # the support's: when the level left ends and the support's right ends
    # are, as a multiset, the level right ends and the support's left ends.
    # In a tiling neither side holds a value twice, so sets of full size
    # decide it in one hashing pass.
    size = len(support) + sum(t.height for t in towers)
    opened = set(chain((r for _, r in support), *(t.lefts for t in towers)))
    closed = set(chain((l for l, _ in support), *(t.rights for t in towers)))
    if all(t.width > 0 for t in towers) and len(opened) == len(closed) == size \
            and opened == closed:
        return PartitionReport(True, total, expected)
    # not a tiling, or some levels are empty: the sorted sweep decides and
    # names the first defect
    pieces = sorted((left, left + t.width) for t in towers for left in t.lefts)
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
    lat = _row_lattice(f)
    violations: list[str] = []
    for lo, hi in ADJACENT_PAIRS:
        t_lo, t_hi = f.nine[lo], f.nine[hi]
        on_left, on_right = (t_hi, t_lo) if reversed_ else (t_lo, t_hi)
        if all(map(eq, on_left.rights, on_right.lefts)):
            continue
        for j, (l_lo, l_hi) in enumerate(zip(t_lo.lefts, t_hi.lefts)):
            p_lo, p_hi = (l_lo, l_lo + t_lo.width), (l_hi, l_hi + t_hi.width)
            left, right = (p_hi, p_lo) if reversed_ else (p_lo, p_hi)
            if left[1] != right[0]:
                violations.append(
                    f"level {j} of towers {lo},{hi}: {lat.interval(*p_lo)} vs "
                    f"{lat.interval(*p_hi)} not adjacent with {lo} "
                    f"{'right' if reversed_ else 'left'}most"
                )
    return AdjacencyReport(not violations, tuple(violations))


def level_component_counts(f: TowerFamily) -> dict[str, int]:
    """Largest number of intervals in any level of each three-letter tower,
    the level-by-level union of the towers of its member letters.

    A union of n pairwise disjoint nonempty intervals has n components less
    one for each right end that is another member's left end, so each level
    is counted from the ordered member pairs (p, q) with rights_p == lefts_q,
    column by column, with no sort or merge.  The levels of a family that
    `towers_at_stage` builds are such intervals:

    - T is a bijection of the support: `_lay_out` tiles every block with the
      domain pieces and again with the image pieces;
    - the stage-k bases are disjoint and nonempty, being the stage map's
      laid-out pieces;
    - `Lattice.walk` has checked that every level lies in one piece, so T^j
      is a translation on each base.

    So level j of the members, the images of disjoint bases under the
    injective T^j, are disjoint intervals of width > 0.
    """
    _row_lattice(f)
    counts = {}
    for letter, members in A3_MEMBERS.items():
        towers = [f.nine[ch] for ch in members]
        touches = [map(eq, p.rights, q.lefts) for p, q in permutations(towers, 2)]
        counts[letter] = len(towers) - min(map(sum, zip(*touches)))
    return counts


def locate(f: TowerFamily, x: Fraction) -> tuple[str, int]:
    """The (tower letter, level index) pair containing a point."""
    lat = Lattice.sorted_from(_lattice(f).D, (
        (left, left + t.width, (ch, j), 0)
        for ch, t in f.nine.items() for j, left in enumerate(t.lefts)))
    i = lat.locate(x)
    if i is None:
        raise OutOfDomain(f"{x} lies in no tower level", point=str(x))
    return lat.letters[i]
