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
stage-k pieces of its chain.  A nine-letter tower holds the base width and
one integer left end per level.  Stage 0's towers are the pieces
themselves, one level each; a stage-k tower is laid out from the
stage-(k - 1) towers, one bisection and one shifted copy of a tower below
per segment of its base's orbit.  A segment that fits no single base below,
or a tower below taller than the levels left to lay, is a fault of the
chain and raises RuntimeError.  The checks read those integers and the
right-end column built from them once; base and levels are views of them.
Each family's lattice and member heights are validated once, on first
read, and held on the family, so the partition, adjacency and component
checks share one validation; the partition check reads the support of the
stage-0 map, held on that map for the whole chain.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
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
    """The nine towers of one stage.  Its lattice and whether its member
    towers are even are read once per family, on first use, and held on it:
    a family made by dataclasses.replace reads them afresh."""

    stage: int
    order: OrderTag
    nine: dict[str, Tower]
    base_map: Ar9Map  # the stage-0 map whose powers build the levels

    @cached_property
    def lattice(self) -> Lattice:
        """The base map's lattice, refined to the one every level is held on;
        ValueError when the towers are held on different lattices."""
        lat = self.base_map.lattice.refined(self.nine["1"].D)
        if any(t.D != lat.D for t in self.nine.values()):
            raise ValueError("tower levels are held on different lattices")
        return lat

    @cached_property
    def uneven(self) -> str | None:
        """What is wrong when the member towers of a three-letter tower
        differ in height; None when no two do."""
        for members in A3_MEMBERS.values():
            if len({len(self.nine[ch].lefts) for ch in members}) > 1:
                return f"towers {', '.join(members)} differ in height"
        return None


def tower_families(chain: StageChain, first: int, last: int) -> Iterator[TowerFamily]:
    """The tower families of stages first..last of the chain, in order; the
    chain must hold stage last induced.  Every stage from 0 is built, each
    from the family below it, which is then dropped: at most the family
    below and the one being built are held at once.
    """
    for k in (first, last):
        if not 0 <= k <= len(chain.stages):
            raise ValueError(f"stage {k} outside the computed range 0..{len(chain.stages)}")
    if first > last:
        raise ValueError(f"first stage {first} past last stage {last}")
    family = None
    for k in range(last + 1):
        family = _family(chain, k, family)
        if k >= first:
            yield family


def _family(chain: StageChain, k: int, below: TowerFamily | None) -> TowerFamily:
    """The stage-k towers of the chain, laid out from below, the stage-(k - 1)
    family (None at stage 0, whose towers are the pieces, one level each):
    Kakutani's skyscraper over the towers below.

    From a base [x, x + W), one bisection finds the base below that holds
    the segment; that tower's levels, shifted by x less its base's left end,
    and its word are appended, and x moves by its T^h (its last level's left
    end, plus the stage-0 offset of its last letter, less its base's left
    end).  A segment that fits no single base below, or whose tower below
    is taller than the levels left to lay, raises RuntimeError naming the
    stage, the tower, the level and the segment, and so do member towers
    of unequal height.
    """
    m0 = chain.m0
    lat = m0.lattice  # the stage maps', as every stage of the chain is on it
    stage_map = m0 if k == 0 else chain.stages[k - 1].map
    bases = stage_map.lattice.by_label()
    if below is None:
        nine = {ch: Tower(lat.D, right - left, (left,), ch)
                for ch in A9 for left, right, _ in [bases[ch]]}
        return TowerFamily(k, stage_map.order, nine, m0)
    lookup = (m0 if k == 1 else chain.stages[k - 2].map).lattice
    starts, ends = lookup.lefts, lookup.rights
    # per base below, in lookup order: its tower's levels, base left end,
    # height, word and T^h shift
    offset = dict(zip(lat.letters, lat.offsets))
    columns = [(t.lefts, t.lefts[0], len(t.lefts), t.word,
                t.lefts[-1] + offset[t.word[-1]] - t.lefts[0])
               for t in map(below.nine.__getitem__, lookup.letters)]
    hv = chain.heights[k]
    nine: dict[str, Tower] = {}
    for ch in A9:
        left, right, _ = bases[ch]
        width, height = right - left, letter_height(ch, hv)
        lefts: list[int] = []
        words: list[str] = []
        x, laid = left, 0
        while laid < height:
            i = bisect_right(starts, x) - 1
            if i < 0 or not x < ends[i] >= x + width:
                why = f"fits no single stage-{k - 1} tower"
                break
            levels, first, tall, word, jump = columns[i]
            if tall > height - laid:
                why = (f"starts stage-{k - 1} tower {lookup.letters[i]}, {tall} levels "
                       f"tall, with {height - laid} left to lay")
                break
            lefts.extend(map((x - first).__add__, levels))
            words.append(word)
            laid += tall
            x += jump
        else:  # every level laid
            nine[ch] = Tower(lat.D, width, tuple(lefts), "".join(words))
            continue
        raise RuntimeError(
            f"level {laid} of stage-{k} tower {ch}: {lat.interval(x, x + width)} {why}")
    family = TowerFamily(k, stage_map.order, nine, m0)
    if family.uneven:
        raise RuntimeError(family.uneven)
    return family


def _row_lattice(f: TowerFamily) -> Lattice:
    """The family's lattice, for the checks that read the member towers
    level by level: a row is one level of each member, so they must be of
    equal height."""
    lat = f.lattice
    if f.uneven:
        raise ValueError(f.uneven)
    return lat


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    total_length: Fraction
    expected_length: Fraction
    defect: str | None = None


def partition_check(f: TowerFamily) -> PartitionReport:
    """All levels of the nine towers tile the full space exactly."""
    lat = f.lattice
    towers = [f.nine[ch] for ch in A9]
    # the base map's support, which every family of a chain reads, on the
    # lattice of the levels
    scale = lat.D // f.base_map.lattice.D
    support = tuple((left * scale, right * scale) for left, right in f.base_map.support)
    expected = Fraction(sum(r - l for l, r in support), lat.D)
    # Nonempty levels tile the support exactly when their indicators sum to
    # the support's: when the level left ends and the support's right ends
    # are, as a multiset, the level right ends and the support's left ends.
    # In a tiling neither side holds a value twice, so sets of full size
    # decide it in one hashing pass, and the levels add up to the support.
    size = len(support) + sum(len(t.lefts) for t in towers)
    opened = set(chain((r for _, r in support), *(t.lefts for t in towers)))
    closed = set(chain((l for l, _ in support), *(t.rights for t in towers)))
    if all(t.width > 0 for t in towers) and len(opened) == len(closed) == size \
            and opened == closed:
        return PartitionReport(True, expected, expected)
    # not a tiling, or some levels are empty: the sorted sweep decides and
    # names the first defect
    total = Fraction(sum(t.width * len(t.lefts) for t in towers), lat.D)
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
    `tower_families` builds are such intervals:

    - T is a bijection of the support: `_lay_out` tiles every block with the
      domain pieces and again with the image pieces;
    - the stage-k bases are disjoint and nonempty, being the stage map's
      laid-out pieces;
    - every level lies in one piece, so T^j is a translation on each base:
      a stage-0 level is a piece itself, and a later level, laid out from
      the family below, lies inside a level of the tower below whose base
      holds the segment (T^j moves both by the same offsets), which lies in
      one piece by induction on the stage.

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
    lat = Lattice.sorted_from(f.lattice.D, (
        (left, left + t.width, (ch, j), 0)
        for ch, t in f.nine.items() for j, left in enumerate(t.lefts)))
    i = lat.locate(x)
    if i is None:
        raise OutOfDomain(f"{x} lies in no tower level", point=str(x))
    return lat.letters[i]
