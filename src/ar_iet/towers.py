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
counts the member right ends that meet another member's left end, and
keeps only the counts.  Each class holds one adjacent pair (2|3, 5|6,
8|9); when the pair touches as whole columns every row has a touch, and
when row 0 then has exactly one, the class counts its members less one
without reading another row.  Any other class is counted column by column.

Every tower of a family lives on one lattice, (1/D)Z of the stage-0 map
(`base_map`), which holds every stage of its chain; a family on a finer
lattice is the family of a stage-0 map held on it.  A nine-letter tower
holds the base width and one integer left end per level, and the family
reads its bases and levels as intervals on that lattice.  Stage 0's towers
are the pieces themselves, one level each; a stage-k tower is laid out
from the stage-(k - 1) towers, one bisection and one shifted copy of a
tower below per segment of its base's orbit.  A segment that fits no
single base below, or a tower below taller than the levels left to lay, is
a fault of the chain and raises RuntimeError.  The checks read those
integers and the right-end column built with the tower, and `locate`
finds the level that holds a point's cell on that lattice.  Whether the
member heights agree is read once per family, on first use, and held on
it, so the adjacency and component checks share one validation; the
partition check reads the support of the stage-0 map, held on that map
for the whole chain.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count, permutations
from operator import eq, ne

from .errors import OutOfDomain
from .iet import Ar9Map, Interval, OrderTag, _merge
from .induction import StageChain
from .words import A3_MEMBERS, A9, letter_height


@dataclass(frozen=True)
class Tower:
    """A nine-letter tower: the level sets T^j(base), j < height, of one
    stage piece, each held as its integer left end on the lattice of the
    family's base map, with its right end; every level is `width` long."""

    width: int
    lefts: tuple[int, ...]  # by level
    word: str  # the letters read along the levels
    rights: tuple[int, ...] = field(init=False, repr=False, compare=False)  # by level

    def __post_init__(self):
        object.__setattr__(self, "rights", tuple(map(self.width.__add__, self.lefts)))

    @property
    def height(self) -> int:
        return len(self.lefts)


@dataclass(frozen=True)
class TowerFamily:
    """The nine towers of one stage, every level held on the lattice of
    base_map, which base(ch) and levels(ch) read as intervals.  Whether its
    member towers are even is read once per family, on first use, and held
    on it: a family made by dataclasses.replace reads it afresh."""

    stage: int
    order: OrderTag
    nine: dict[str, Tower]
    base_map: Ar9Map  # the stage-0 map whose powers build the levels

    def base(self, ch: str) -> Interval:
        t = self.nine[ch]
        return self.base_map.lattice.interval(t.lefts[0], t.lefts[0] + t.width)

    def levels(self, ch: str) -> tuple[Interval, ...]:
        t, lat = self.nine[ch], self.base_map.lattice
        return tuple(lat.interval(left, left + t.width) for left in t.lefts)

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
        nine = {ch: Tower(right - left, (left,), ch)
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
            nine[ch] = Tower(width, tuple(lefts), "".join(words))
            continue
        raise RuntimeError(
            f"level {laid} of stage-{k} tower {ch}: {lat.interval(x, x + width)} {why}")
    family = TowerFamily(k, stage_map.order, nine, m0)
    if family.uneven:
        raise RuntimeError(family.uneven)
    return family


def _even(f: TowerFamily) -> None:
    """The guard of the checks that read the member towers level by level:
    a row is one level of each member, so they must be of equal height."""
    if f.uneven:
        raise ValueError(f.uneven)


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    total_length: Fraction
    expected_length: Fraction
    defect: str | None = None


def partition_check(f: TowerFamily) -> PartitionReport:
    """All levels of the nine towers tile the full space exactly."""
    lat, support = f.base_map.lattice, f.base_map.support
    towers = [f.nine[ch] for ch in A9]
    expected = Fraction(sum(r - l for l, r in support), lat.D)
    # Nonempty levels tile the support exactly when their indicators sum to
    # the support's: when the level left ends and the support's right ends
    # are, as a multiset, the level right ends and the support's left ends.
    # In a tiling neither side holds a value twice, so one set decides it:
    # the first side's size values, all distinct, are cleared by the
    # second side's size values exactly when they are those values, each
    # once; the levels then add up to the support.
    size = len(support) + sum(len(t.lefts) for t in towers)
    opened = set(chain((r for _, r in support), *(t.lefts for t in towers)))
    if all(t.width > 0 for t in towers) and len(opened) == size:
        opened.difference_update(chain((l for l, _ in support), *(t.rights for t in towers)))
        if not opened:
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
    _even(f)
    reversed_, lat = f.order.reversed, f.base_map.lattice
    violations: list[str] = []
    for lo, hi in ADJACENT_PAIRS:
        t_lo, t_hi = f.nine[lo], f.nine[hi]
        on_left, on_right = (t_hi, t_lo) if reversed_ else (t_lo, t_hi)
        if on_left.rights == on_right.lefts:
            continue
        for j in compress(count(), map(ne, on_left.rights, on_right.lefts)):
            l_lo, l_hi = t_lo.lefts[j], t_hi.lefts[j]
            violations.append(
                f"level {j} of towers {lo},{hi}: {lat.interval(l_lo, l_lo + t_lo.width)} vs "
                f"{lat.interval(l_hi, l_hi + t_hi.width)} not adjacent with {lo} "
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

    Each class holds one pair of ADJACENT_PAIRS, and the least touch count
    is settled from it when it can be: if one tower of the pair has right
    ends equal to the other's left ends as whole columns, every row has a
    touch; if row 0 then has exactly one, the least count is 1 and the
    answer is the member count less one.  Any other class, one with no
    rows among them, is counted column by column.
    """
    _even(f)
    counts = {}
    for letter, members in A3_MEMBERS.items():
        towers = [f.nine[ch] for ch in members]
        t_lo, t_hi = (f.nine[ch] for pair in ADJACENT_PAIRS if pair[0] in members for ch in pair)
        if towers[0].lefts and (t_lo.rights == t_hi.lefts or t_hi.rights == t_lo.lefts) \
                and sum(p.rights[0] == q.lefts[0] for p, q in permutations(towers, 2)) == 1:
            counts[letter] = len(towers) - 1
            continue
        touches = [map(eq, p.rights, q.lefts) for p, q in permutations(towers, 2)]
        counts[letter] = len(towers) - min(map(sum, zip(*touches)))
    return counts


def locate(f: TowerFamily, x: Fraction) -> tuple[str, int]:
    """The (tower letter, level index) pair containing a point: the level
    that holds its cell on the base map's lattice."""
    k = f.base_map.lattice.cell(x)
    found = next(((ch, j) for ch, t in f.nine.items()
                  for j, left in enumerate(t.lefts) if 0 <= k - left < t.width), None)
    if found is None:
        raise OutOfDomain(f"{x} lies in no tower level", point=str(x))
    return found
