"""First-return renormalization of the nine-piece exchange.

Inducing T on J_a = I_1 u I_2 u I_3 u I_4 yields another nine-piece exchange
whose triple is exactly one renormalization step of the original triple, and
whose arrangement follows a fixed transition table in the branch taken
(case I, II, or III).  J_a splits into three spans that become the new
blocks: the span of I_1, the span of I_2 u I_3 (always the whole middle
block Omega'), and the span of I_4.

The stages of one stage-0 map form one chain (`StageChain`), the directive
sequence with its data held once: each triple is stepped once, as integers
on the stage-0 lattice (exact, since an Arnoux-Rauzy step only subtracts),
giving its case and the next class heights; a triple that leaves the gasket
is reported in its Fractions.  A stage is predicted from that step and the
table (one lookup) and laid out on the same stage-0 lattice, which holds
every stage, by the builder's integer routine from the parent's pieces,
read once for the block starts and the regions of J_a; its Fraction triple
is a view of its pieces, built only when read.  The map is checked by
honest interval iteration: each predicted piece is pushed forward under T,
once, until it first re-enters J_a, raising if it ever straddles a
discontinuity (so the piece travels as a block and the return time is
uniform on it).  The letters visited on the way spell out the nine-letter
substitution of the branch, which is how the symbolic and geometric
systems are glued together; the return times are their lengths.  A stage
that fails a check raises where it is found, naming its failed checks, so
every InductionStage is a checked one.  No image of that substitution is
longer than two letters, so every piece of a checked stage returns within
two steps; the search stops at RETURN_CAP.

A block of the directing sequence, k - 1 steps of case III closed by one
of I or II, is also taken as one checked stage (`block_stage`), from the
stage at the previous multiplicative time: laid out in closed form, and
checked by pushing each piece along the runs of its known return word, at
most three, with no search.  A run of one letter stays in its piece when
its first and last translates do, and its images, an arithmetic
progression, miss the new domain by floor division, so a block costs the
same whatever k is.  A block stage is a map, held on the same stage-0
lattice, not an InductionStage of a chain; a chain rooted at it continues
additively (`two_measure_experiment`).

The checked stages also code orbits.  Stage k is the first-return map of T
to its domain B_k, so a point of the stage-k piece of ch reads the stage-k
return word of ch under T and then lands at its stage-map image.  An orbit
that has landed in B_k is coded one return word per step of the stage-k
map instead of one letter per step of T (`orbit_route`).  Orbits that jump
through the same stages share one composition of their return words
(`orbit_routes`): the tower check codes the nine base orbits of a family
on one jump plan.  A point is read as its cell on the stage-0 lattice,
which holds every stage, and its orbit walks and jumps on that integer.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInGasket, ReturnTimeCapExceeded
from .gasket import Sym, Triple, ar_step
from .iet import (
    _ROLE_LETTERS, ORDER_TAGS, Ar9Map, Lattice, OrderTag, _lay_out, _outside, _scaled,
)
from .words import A3_MEMBERS, A9, _mult_factors_a9, _next_heights, sigma9

# The cost of one checked induction stage in steps of the walk under T: on
# the maps of the twelve 20,000-step orbits of the benchmark's orbit workload
# (seed 1), induce_step on a new chain took 0.029-0.035 ms and one step of
# Lattice.walk 0.23-0.25 us, ratios of 125 to 146 (CPython 3.11 on a shared
# 2-vCPU machine; BENCH_28.json, "stage_cost"; 195 to 227 in BENCH_21.json,
# 199 to 234 in BENCH_19.json, 267 to 296 in BENCH_16.json, 235 to 787 in
# BENCH_13.json).  Left at 500: retuning it changes which stages orbits jump
# through, a change of its own.
STAGE_COST = 500

# the letters of the pieces whose union J_a the map is induced on
J_A = A3_MEMBERS["a"]

_BASE_TRANSITION = {
    Sym.I: {"first": "third", "second": "first", "third": "second"},
    Sym.II: {"first": "second", "second": "first", "third": "third"},
    Sym.III: {"first": "first", "second": "second", "third": "third"},
}

# which new block each span of J_a becomes, per case:
# spans are (I_1 span, Omega' span, I_4 span); values are role indices
_SPAN_ROLES = {
    Sym.I: (2, 0, 1),
    Sym.II: (0, 2, 1),
    Sym.III: (0, 1, 2),
}


# the arrangement of the induced map, per parent arrangement and case; case
# II flips the orientation
_PREDICTED = {
    (tag, case): OrderTag(_BASE_TRANSITION[case][tag.base], tag.reversed != (case is Sym.II))
    for tag in ORDER_TAGS for case in Sym
}


# the checks of induce_step, in the order a failed stage names them
_CHECKS = ("lengths_ok", "endpoints_ok", "translations_ok", "words_ok")


# the most steps under T that the first-return search of an induction stage
# takes: a checked stage returns within 2, as no sigma9 image is longer than
# two letters (Arnoux & Rauzy, 1991), so a piece still out of J_a after 8
# steps is a fault, reported with this cap
RETURN_CAP = 8


def _land(
    lat: Lattice, regions, left: int, right: int, cap: int
) -> tuple[int, int, str]:
    """Push [left, right) under T until it first re-enters J_a, given as the
    (lefts, rights) of its merged regions: the landed interval and the word
    of letters visited before the return.  Raises RuntimeError if the
    interval ever straddles a discontinuity or returns only partially (so it
    is not a block of the induced partition), ReturnTimeCapExceeded past cap."""
    r_lefts, r_rights = regions
    p_lefts, p_rights, letters, offsets = lat.lefts, lat.rights, lat.letters, lat.offsets
    start = (left, right)
    word = ""
    for _ in range(cap):
        # push's lookup, inline; push itself raises where the interval is refused
        i = bisect_right(p_lefts, left) - 1
        if i < 0 or not left < p_rights[i] >= right:
            lat.push(left, right)
        word += letters[i]
        offset = offsets[i]
        left += offset
        right += offset
        # the regions are sorted and apart: the interval is inside the one
        # that holds its left end, or else must meet none of them
        i = bisect_right(r_lefts, left) - 1
        if i >= 0 and right <= r_rights[i]:
            return left, right, word
        if bisect_right(r_rights, left) < bisect_left(r_lefts, right):
            raise RuntimeError(
                f"interval {lat.interval(left, right)} returns to J_a only "
                f"partially after {list(word)}"
            )
    piece = lat.interval(*start)
    raise ReturnTimeCapExceeded(
        f"no return to J_a within {cap} steps for {piece}",
        piece=str(piece),
        cap=cap,
    )


@dataclass(frozen=True)
class InductionStage:
    """One renormalization step whose first returns passed every check of
    induce_step: its case, its map and the return word of each piece."""

    index: int
    case: Sym
    map: Ar9Map
    return_words: dict[str, str]

    @property
    def return_times(self) -> dict[str, int]:
        """letter -> first-return time, the length of its return word"""
        return {ch: len(word) for ch, word in self.return_words.items()}


class StageChain:
    """The induction chain of one stage-0 map m0, a value that a caller
    holds and extends.  Every stage map is laid out on m0's lattice, and
    stage k keeps its triple as integers on it (triples[k], stepped once by
    ar_step), the case of that step (cases[k - 1]), its class heights
    (heights[k]) and, once induced, its checked InductionStage
    (stages[k - 1]).  Triples and heights may run ahead of the induced
    stages; jump_stages prices stage k + 1 from stage k's and steps a
    triple only to advance to it.
    """

    def __init__(self, m0: Ar9Map):
        self.m0 = m0
        self.triples = [Triple(*_scaled(m0.lattice.D, m0.triple))]
        self.cases: list[Sym] = []
        self.heights = [(1, 1, 1)]
        self.stages: list[InductionStage] = []
        self.exited = False  # the last triple leaves the gasket

    def step(self) -> bool:
        """Step the last triple once; False from then on where it leaves the gasket."""
        if self.exited:
            return False
        try:
            t, case = ar_step(self.triples[-1])
        except NotInGasket:
            self.exited = True
            return False
        self.triples.append(t)
        self.cases.append(case)
        self.heights.append(_next_heights(self.heights[-1], case))
        return True


def _piece_lengths(abc: Triple) -> tuple[int, ...]:
    """The piece lengths of the table for the triple abc, in A9 order."""
    a, b, c = abc
    return (a - c, c, b, a - b, b, c, b - c, c, c)


def _next_map(m: Ar9Map, abc: Triple, case: Sym) -> Ar9Map:
    """The map one step of `case` below m, laid out on m's lattice from abc,
    its triple there as integers: the left ends of the three spans of J_a
    (I_1, the whole middle block I_2 u I_3, and I_4), read off m's pieces,
    are placed by the table, and the arrangement is checked against it."""
    lat = m.lattice
    lefts, at = lat.lefts, lat.letters.index
    spans = (lefts[at("1")], min(lefts[at("2")], lefts[at("3")]), lefts[at("4")])
    starts = [0] * 3
    for start, role in zip(spans, _SPAN_ROLES[case]):
        starts[role] = start
    predicted = _PREDICTED[m.order, case]
    induced = _lay_out(lat.D, abc, starts, predicted.reversed)
    if induced.order != predicted:
        raise RuntimeError(f"span arrangement {induced.order} disagrees with the "
                           f"transition table {predicted}")
    return induced


def induce_step(chain: StageChain, k: int) -> InductionStage:
    """Induce stage k of the chain on J_a of stage k - 1, from its stored
    step, and check that the result is the predicted nine-piece exchange:
    piece lengths, exact endpoints, translations, and return words.  The
    chain must hold stage k - 1, else ValueError.

    A triple that leaves the gasket raises NotInGasket in its Fractions.
    Each predicted piece is pushed under T once.  Every check runs on every
    piece; a stage that fails any raises RuntimeError naming the stage and
    its failed checks, so no stage is returned unchecked.
    """
    if not 1 <= k <= len(chain.stages) + 1:
        raise ValueError(f"stage {k} outside the inducible range 1..{len(chain.stages) + 1}")
    m = chain.stages[k - 2].map if k > 1 else chain.m0
    if k == len(chain.triples) and not chain.step():
        ar_step(m.triple)  # raises again, in the Fractions of the triple
    lat = m.lattice  # m0's, as every stage's
    abc, case = chain.triples[k], chain.cases[k - 1]
    induced = _next_map(m, abc, case)
    # the merged regions of J_a that the pieces return to
    regions = tuple(zip(*lat.union(J_A)))
    # the induced pieces are pushed under T in A9 order and compared with
    # what they land on as integers
    pieces = induced.lattice.by_label()
    words: dict[str, str] = {}
    lengths_ok = endpoints_ok = translations_ok = True
    for ch, expected in zip(A9, _piece_lengths(abc)):
        left, right, offset = pieces[ch]
        landed_left, landed_right, words[ch] = _land(lat, regions, left, right, RETURN_CAP)
        # the builder already refuses an image whose length differs from
        # its piece, so only the pieces are held against the table
        lengths_ok &= right - left == expected
        translations_ok &= landed_left - left == offset
        endpoints_ok &= landed_left - left == offset == landed_right - right
    checks = (lengths_ok, endpoints_ok, translations_ok, words == sigma9(case).table)
    if not all(checks):
        failed = ", ".join(name for name, ok in zip(_CHECKS, checks) if not ok)
        raise RuntimeError(f"induction stage {k} disagrees with the prediction: {failed}")
    return InductionStage(k, case, induced, words)


def iterate_induction(chain: StageChain, K: int) -> list[InductionStage]:
    """Stages 1..K of the chain, inducing (and so checking) those it does
    not hold yet; empty for K = 0, and a negative K raises ValueError.

    A triple that leaves the admissible region mid-way raises NotInGasket
    carrying the failing stage as at_step; a stage that disagrees with its
    prediction raises induce_step's RuntimeError, and none past it is held.
    """
    if K < 0:
        raise ValueError(f"stage count must be nonnegative, got {K}")
    stages = chain.stages
    for k in range(len(stages) + 1, K + 1):
        try:
            stages.append(induce_step(chain, k))
        except NotInGasket as e:
            e.detail["at_step"] = k
            raise
    return stages[:K]


def _meets(regions, x: int, offset: int, length: int, count: int) -> bool:
    """True when one of the intervals [x + j offset, x + j offset + length),
    j = 1..count, meets one of the merged regions [u, v); offset is nonzero.
    The j that meet [u, v) are those with u - length - x < j offset < v - x,
    a range of integers settled by floor division."""
    if offset < 0:  # mirror the line, so that the progression goes right
        x, offset, regions = -x - length, -offset, [(-v, -u) for u, v in regions]
    for u, v in regions:
        first, last = (u - length - x) // offset + 1, (v - x - 1) // offset
        if first <= last and first <= count and last >= 1:
            return True
    return False


def block_stage(m: Ar9Map, abc: Triple, k: int, rule: Sym, n: int) -> tuple[Ar9Map, Triple]:
    """The checked stage at multiplicative time m_n, one block below m, the
    checked stage at m_(n-1): its map, laid out on m's lattice, and its
    triple there as integers.  abc is m's triple on its lattice, and block n
    is k - 1 steps of case III closed by one step of rule.

    The layout takes O(1) steps.  The k - 1 steps of III take (a, b, c) to
    (a - (k-1)(b+c), b, c); they are all of case III exactly when the last
    one is, and they keep the arrangement, moving the start of Omega (of
    Omega'' when the map is reversed) by (k-1)(b+c).  The closing step is
    laid out by the transition table, as induce_step lays out a stage.

    The check takes O(runs) steps.  Each new piece is pushed under m along
    its return word, _mult_factors_a9(rule, k), at most 3 runs of one
    letter each.  A run of e copies of letter l stays in piece l exactly
    when its first and last translates do, as the piece is an interval; the
    images inside the run form an arithmetic progression of intervals, which
    must miss the new domain (_meets) but for the last image of the word,
    which must be the predicted image.  A failed check raises RuntimeError
    naming the block and the check, so no map is returned unchecked; a
    triple that leaves the gasket at the closing step raises NotInGasket in
    its Fractions.
    """
    a, b, c = abc
    D = m.lattice.D

    def fault(check: str) -> RuntimeError:
        return RuntimeError(f"block {n} (k = {k}, rule {rule}): {check}")

    a -= (k - 1) * (b + c)
    if not a > b:
        raise fault(f"the triple {Triple(*(Fraction(v, D) for v in abc))} does not "
                    f"take {k - 1} steps of case III")
    lefts = dict(zip(m.lattice.letters, m.lattice.lefts))
    starts = [min(lefts[ch] for ch in letters) for letters in _ROLE_LETTERS]
    starts[2 if m.order.reversed else 0] += (k - 1) * (b + c)
    m_run = _lay_out(D, Triple(a, b, c), starts, m.order.reversed)
    try:
        abc_new, case = ar_step(Triple(a, b, c))
    except NotInGasket:
        ar_step(Triple(Fraction(a, D), Fraction(b, D), Fraction(c, D)))  # raises, in Fractions
    if case is not rule:
        raise fault(f"the closing step is of case {case}")
    new = _next_map(m_run, abc_new, rule)
    pieces, regions = m.lattice.by_label(), new.support
    factors = _mult_factors_a9(rule, k)
    new_pieces = new.lattice.by_label()
    for ch, expected in zip(A9, _piece_lengths(abc_new)):
        left, right, offset = new_pieces[ch]
        length = right - left
        if length != expected:
            raise fault(f"piece {ch} has length {Fraction(length, D)}, "
                        f"not {Fraction(expected, D)}")
        runs = [(letter, e) for letter, e in factors[ch] if e]
        x = left
        for i, (letter, e) in enumerate(runs, 1):
            low, high, step = pieces[letter]
            if not step:  # no piece of a nine-piece exchange is fixed
                raise fault(f"piece {letter} of the previous stage has offset 0")
            last = x + (e - 1) * step
            if not (low <= x and x + length <= high and low <= last and last + length <= high):
                raise fault(f"piece {ch} leaves piece {letter} in its run")
            # every image of the run but the word's last must miss the new domain
            count = e if i < len(runs) else e - 1
            if count and _meets(regions, x, step, length, count):
                raise fault(f"piece {ch} meets the new domain before it returns")
            x = last + step
        if x - left != offset:
            raise fault(f"piece {ch} lands {Fraction(x - left - offset, D)} off its image")
    return new, abc_new


def jump_stages(chain: StageChain, n: int) -> list[InductionStage]:
    """Stages 1..k of the chain whose jumps code an n-step orbit at the
    least estimated cost, counted in steps of the walk under T:

    * STAGE_COST for each stage the chain has not induced yet; the stages
      it holds cost nothing;
    * h_max(k) steps of walk before the orbit lands in B_k: a point of a
      stage-k tower reaches the base within the tower's height;
    * n |B_k| / |X| jumps, since by Kac's lemma the mean return time to B_k
      is |X| / |B_k|, and |B_k| / |X| = (a_k + b_k + c_k) / (a + b + c).

    Stage k + 1's cost is priced from stage k before the triple is stepped:
    a step takes the sum to a and h_max to h_a + max(h_b, h_c).  The cost
    is convex in k, as no term's increments fall: the stage term's go from
    0 to STAGE_COST where the held stages end; h_max's, h_a + max(h_b, h_c)
    - h_max <= h_a, is followed by h_a + min(h_b, h_c) after I or II and by
    h_a after III; and the sum falls by b + c, which never grows.  So the
    first stage whose successor costs no less is the least k of least cost,
    and a triple is stepped only to advance to it.  k = 0, the walk, costs
    1 + n, and a triple that leaves the gasket caps k.  The triples are
    integers on m0's lattice and the costs are compared times a + b + c, so
    the Kac term is exact.  A negative n raises ValueError.
    """
    if n < 0:
        raise ValueError(f"orbit length must be nonnegative, got {n}")
    held, triples, heights = len(chain.stages), chain.triples, chain.heights
    # every cost below is times size, so that n |B_k| / |X| is n sum(triples[k])
    size = sum(triples[0])
    k, cost = 0, (n + 1) * size  # the walk: h_max(0) = 1 and B_0 = X
    while True:
        h_a, h_b, h_c = heights[k]
        after = (max(k + 1 - held, 0) * STAGE_COST + h_a + max(h_b, h_c)) * size + n * triples[k].a
        if after >= cost or (k + 1 == len(triples) and not chain.step()):
            return iterate_induction(chain, k)
        k, cost = k + 1, after


def orbit_route(
    m0: Ar9Map, stages: Sequence[InductionStage], x: Fraction, n: int
) -> Iterator[str]:
    """The coding of the first n steps of the orbit of x under m0, as the
    words it reads by jumps through B_k, the domain of the last of the
    stages (B_0, the support, with none).

    Yields one letter per step of the walk under T until the orbit lands in
    B_k, then the return word under T of each piece of B_k that it jumps
    from: the checked return words of the stages, composed.  A jump from
    the piece of ch moves by its stage-map offset.  The last word is cut so
    that the words hold exactly n letters.  With no stage this is the walk,
    one letter per jump.

    A point in a gap or outside the support raises OutOfDomain with the
    point's index in the orbit as `level`, as Lattice.walk does; a negative
    n raises ValueError.
    """
    [route] = orbit_routes(m0, stages, [(x, n)])
    return route


def orbit_routes(
    m0: Ar9Map, stages: Sequence[InductionStage], orbits: Iterable[tuple[Fraction, int]]
) -> Iterator[Iterator[str]]:
    """orbit_route of each (x, n) of orbits, in order, by jumps through the
    same stages: every n is validated first, their return words are composed
    once, each cut to the longest n (a cut word is always a route's last, so
    every letter a route reads stays the same) and laid out once as the
    route table of B_k's pieces.  Each orbit is read on m0's lattice as it
    is.  Nothing is held past the last orbit."""
    orbits = list(orbits)
    for _, n in orbits:
        if n < 0:
            raise ValueError(f"orbit length must be nonnegative, got {n}")
    longest = max((n for _, n in orbits), default=0)
    words = {ch: ch for ch in A9}
    for stage in stages:
        words = {ch: "".join(map(words.__getitem__, stage.return_words[ch]))[:longest]
                 for ch in A9}
    # every stage is held on m0's lattice, B_k among them
    base = stages[-1].map.lattice if stages else m0.lattice
    route = [words[ch] for ch in base.letters]
    for x, n in orbits:
        yield _route(m0.lattice, base, route, len(stages), x, n)


def _route(lat: Lattice, base: Lattice, route: list[str], k: int, x: Fraction, n: int
           ) -> Iterator[str]:
    """orbit_route on lat, m0's lattice, by jumps through B_k, held on base,
    whose piece i reads route[i].  The orbit moves x's cell p0 by integer
    offsets, so the point at cell p is x + (p - p0) / D, built for errors."""
    p = p0 = lat.cell(x)
    rest = n  # the letters still to read
    while rest > 0 and base.find(p) is None:
        i = lat.find(p)
        if i is None:
            error = _outside(x + Fraction(p - p0, lat.D))
            error.level = n - rest
            raise error
        yield lat.letters[i]
        rest -= 1
        p += lat.offsets[i]
    starts, ends, offsets = base.lefts, base.rights, base.offsets
    while rest > 0:
        i = bisect_right(starts, p) - 1
        if i < 0 or p >= ends[i]:
            raise RuntimeError(f"the orbit of {x} left B_{k} at {x + Fraction(p - p0, lat.D)}")
        word = route[i]
        rest -= len(word)
        yield word if rest >= 0 else word[:rest]
        p += offsets[i]


def orbit_counts(
    m0: Ar9Map, stages: Sequence[InductionStage], x: Fraction, n: int
) -> dict[str, int]:
    """The letter counts of the n-step coding of x, nonzero ones in A9
    order: the distinct words of orbit_route (at most 19, the cut last word
    included) are counted, then expanded; no orbit word is built."""
    counts = Counter()
    for word, times in Counter(orbit_route(m0, stages, x, n)).items():
        for letter, count in Counter(word).items():
            counts[letter] += times * count
    return {ch: counts[ch] for ch in A9 if counts[ch]}
