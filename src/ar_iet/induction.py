"""First-return renormalization of the nine-piece exchange.

Inducing T on J_a = I_1 u I_2 u I_3 u I_4 yields another nine-piece exchange
whose triple is exactly one renormalization step of the original triple, and
whose arrangement follows a fixed transition table in the branch taken
(case I, II, or III).  J_a splits into three spans that become the new
blocks: the span of I_1, the span of I_2 u I_3 (always the whole middle
block Omega'), and the span of I_4.

The implementation predicts the induced map from that table, lays it out
on the parent's lattice with the builder's integer routine (no Fraction on
the way), and checks it by honest interval iteration: each predicted piece
is pushed forward under T, once, until it first re-enters J_a, raising if it
ever straddles a discontinuity (so the piece travels as a block and the
return time is uniform on it).  The letters visited on the way spell out
the nine-letter substitution of the branch, which is how the symbolic and
geometric systems are glued together.

The checked stages also code orbits.  Stage k is the first-return map of T
to its domain B_k, so a point of the stage-k piece of ch reads the stage-k
return word of ch under T and then lands at its stage-map image.  An orbit
that has landed in B_k is coded one return word per step of the stage-k
map instead of one letter per step of T (`orbit_route`).
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInGasket, ReturnTimeCapExceeded
from .gasket import Sym, Triple, ar_step
from .iet import Ar9Map, Lattice, OrderTag, _lay_out
from .words import A3_MEMBERS, A9, iter_heights, sigma9

DEFAULT_RETURN_CAP = 8

# The cost of one checked induction stage in steps of the walk under T: on
# the maps of the twelve 20,000-step orbits of the benchmark's orbit workload
# (seed 1), induce_step took 0.10-0.11 ms and one step of Lattice.walk
# 0.36-0.39 us, ratios of 267 to 296 (CPython 3.11 on a shared 2-vCPU
# machine; BENCH_16.json, "in_process"; 235 to 787 in BENCH_13.json).
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


def predicted_order(order: OrderTag, case: Sym) -> OrderTag:
    """Arrangement of the induced map; case II flips the orientation."""
    return OrderTag(
        _BASE_TRANSITION[case][order.base],
        order.reversed != (case is Sym.II),
    )


def _land(
    lat: Lattice, regions, left: int, right: int, cap: int
) -> tuple[int, int, str]:
    """Push [left, right) under T until it first re-enters J_a, given as the
    (lefts, rights) of its merged regions: the landed interval and the word
    of letters visited before the return.  Raises RuntimeError if the
    interval ever straddles a discontinuity or returns only partially (so it
    is not a block of the induced partition), ReturnTimeCapExceeded past cap."""
    r_lefts, r_rights = regions
    start = (left, right)
    word: list[str] = []
    for _ in range(cap):
        ch, offset = lat.push(left, right)
        word.append(ch)
        left += offset
        right += offset
        # the regions are sorted and apart: the interval is inside the one
        # that holds its left end, or else must meet none of them
        i = bisect_right(r_lefts, left) - 1
        if i >= 0 and right <= r_rights[i]:
            return left, right, "".join(word)
        if bisect_right(r_rights, left) < bisect_left(r_lefts, right):
            raise RuntimeError(
                f"interval {lat.interval(left, right)} returns to J_a only "
                f"partially after {word}"
            )
    piece = lat.interval(*start)
    raise ReturnTimeCapExceeded(
        f"no return to J_a within {cap} steps for {piece}",
        piece=str(piece),
        cap=cap,
    )


_FLAGS = ("lengths_ok", "endpoints_ok", "translations_ok", "words_ok")


@dataclass(frozen=True)
class InductionStage:
    """One renormalization step and the itemized check of its first returns."""

    index: int
    case: Sym
    map: Ar9Map
    return_times: dict[str, int]
    return_words: dict[str, str]
    parent_triple: Triple
    parent_order: OrderTag
    lengths_ok: bool
    endpoints_ok: bool
    translations_ok: bool
    words_ok: bool

    @property
    def ok(self) -> bool:
        return all(getattr(self, flag) for flag in _FLAGS)


def induce_step(
    m: Ar9Map, index: int = 1, cap: int = DEFAULT_RETURN_CAP
) -> InductionStage:
    """Induce on J_a and report, check by check, that the result is the
    predicted nine-piece exchange: piece lengths, exact endpoints,
    translations, and return words.

    Each predicted piece is pushed under T once.  A disagreement clears its
    flag instead of raising; iterate_induction refuses to go on from it.
    """
    new_triple, case = ar_step(m.triple)
    # the left ends of the three spans of J_a: I_1, the whole middle block
    # I_2 u I_3, and I_4, on the parent's lattice, placed by the table
    lat = m.lattice
    parent = lat.by_label()
    spans = (parent["1"][0], min(parent["2"][0], parent["3"][0]), parent["4"][0])
    starts = [0] * 3
    for start, role in zip(spans, _SPAN_ROLES[case]):
        starts[role] = start
    a, b, c = abc = [lat.coordinate(v) for v in new_triple]
    # laid out on the coarsest lattice that holds the triple and the spans,
    # the one the Fraction builder picks
    g = math.gcd(lat.D, *abc, *starts)
    predicted = predicted_order(m.order, case)
    induced = _lay_out(new_triple, lat.D // g, [v // g for v in abc],
                       [v // g for v in starts], predicted.reversed)
    if induced.order != predicted:
        raise RuntimeError(f"span arrangement {induced.order} disagrees with the "
                           f"transition table {predicted}")
    # the induced pieces, back on the parent's lattice, are pushed under T
    # and compared with what they land on as integers
    pieces = induced.lattice.refined(lat.D).by_label()
    regions = tuple(zip(*lat.union(J_A)))
    expected_lengths = {
        "7": b - c, "8": c, "9": c, "1": a - c,
        "2": c, "3": b,
        "4": a - b, "5": b, "6": c,
    }
    table = sigma9(case).table
    words: dict[str, str] = {}
    lengths_ok = endpoints_ok = translations_ok = True
    for ch in A9:
        left, right, offset = pieces[ch]
        landed_left, landed_right, words[ch] = _land(lat, regions, left, right, cap)
        # the builder already refuses an image whose length differs from
        # its piece, so only the pieces are held against the table
        lengths_ok &= right - left == expected_lengths[ch]
        translations_ok &= landed_left - left == offset
        endpoints_ok &= landed_left - left == offset == landed_right - right
    return InductionStage(
        index=index,
        case=case,
        map=induced,
        return_times={ch: len(word) for ch, word in words.items()},
        return_words=words,
        parent_triple=m.triple,
        parent_order=m.order,
        lengths_ok=lengths_ok,
        endpoints_ok=endpoints_ok,
        translations_ok=translations_ok,
        words_ok=words == table,
    )


def iterate_induction(
    m: Ar9Map, K: int, cap: int = DEFAULT_RETURN_CAP
) -> list[InductionStage]:
    """Stages 1..K of repeated induction; empty for K = 0.

    A triple that leaves the admissible region mid-way raises NotInGasket
    carrying the failing stage as at_step; a stage that disagrees with its
    prediction raises RuntimeError naming the stage and its failed checks.
    """
    stages: list[InductionStage] = []
    cur = m
    for k in range(1, K + 1):
        try:
            stage = induce_step(cur, index=k, cap=cap)
        except NotInGasket as e:
            e.detail["at_step"] = k
            raise
        if not stage.ok:
            failed = ", ".join(f for f in _FLAGS if not getattr(stage, f))
            raise RuntimeError(
                f"induction stage {k} disagrees with the prediction: {failed}"
            )
        stages.append(stage)
        cur = stage.map
    return stages


def jump_stages(
    m0: Ar9Map, n: int, held: Sequence[InductionStage] = ()
) -> list[InductionStage]:
    """Stages 1..k of m0 whose jumps code an n-step orbit at the least
    estimated cost, counted in steps of the walk under T:

    * STAGE_COST for each stage beyond the held stages 1..len(held), which
      come from iterate_induction(m0, len(held)) and cost nothing;
    * h_max(k) steps of walk before the orbit lands in B_k: a point of a
      stage-k tower reaches the base within the tower's height;
    * n |B_k| / |X| jumps, since by Kac's lemma the mean return time to B_k
      is |X| / |B_k|, and |B_k| / |X| = (a_k + b_k + c_k) / (a + b + c).

    k is chosen from the triples (ar_step) and the heights alone, before
    any stage is induced; k = 0, the walk, costs 1 + n.  A triple that
    leaves the gasket caps k.  The stages past the held ones are induced
    and checked by iterate_induction.
    """
    triples = [m0.triple, *(s.map.triple for s in held)]

    def cases():
        yield from (s.case for s in held)
        t = triples[-1]
        while True:
            try:
                t, case = ar_step(t)
            except NotInGasket:
                return
            triples.append(t)
            yield case

    best, best_cost = 0, n + 1  # the walk: h_max(0) = 1 and B_0 = X
    for k, hv in enumerate(iter_heights(cases())):
        if k:
            cost = (max(k - len(held), 0) * STAGE_COST + max(hv)
                    + n * sum(triples[k]) / sum(triples[0]))
            if cost < best_cost:
                best, best_cost = k, cost
        # h_max grows by at least 1 per stage, so every later stage costs
        # at least this much; stop before the next ar_step
        if max(k + 1 - len(held), 0) * STAGE_COST + max(hv) + 1 >= best_cost:
            break
    if best <= len(held):
        return list(held[:best])
    return [*held, *iterate_induction(held[-1].map if held else m0, best - len(held))]


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
    point's index in the orbit as `level`, as Lattice.walk does.
    """
    words = {ch: ch for ch in A9}
    for stage in stages:
        words = {ch: "".join(map(words.__getitem__, stage.return_words[ch])) for ch in A9}
    lat = m0.lattice.refined(x.denominator)
    base = stages[-1].map.lattice.refined(lat.D) if stages else lat
    lat = lat.refined(base.D)
    p = lat.coordinate(x)
    rest = n  # the letters still to read
    while rest > 0 and base.find(p) is None:
        i = lat.find(p)
        if i is None:
            error = lat.outside(p)
            error.level = n - rest
            raise error
        yield lat.letters[i]
        rest -= 1
        p += lat.offsets[i]
    starts, ends, offsets = base.lefts, base.rights, base.offsets
    route = [words[ch] for ch in base.letters]
    while rest > 0:
        i = bisect_right(starts, p) - 1
        if i < 0 or p >= ends[i]:
            raise RuntimeError(f"the orbit of {x} left B_{len(stages)} at "
                               f"{Fraction(p, base.D)}")
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
