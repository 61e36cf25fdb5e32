"""First-return renormalization of the nine-piece exchange.

Inducing T on J_a = I_1 u I_2 u I_3 u I_4 yields another nine-piece exchange
whose triple is exactly one renormalization step of the original triple, and
whose arrangement follows a fixed transition table in the branch taken
(case I, II, or III).  J_a splits into three spans that become the new
blocks: the span of I_1, the span of I_2 u I_3 (always the whole middle
block Omega'), and the span of I_4.

The implementation predicts the induced map from that table, then checks
it by honest interval iteration: each predicted piece is pushed forward
under T, once, until it first re-enters J_a, raising if it ever straddles
a discontinuity (so the piece travels as a block and the return time is
uniform on it).  The letters visited on the way spell out the
nine-letter substitution of the branch, which is how the symbolic and
geometric systems are glued together.

The checked stages also code orbits.  Stage k is the first-return map of T
to its domain B_k, so a point of the stage-k piece of ch reads the stage-k
return word of ch under T and then lands at its stage-map image.  An orbit
that has landed in B_k is coded one return word per step of the stage-k
map instead of one letter per step of T (`orbit_route`).
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInGasket, ReturnTimeCapExceeded
from .gasket import Sym, Triple, ar_step
from .iet import Ar9Map, Lattice, OrderTag, ar9_from_placements
from .words import A3_MEMBERS, A9, iter_heights, sigma9

DEFAULT_RETURN_CAP = 8

# The cost of one checked induction stage in steps of the walk under T: on
# the maps of the twelve 20,000-step orbits of the benchmark's orbit workload
# (seed 1), induce_step took 0.09-0.17 ms and one step of Lattice.walk
# 0.21-0.39 us, ratios of 235 to 787 (CPython 3.11 on a shared 2-vCPU
# machine; BENCH_13.json, "in_process").
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


def _position(left: int, right: int, regions) -> str:
    """inside / outside / straddling the union of disjoint sorted regions."""
    for r_left, r_right in regions:
        if r_left <= left and right <= r_right:
            return "inside"
    if all(right <= r_left or r_right <= left for r_left, r_right in regions):
        return "outside"
    return "straddling"


def _land(
    lat: Lattice, regions, left: int, right: int, cap: int
) -> tuple[int, int, str]:
    """Push [left, right) under T until it first re-enters J_a, given as
    merged integer regions: the landed interval and the word of letters
    visited before the return.  Raises RuntimeError if the interval ever
    straddles a discontinuity or returns only partially (so it is not a
    block of the induced partition), ReturnTimeCapExceeded past cap."""
    start = (left, right)
    word: list[str] = []
    for _ in range(cap):
        ch, offset = lat.push(left, right)
        word.append(ch)
        left += offset
        right += offset
        pos = _position(left, right, regions)
        if pos == "inside":
            return left, right, "".join(word)
        if pos == "straddling":
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


def _predict(m: Ar9Map) -> tuple[Ar9Map, Sym]:
    new_triple, case = ar_step(m.triple)
    # the left ends of the three spans of J_a: I_1, the whole middle block
    # I_2 u I_3, and I_4
    lat = m.lattice
    pieces = lat.by_label()
    starts = (pieces["1"][0], min(pieces["2"][0], pieces["3"][0]), pieces["4"][0])
    placements = [Fraction(0)] * 3
    for start, role in zip(starts, _SPAN_ROLES[case]):
        placements[role] = Fraction(start, lat.D)
    reversed_ = m.order.reversed != (case is Sym.II)
    induced = ar9_from_placements(new_triple, placements, reversed_)
    if induced.order != predicted_order(m.order, case):
        raise RuntimeError(
            f"span arrangement {induced.order} disagrees with the "
            f"transition table {predicted_order(m.order, case)}"
        )
    return induced, case


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
    induced, case = _predict(m)
    # the induced map's coordinates lie on the parent's lattice, so its
    # pieces, rescaled, and the landed intervals compare as integers
    lat = m.lattice.refined(induced.lattice.D)
    pieces = induced.lattice.refined(lat.D).by_label()
    regions = lat.union(J_A)
    returns = {ch: _land(lat, regions, *pieces[ch][:2], cap) for ch in A9}
    a, b, c = (lat.coordinate(v) for v in induced.triple)
    expected_lengths = {
        "7": b - c, "8": c, "9": c, "1": a - c,
        "2": c, "3": b,
        "4": a - b, "5": b, "6": c,
    }
    table = sigma9(case).table
    return InductionStage(
        index=index,
        case=case,
        map=induced,
        return_times={ch: len(word) for ch, (_, _, word) in returns.items()},
        return_words={ch: word for ch, (_, _, word) in returns.items()},
        parent_triple=m.triple,
        parent_order=m.order,
        # the builder already refuses an image whose length differs from
        # its piece, so only the pieces are held against the table
        lengths_ok=all(
            right - left == expected_lengths[ch] for ch, (left, right, _) in pieces.items()
        ),
        endpoints_ok=all(
            returns[ch][:2] == (left + offset, right + offset)
            for ch, (left, right, offset) in pieces.items()
        ),
        translations_ok=all(
            returns[ch][0] - left == offset for ch, (left, _, offset) in pieces.items()
        ),
        words_ok=all(word == table[ch] for ch, (_, _, word) in returns.items()),
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
) -> tuple[str, list[str], dict[str, str]]:
    """The first n steps of the orbit of x under m0, by jumps through B_k,
    the domain of the last of the stages (B_0, the support, with none).

    Returns the letters walked under T until the orbit lands in B_k, the
    letter of each piece of B_k that it then jumps from, and the return
    word under T of each piece: the checked return words of the stages,
    composed.  A jump from the piece of ch reads the return word of ch and
    moves by its stage-map offset; only the last jump can read past step
    n.  With no stage this is the walk, one letter per jump.

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
    walked: list[str] = []
    while len(walked) < n and base.find(p) is None:
        i = lat.find(p)
        if i is None:
            error = lat.outside(p)
            error.level = len(walked)
            raise error
        walked.append(lat.letters[i])
        p += lat.offsets[i]
    starts, ends, letters, offsets = base.lefts, base.rights, base.letters, base.offsets
    heights = [len(words[ch]) for ch in letters]
    jumps: list[str] = []
    covered = len(walked)
    while covered < n:
        i = bisect_right(starts, p) - 1
        if i < 0 or p >= ends[i]:
            raise RuntimeError(f"the orbit of {x} left B_{len(stages)} at "
                               f"{Fraction(p, base.D)}")
        jumps.append(letters[i])
        covered += heights[i]
        p += offsets[i]
    return "".join(walked), jumps, words


def orbit_word(
    m0: Ar9Map, stages: Sequence[InductionStage], x: Fraction, n: int
) -> str:
    """The n-letter coding of the orbit of x, by orbit_route: the walked
    letters, then the return word of each jump, the last one cut at n."""
    walked, jumps, words = orbit_route(m0, stages, x, n)
    return (walked + "".join(map(words.__getitem__, jumps)))[:n]


def orbit_counts(
    m0: Ar9Map, stages: Sequence[InductionStage], x: Fraction, n: int
) -> dict[str, int]:
    """The letter counts of orbit_word, nonzero ones in A9 order, added
    jump by jump from the counts of the return words; no orbit word is
    built."""
    walked, jumps, words = orbit_route(m0, stages, x, n)
    counts = Counter(walked)
    covered = len(walked)
    for ch, times in Counter(jumps).items():
        covered += times * len(words[ch])
        for letter, count in Counter(words[ch]).items():
            counts[letter] += times * count
    if covered > n:
        counts.subtract(words[jumps[-1]][n - covered:])
    return {ch: counts[ch] for ch in A9 if counts[ch]}
