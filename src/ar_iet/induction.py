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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInGasket, ReturnTimeCapExceeded
from .gasket import Sym, Triple, ar_step
from .iet import Ar9Map, Interval, OrderTag, ar9_from_placements
from .words import A3_MEMBERS, A9, sigma9

DEFAULT_RETURN_CAP = 8

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


def _ja_spans(m: Ar9Map) -> tuple[Interval, Interval, Interval]:
    """The three spans of J_a: I_1, the whole middle block, I_4."""
    return m.domain["1"], m.role_blocks[1], m.domain["4"]


def _position(left: int, right: int, regions) -> str:
    """inside / outside / straddling the union of disjoint sorted regions."""
    for r_left, r_right in regions:
        if r_left <= left and right <= r_right:
            return "inside"
    if all(right <= r_left or r_right <= left for r_left, r_right in regions):
        return "outside"
    return "straddling"


def first_return(
    m: Ar9Map, piece: Interval, cap: int = DEFAULT_RETURN_CAP
) -> tuple[Interval, str]:
    """Push a whole interval under T until it first re-enters J_a.

    Returns the landed interval and the word of letters visited before the
    return.  Raises RuntimeError if the interval ever straddles a
    discontinuity or returns only partially (both indicate the piece was not
    a block of the induced partition) and ReturnTimeCapExceeded past cap.
    """
    lat = m.lattice.refined(math.lcm(piece.left.denominator, piece.right.denominator))
    regions = lat.union(J_A)
    left, right = lat.coordinate(piece.left), lat.coordinate(piece.right)
    word: list[str] = []
    for _ in range(cap):
        ch, offset = lat.push(left, right)
        word.append(ch)
        left += offset
        right += offset
        pos = _position(left, right, regions)
        if pos == "inside":
            return lat.interval(left, right), "".join(word)
        if pos == "straddling":
            raise RuntimeError(
                f"interval {lat.interval(left, right)} returns to J_a only "
                f"partially after {word}"
            )
    raise ReturnTimeCapExceeded(
        f"no return to J_a within {cap} steps for {piece}",
        piece=str(piece),
        cap=cap,
    )


def _predict(m: Ar9Map) -> tuple[Ar9Map, Sym]:
    new_triple, case = ar_step(m.triple)
    spans = _ja_spans(m)
    roles = _SPAN_ROLES[case]
    placements = [Fraction(0)] * 3
    for span, role in zip(spans, roles):
        placements[role] = span.left
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
    a, b, c = induced.triple
    expected_lengths = {
        "7": b - c, "8": c, "9": c, "1": a - c,
        "2": c, "3": b,
        "4": a - b, "5": b, "6": c,
    }
    table = sigma9(case).table
    returns = {ch: first_return(m, induced.domain[ch], cap) for ch in A9}
    return InductionStage(
        index=index,
        case=case,
        map=induced,
        return_times={ch: len(word) for ch, (_, word) in returns.items()},
        return_words={ch: word for ch, (_, word) in returns.items()},
        parent_triple=m.triple,
        parent_order=m.order,
        lengths_ok=all(
            induced.domain[ch].length == expected_lengths[ch]
            and induced.image[ch].length == expected_lengths[ch]
            for ch in A9
        ),
        endpoints_ok=all(
            landed == induced.image[ch] for ch, (landed, _) in returns.items()
        ),
        translations_ok=all(
            landed.left - induced.domain[ch].left == induced.offsets[ch]
            for ch, (landed, _) in returns.items()
        ),
        words_ok=all(word == table[ch] for ch, (_, word) in returns.items()),
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
