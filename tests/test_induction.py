"""Induction on J_a: prediction, first-return verification, iteration."""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from ar_iet import induction
from ar_iet.errors import NotInGasket, OutOfDomain, ReturnTimeCapExceeded
from ar_iet.gasket import PartialQuotients, Sym, ar_step, reconstruct_triple, triple
from ar_iet.iet import ORDER_TAGS, Ar9Map, Lattice, OrderTag, ar9_from_placements, build_ar9
from ar_iet.induction import (
    StageChain,
    _meets,
    block_stage,
    induce_step,
    iterate_induction,
)
from ar_iet.words import A9, Substitution, sigma9

I, II, III = Sym.I, Sym.II, Sym.III
F = Fraction

CASE_TRIPLES = {I: triple(7, 4, 2), II: triple(9, 4, 2), III: triple(12, 4, 3)}


# the base arrangement of the induced map, per case and parent base; case II
# also flips the orientation
EXPECT_BASE = {
    I: {"first": "third", "second": "first", "third": "second"},
    II: {"first": "second", "second": "first", "third": "third"},
    III: {"first": "first", "second": "second", "third": "third"},
}


def expected_order(tag, case):
    return OrderTag(EXPECT_BASE[case][tag.base], tag.reversed != (case is II))


def induced_order(tag, case):
    return induce_step(StageChain(build_ar9(CASE_TRIPLES[case], tag)), 1).map.order


def test_predicted_order_examples():
    assert induced_order(OrderTag("first"), I) == OrderTag("third")
    assert induced_order(OrderTag("third"), II) == OrderTag("third", True)
    assert induced_order(OrderTag("first", True), III) == OrderTag("first", True)


def test_predicted_order_full_table():
    for tag in ORDER_TAGS:
        for case in (I, II, III):
            assert induced_order(tag, case) == expected_order(tag, case)


def test_induce_742_first_order():
    stage = induce_step(StageChain(build_ar9(triple(7, 4, 2))), 1)
    assert stage.case == I
    assert stage.map.triple == triple(4, 2, 1)
    assert stage.map.order == OrderTag("third")


def test_induce_case_iii_keeps_first_order():
    stage = induce_step(StageChain(build_ar9(triple(12, 4, 3))), 1)
    assert stage.case == III
    assert stage.map.triple == triple(5, 4, 3)
    assert stage.map.order == OrderTag("first")


def test_induce_case_ii_reversed_second():
    stage = induce_step(StageChain(build_ar9(triple(9, 4, 2))), 1)
    assert stage.case == II
    assert stage.map.triple == triple(4, 3, 2)
    assert stage.map.order == OrderTag("second", True)


def test_induced_triple_commutes_with_ar_step():
    rng = random.Random(53)
    for _ in range(25):
        prefix = tuple(rng.choice((I, II, III)) for _ in range(rng.randint(2, 9)))
        t = reconstruct_triple(prefix)
        m = build_ar9(t, ORDER_TAGS[rng.randrange(6)])
        stage = induce_step(StageChain(m), 1)
        expected, case = ar_step(t)
        assert stage.map.triple == expected
        assert stage.case == case


def test_return_words_match_substitution():
    for case, t in CASE_TRIPLES.items():
        stage = induce_step(StageChain(build_ar9(t)), 1)
        table = sigma9(case).table
        assert stage.return_words == table
        assert stage.return_times == {ch: len(table[ch]) for ch in A9}


def test_case_iii_return_times():
    # fixed letters return immediately, split letters after two applications
    stage = induce_step(StageChain(build_ar9(triple(12, 4, 3))), 1)
    assert [stage.return_times[ch] for ch in A9] == [1, 1, 1, 1, 2, 2, 2, 2, 2]


def test_induced_pieces_lie_in_old_ja():
    for case, t in CASE_TRIPLES.items():
        m = build_ar9(t)
        spans = (m.domain["1"], m.role_blocks[1], m.domain["4"])
        stage = induce_step(StageChain(m), 1)
        for ch in A9:
            piece = stage.map.domain[ch]
            assert any(
                s.left <= piece.left and piece.right <= s.right for s in spans
            )


def test_all_eighteen_order_case_combinations():
    for tag in ORDER_TAGS:
        for case, t in CASE_TRIPLES.items():
            m = build_ar9(t, tag, gaps=(F(1), F(3, 2)))
            stage = induce_step(StageChain(m), 1)
            assert stage.map.order == expected_order(tag, case)
            report = induce_step(StageChain(m), 1)
            assert report.case == case
            assert report.map.order == expected_order(tag, case)


def test_verify_induction_report_fields():
    chain = StageChain(build_ar9(triple(9, 4, 2)))
    report = induce_step(chain, 1)
    # the parent is the chain's stage 0, and the stage its stored step
    assert (report.index, report.case) == (1, II) == (len(chain.cases), chain.cases[0])
    assert chain.triples == [(9, 4, 2), (4, 3, 2)]
    assert report.map.triple == triple(4, 3, 2)
    assert chain.m0.order == OrderTag("first")
    assert report.map.order == OrderTag("second", True)
    assert report.return_times["1"] == len(sigma9(II).table["1"])


def test_verify_induction_random_batch():
    rng = random.Random(59)
    for _ in range(20):
        prefix = tuple(rng.choice((I, II, III)) for _ in range(rng.randint(3, 8)))
        m = build_ar9(reconstruct_triple(prefix), ORDER_TAGS[rng.randrange(6)])
        for _ in range(3):
            report = induce_step(StageChain(m), 1)
            m = report.map


def test_iterate_induction_tribonacci():
    t = reconstruct_triple((I,) * 6)
    stages = iterate_induction(StageChain(build_ar9(t)), 6)
    assert len(stages) == 6
    assert [s.case for s in stages] == [I] * 6
    assert [s.index for s in stages] == [1, 2, 3, 4, 5, 6]
    assert stages[-1].map.triple == triple(4, 2, 1)


def test_iterate_induction_k0():
    assert iterate_induction(StageChain(build_ar9(triple(7, 4, 2))), 0) == []


def test_iterate_induction_refuses_a_negative_count():
    with pytest.raises(ValueError, match="stage count must be nonnegative, got -1"):
        iterate_induction(StageChain(build_ar9(triple(7, 4, 2))), -1)


def test_induce_step_refuses_a_stage_out_of_range():
    chain = StageChain(build_ar9(reconstruct_triple((I, II, III))))
    for k in (0, 2, -1):
        with pytest.raises(ValueError, match=rf"stage {k} outside the inducible range 1\.\.1"):
            induce_step(chain, k)
    iterate_induction(chain, 1)
    with pytest.raises(ValueError, match=r"stage 3 outside the inducible range 1\.\.2"):
        induce_step(chain, 3)
    # a held stage may be induced again, from the same stored step
    assert induce_step(chain, 1) == chain.stages[0]
    assert induce_step(chain, 2).case == II


def test_iterate_induction_reports_failing_stage():
    with pytest.raises(NotInGasket) as exc:
        iterate_induction(StageChain(build_ar9(triple(7, 4, 2))), 3)
    assert exc.value.detail["at_step"] == 2


def test_swapped_substitution_fails_the_word_check(monkeypatch):
    # a table with the images of 1 and 2 swapped: the returns no longer match
    def swapped(case):
        table = dict(sigma9(case).table)
        table["1"], table["2"] = table["2"], table["1"]
        return Substitution("A9", table)

    monkeypatch.setattr(induction, "sigma9", swapped)
    m = build_ar9(reconstruct_triple((I, I, II)))
    # only the word check fails, and the stage is refused where it is found
    with pytest.raises(RuntimeError,
                       match=r"^induction stage 1 disagrees with the prediction: words_ok$"):
        induce_step(StageChain(m), 1)
    with pytest.raises(RuntimeError, match=r"induction stage 1 .*words_ok"):
        iterate_induction(StageChain(m), 3)


def test_return_cap_exceeded(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(induction, "RETURN_CAP", 1)
        with pytest.raises(ReturnTimeCapExceeded):
            induce_step(StageChain(build_ar9(triple(12, 4, 3))), 1)
    # induced on the wrong set, J_a without I_3: a piece that passes through
    # I_3 and I_5 lands on [11,14), across the end of I_2 = [11,13)
    monkeypatch.setattr(induction, "J_A", "124")
    with pytest.raises(RuntimeError, match=r"^interval \[11,14\) returns to J_a only "
                                           r"partially after \['3', '5'\]$"):
        induce_step(StageChain(build_ar9(triple(7, 4, 2))), 1)


def _pushed(lat, regions, left, right, cap):
    """What _land finds, with every piece looked up by Lattice.push: the
    landed interval and word, "partial" or "cap"; push's errors propagate."""
    word = ""
    for _ in range(cap):
        ch, offset = lat.push(left, right)
        word += ch
        left, right = left + offset, right + offset
        for lo, hi in zip(*regions):
            if lo <= left and right <= hi:
                return left, right, word
            if left < hi and lo < right:
                return "partial"
    return "cap"


def test_land_refuses_what_push_refuses():
    # every interval of width 1-3 units that starts in the hull of a gapped
    # map on (1/2)Z, under caps of 1 and 4 steps: starts in the gaps,
    # intervals across piece ends at once or after some steps, partial
    # returns and capped ones included
    m = build_ar9(triple(F(7, 2), 2, 1), OrderTag("second", True), gaps=(F(1), F(3, 2)))
    lat = m.lattice
    regions = tuple(zip(*lat.union(induction.J_A)))
    outcomes = Counter()
    for left in range(lat.lefts[0] - 1, lat.rights[-1] + 1):
        for right in range(left + 1, left + 4):
            for cap in (1, 4):
                try:
                    expected = _pushed(lat, regions, left, right, cap)
                except (OutOfDomain, RuntimeError) as e:
                    with pytest.raises(type(e)) as exc:
                        induction._land(lat, regions, left, right, cap)
                    assert str(exc.value) == str(e)
                    late = isinstance(e, RuntimeError) and lat.find(left) is not None \
                        and right <= lat.rights[lat.find(left)]
                    outcomes[type(e).__name__ + ("-late" if late else "")] += 1
                    continue
                if expected == "partial":
                    with pytest.raises(RuntimeError, match="returns to J_a only partially"):
                        induction._land(lat, regions, left, right, cap)
                elif expected == "cap":
                    with pytest.raises(ReturnTimeCapExceeded):
                        induction._land(lat, regions, left, right, cap)
                else:
                    assert induction._land(lat, regions, left, right, cap) == expected
                outcomes[expected if isinstance(expected, str) else "landed"] += 1
    assert set(outcomes) == {"OutOfDomain", "RuntimeError", "RuntimeError-late", "partial",
                             "cap", "landed"}, outcomes


def test_wrong_span_roles_fail_the_order_check(monkeypatch):
    # case I spans placed as case III places them: the blocks are relabeled
    # cyclically, and the gaps leave them room, so the layout holds but its
    # arrangement is not the table's
    monkeypatch.setitem(induction._SPAN_ROLES, I, (0, 1, 2))
    with pytest.raises(RuntimeError, match=r"^span arrangement first disagrees with "
                                           r"the transition table third$"):
        induce_step(StageChain(build_ar9(triple(7, 4, 2), gaps=(F(3), F(5)))), 1)


def test_partial_return_from_outside_j_a(monkeypatch):
    # induced on I_3 = [13,17) alone: the piece that passes through I_3 and
    # I_5 lands on [11,14), which starts outside J_a and ends inside it
    monkeypatch.setattr(induction, "J_A", "3")
    with pytest.raises(RuntimeError, match=r"^interval \[11,14\) returns to J_a only "
                                           r"partially after \['3', '5'\]$"):
        induce_step(StageChain(build_ar9(triple(7, 4, 2))), 1)


def test_induction_insensitive_to_gaps():
    t = triple(9, 4, 2)
    plain = induce_step(StageChain(build_ar9(t)), 1)
    gapped = induce_step(StageChain(build_ar9(t, gaps=(F(2), F(5)))), 1)
    assert gapped.case == plain.case
    assert gapped.map.triple == plain.map.triple
    assert gapped.map.order == plain.map.order
    assert gapped.return_words == plain.return_words
    # piece lengths identical even though positions differ
    for ch in A9:
        assert gapped.map.domain[ch].length == plain.map.domain[ch].length


def _shift_landed(monkeypatch, shift_left, shift_right, after=0):
    """Move every landed interval by whole lattice units, from call `after` on."""
    real = induction._land
    calls = []

    def shifted(lat, regions, left, right, cap):
        landed_left, landed_right, word = real(lat, regions, left, right, cap)
        calls.append(None)
        if len(calls) <= after:
            return landed_left, landed_right, word
        return landed_left + shift_left, landed_right + shift_right, word

    monkeypatch.setattr(induction, "_land", shifted)


@pytest.mark.parametrize("shift_left,shift_right,failed", [
    (0, 1, "endpoints_ok"),
    (1, 1, "endpoints_ok, translations_ok"),
])
def test_landed_one_unit_off_fails_the_endpoint_checks(monkeypatch, shift_left,
                                                       shift_right, failed):
    m = build_ar9(reconstruct_triple((I, II, I, III, I, I)))
    _shift_landed(monkeypatch, shift_left, shift_right)
    # exactly the endpoint checks fail, and translations only where the left end moved
    with pytest.raises(RuntimeError,
                       match=rf"^induction stage 1 disagrees with the prediction: {failed}$"):
        induce_step(StageChain(m), 1)
    # nine returns per stage: stage 1 lands true, stage 2 one unit off
    monkeypatch.undo()
    _shift_landed(monkeypatch, shift_left, shift_right, after=len(A9))
    with pytest.raises(RuntimeError, match=rf"induction stage 2 .*: {failed}$"):
        iterate_induction(StageChain(m), 3)


def _relabel_1_and_7(layout):
    """Swap the letters 1 and 7 in the first block, domain and image alike:
    the same intervals under the wrong names, each name's lengths still equal."""
    swap = {"1": "7", "7": "1"}
    return tuple(
        (tuple((swap.get(ch, ch), length) for ch, length in blocks[0]), *blocks[1:])
        for blocks in layout
    )


def test_relabeled_pieces_fail_the_length_check(monkeypatch):
    import ar_iet.iet as iet

    m = build_ar9(reconstruct_triple((I, II, I, III, I, I)))
    real = iet._piece_layout
    calls = []

    def relabeled(t):
        calls.append(None)
        return _relabel_1_and_7(real(t)) if len(calls) > 1 else real(t)

    monkeypatch.setattr(iet, "_piece_layout", lambda t: _relabel_1_and_7(real(t)))
    # every relabeled piece still lands on its image with its own offset, so
    # the endpoint checks pass; the lengths fail, and the words, read under
    # the swapped names
    with pytest.raises(RuntimeError, match=r"^induction stage 1 disagrees with the "
                                           r"prediction: lengths_ok, words_ok$"):
        induce_step(StageChain(m), 1)
    # the first induced map is built right, the second relabeled
    monkeypatch.setattr(iet, "_piece_layout", relabeled)
    with pytest.raises(RuntimeError, match=r"induction stage 2 .*: lengths_ok"):
        iterate_induction(StageChain(m), 3)


def _count_fraction_comparisons(monkeypatch) -> Counter:
    """Wrap Fraction's rich comparisons so that each call is counted."""
    counts = Counter()
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        def counted(a, b, _name=name, _compare=getattr(F, name)):
            counts[_name] += 1
            return _compare(a, b)
        monkeypatch.setattr(F, name, counted)
    return counts


def test_induction_builds_no_fraction_views(monkeypatch):
    # the criterion-9 regime: k = 2^n over eight I-blocks, 510 stages
    ks = tuple(2 ** n for n in range(1, 9))
    m = build_ar9(reconstruct_triple(PartialQuotients(ks, (I,) * 8).expand()))
    counts = _count_fraction_comparisons(monkeypatch)
    stages = iterate_induction(StageChain(m), 510)
    assert not counts, counts  # the stages are stepped and checked on integers
    ar_step(m.triple)
    assert counts  # and the wrappers do count
    assert len(stages) == 510
    views = {"domain", "image", "offsets", "role_blocks", "triple"}
    for stage in stages:
        built = views & set(vars(stage.map))
        assert not built, (stage.index, built)
    # the same regime by its 8 blocks, one checked block stage each
    chain = StageChain(m)
    counts.clear()
    block, abc = m, chain.triples[0]
    for n, k in enumerate(ks, 1):
        block, abc = block_stage(block, abc, k, I, n)
        assert not views & set(vars(block)), n
    assert not counts, counts
    assert block == stages[-1].map


@pytest.mark.parametrize("order", ORDER_TAGS, ids=str)
@pytest.mark.parametrize("gapped", (False, True), ids=("adjacent", "gapped"))
def test_integer_stages_follow_the_fraction_step(order, gapped):
    # each stage is stepped on the stage-0 integers of one chain and laid
    # out on its parent's; seeded triples on lattices with D > 1 run until
    # they leave the gasket or reach 30 stages
    rng = random.Random(f"integer-step/{order}/{gapped}")
    stepped = left = 0
    for _ in range(6):
        prefix = tuple(rng.choice((I, II, III)) for _ in range(rng.randint(4, 12)))
        seed = triple(*sorted((F(rng.randint(1, 60), rng.randint(2, 9)) for _ in range(3)),
                              reverse=True))
        if not seed.a > seed.b > seed.c:
            continue
        gaps = tuple(F(rng.randint(1, 9), rng.randint(2, 7)) for _ in range(2)) if gapped \
            else (F(0), F(0))
        m = build_ar9(reconstruct_triple(prefix, seed=seed), order, gaps=gaps)
        assert m.lattice.D > 1
        chain = StageChain(m)
        for k in range(1, 31):
            try:
                expected = ar_step(m.triple)
            except NotInGasket as e:
                with pytest.raises(NotInGasket) as exc:
                    induce_step(chain, k)
                assert str(exc.value) == str(e)
                assert exc.value.detail == e.detail
                left += 1
                break
            stage = induce_step(chain, k)
            assert (stage.map.triple, stage.case) == expected, (prefix, seed, k)
            assert all(type(v) is F for v in stage.map.triple)
            stepped += 1
            chain.stages.append(stage)
            m = stage.map
    assert stepped > 30 and left > 0


@pytest.mark.parametrize("t,order,gaps,message,detail", [
    # stage 1 is induced on (1/21)Z, then the stage-1 triple ties at step 2
    (triple(F(7, 3), F(4, 3), F(2, 3)), OrderTag("second", True), (F(1, 7), F(0)),
     "a-b-c = 1/3 ties another entry of (4/3,2/3,1/3)",
     {"reason": "tie", "at_step": 2}),
    # seven stages on (1/6)Z, then a-b-c turns negative
    (reconstruct_triple((I, II, III, I, II), seed=triple(F(5, 2), F(3, 2), F(1, 3))),
     OrderTag("third"), (F(0), F(0)),
     "a-b-c = -1/6 is not positive for (2/3,1/2,1/3)",
     {"reason": "nonpositive", "at_step": 8}),
])
def test_not_in_gasket_off_the_integer_lattice(t, order, gaps, message, detail):
    m = build_ar9(t, order, gaps=gaps)
    assert m.lattice.D > 1
    with pytest.raises(NotInGasket) as exc:
        iterate_induction(StageChain(m), 10)
    assert str(exc.value) == message
    assert exc.value.detail == detail


# the new block of each span of J_a (I_1, Omega', I_4) per case, as role
# indices 0 = Omega, 1 = Omega', 2 = Omega'': the paper's transition table
SPAN_ROLES = {I: (2, 0, 1), II: (0, 2, 1), III: (0, 1, 2)}


def _reference_stage_map(parent, stage):
    """The stage map rebuilt by the Fraction builder from the spans of J_a
    in the parent's Fraction view."""
    dom = parent.domain
    spans = (dom["1"].left, min(dom["2"].left, dom["3"].left), dom["4"].left)
    placements = [None] * 3
    for start, role in zip(spans, SPAN_ROLES[stage.case]):
        placements[role] = start
    reversed_ = parent.order.reversed != (stage.case is II)
    return ar9_from_placements(stage.map.triple, placements, reversed_)


def _views(m):
    """The Fraction views of a map, which do not depend on its lattice."""
    return m.triple, m.order, m.domain, m.offsets


def test_stages_of_a_map_held_on_a_doubled_lattice():
    # every stage is laid out on the chain's stage-0 lattice, twice as fine
    # as the builder's: the stages are not the builder's maps, but read as them
    m = build_ar9(reconstruct_triple((I, II, III, I, II, III, I)))
    parent = Ar9Map(m.order, m.lattice.refined(2 * m.lattice.D))
    chain = StageChain(parent)
    for stage in iterate_induction(chain, 7):
        reference = _reference_stage_map(parent, stage)
        assert _views(stage.map) == _views(reference), stage.index
        assert stage.map.lattice.D == chain.m0.lattice.D == 2 * reference.lattice.D
        assert stage.map != reference
        parent = stage.map


@pytest.mark.parametrize("order", ORDER_TAGS, ids=str)
@pytest.mark.parametrize("gapped", (False, True), ids=("adjacent", "gapped"))
@pytest.mark.parametrize("scale", (1, 6), ids=("builder", "refined"))
def test_every_stage_is_held_on_the_chain_lattice(order, gapped, scale):
    rng = random.Random(f"chain-lattice/{order}/{gapped}")
    prefix = tuple(rng.choice((I, II, III)) for _ in range(10))
    gaps = (F(rng.randint(1, 9), rng.randint(2, 7)), F(rng.randint(1, 9), rng.randint(2, 7))) \
        if gapped else (F(0), F(0))
    m = build_ar9(reconstruct_triple(prefix, seed=triple(F(5, 2), F(3, 2), F(1, 3))),
                  order, gaps)
    m0 = parent = Ar9Map(m.order, m.lattice.refined(scale * m.lattice.D))
    assert _views(m0) == _views(m)
    chain = StageChain(m0)
    for stage in iterate_induction(chain, len(prefix)):
        assert stage.map.lattice.D == chain.m0.lattice.D == scale * m.lattice.D
        assert _views(stage.map) == _views(_reference_stage_map(parent, stage)), stage.index
        parent = stage.map


def test_stage_maps_match_the_fraction_builder():
    rng = random.Random(67)
    seeds = (triple(4, 2, 1), triple(F(5, 2), F(3, 2), F(1, 3)), triple(F(9, 7), F(4, 5), F(1, 3)))
    reduced = compared = 0
    for trial in range(36):
        prefix = tuple(rng.choice((I, II, III)) for _ in range(rng.randint(3, 9)))
        t = reconstruct_triple(prefix, seed=seeds[trial % 3])
        gaps = (F(0), F(0)) if trial % 2 else (F(1, 5), F(3, 2))
        m = build_ar9(t, ORDER_TAGS[trial % 6], gaps=gaps)
        if trial % 4 == 3:
            # the same map held on a finer lattice than it needs: its
            # induced maps stay on it, finer than the builder's
            m = Ar9Map(m.order, m.lattice.refined(2 * 3 * m.lattice.D))
        parent = m
        for stage in iterate_induction(StageChain(m), len(prefix)):
            reference = _reference_stage_map(parent, stage)
            assert _views(stage.map) == _views(reference), (trial, stage.index)
            assert stage.map.lattice.D == m.lattice.D
            reduced += reference.lattice.D < stage.map.lattice.D
            compared += 1
            parent = stage.map
    assert compared > 200
    assert reduced > 0


# --- block stages: one checked stage per partial quotient ---------------------

def _seeded_blocks(rng: random.Random, order: OrderTag, gapped: bool):
    """A seeded system and its partial quotients: k <= 9, rules I and II,
    and a seed triple on a lattice with D > 1."""
    while True:
        seed = triple(*sorted((F(rng.randint(1, 60), rng.randint(2, 9)) for _ in range(3)),
                              reverse=True))
        if seed.a > seed.b > seed.c:
            break
    blocks = rng.randint(1, 5)
    pq = PartialQuotients(tuple(rng.randint(1, 9) for _ in range(blocks)),
                          tuple(rng.choice((I, II)) for _ in range(blocks)))
    gaps = tuple(F(rng.randint(1, 9), rng.randint(2, 7)) for _ in range(2)) if gapped \
        else (F(0), F(0))
    return build_ar9(reconstruct_triple(pq.expand(), seed=seed), order, gaps=gaps), pq


@pytest.mark.parametrize("order", ORDER_TAGS, ids=str)
@pytest.mark.parametrize("gapped", (False, True), ids=("adjacent", "gapped"))
def test_block_stages_equal_the_additive_stages(order, gapped):
    # at every multiplicative time the block stage is the additive stage,
    # map and integer triple
    rng = random.Random(f"blocks/{order}/{gapped}")
    for _ in range(10):
        m, pq = _seeded_blocks(rng, order, gapped)
        chain = StageChain(m)
        stages = iterate_induction(chain, pq.times[-1])
        block, abc = m, chain.triples[0]
        for n, (k, rule, time) in enumerate(zip(pq.ks, pq.rules, pq.times), 1):
            block, abc = block_stage(block, abc, k, rule, n)
            assert block == stages[time - 1].map, (pq, n)
            assert abc == chain.triples[time], (pq, n)


def test_a_block_closed_by_a_held_step_is_the_same_stage(monkeypatch):
    # the closing step that a chain already holds is read, not taken again,
    # and the stage is checked as before
    rng = random.Random("blocks/closing")
    cases = []
    for order in ORDER_TAGS:
        m, pq = _seeded_blocks(rng, order, True)
        chain = StageChain(m)
        iterate_induction(chain, pq.times[-1])
        cases.append((m, pq, chain))
    monkeypatch.setattr(induction, "ar_step", None)
    for m, pq, chain in cases:
        block, abc = m, chain.triples[0]
        for n, (k, rule, time) in enumerate(zip(pq.ks, pq.rules, pq.times), 1):
            closing = (chain.triples[time], chain.cases[time - 1])
            if time < pq.times[-1]:  # a triple one step on is not the closing one
                with pytest.raises(RuntimeError, match=rf"^block {n} \(k = {k}, rule {rule}\): "):
                    block_stage(block, abc, k, rule, n, (chain.triples[time + 1], rule))
            block, abc = block_stage(block, abc, k, rule, n, closing)
            assert block == chain.stages[time - 1].map, (pq, n)
            assert abc == chain.triples[time], (pq, n)


def test_meets_is_the_progression_scan():
    rng = random.Random("meets")
    for _ in range(2000):
        regions = ((0, rng.randint(1, 9)), (rng.randint(12, 20), rng.randint(21, 30)))
        x, length = rng.randint(-40, 40), rng.randint(1, 5)
        offset, count = rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 6)
        scan = any(left + length > u and left < v
                   for left in (x + j * offset for j in range(1, count + 1))
                   for u, v in regions)
        assert _meets(regions, x, offset, length, count) == scan


def _block_two():
    """Block 2 of (3, 4, 2) with rules I, II, I on a gapped first-order map:
    the stage at m_1 and its integer triple."""
    pq = PartialQuotients((3, 4, 2), (I, II, I))
    m = build_ar9(reconstruct_triple(pq.expand()), gaps=(F(1, 3), F(2, 5)))
    chain = StageChain(m)
    return iterate_induction(chain, 3)[-1].map, chain.triples[3], 4, II


def _patched_factors(monkeypatch, change):
    real = induction._mult_factors_a9
    monkeypatch.setattr(induction, "_mult_factors_a9",
                        lambda rule, k: change(real(rule, k)))


@pytest.mark.parametrize("delta", (-1, 1))
def test_a_block_word_with_one_exponent_off_by_one_fails(monkeypatch, delta):
    m, abc, k, rule = _block_two()
    block_stage(m, abc, k, rule, 2)
    for ch in A9:
        for r in range(len(induction._mult_factors_a9(rule, k)[ch])):
            def change(table, ch=ch, r=r):
                letter, e = table[ch][r]
                table[ch][r] = (letter, e + delta)
                return table

            with monkeypatch.context() as patch:
                _patched_factors(patch, change)
                with pytest.raises(RuntimeError, match=r"^block 2 \(k = 4, rule II\): "):
                    block_stage(m, abc, k, rule, 2)


def test_a_run_whose_last_translate_leaves_its_piece_fails(monkeypatch):
    m, abc, k, rule = _block_two()

    def longer(table):  # rule II: 2 -> 4^k 6, one more 4
        table["2"][0] = ("4", k + 1)
        return table

    _patched_factors(monkeypatch, longer)
    with pytest.raises(RuntimeError, match=r"^block 2 \(k = 4, rule II\): "
                                           r"piece 2 leaves piece 4 in its run$"):
        block_stage(m, abc, k, rule, 2)


def test_an_early_return_fails(monkeypatch):
    # a word that runs on past its return: the image it really lands on
    # meets the new domain before the word ends
    m, abc, k, rule = _block_two()

    def runs_on(table):
        table["8"] = table["8"] + [("1", 1)]
        return table

    _patched_factors(monkeypatch, runs_on)
    with pytest.raises(RuntimeError, match=r"^block 2 \(k = 4, rule II\): "
                                           r"piece 8 meets the new domain before it returns$"):
        block_stage(m, abc, k, rule, 2)


@pytest.mark.parametrize("role", (0, 1, 2))
@pytest.mark.parametrize("unit", (-1, 1))
def test_a_block_start_moved_by_one_unit_fails(monkeypatch, role, unit):
    m, abc, k, rule = _block_two()
    real = induction._lay_out

    def moved(D, t, starts, reversed_):
        starts = list(starts)
        starts[role] += unit
        return real(D, t, starts, reversed_)

    monkeypatch.setattr(induction, "_lay_out", moved)
    with pytest.raises(RuntimeError, match=r"^block 2 \(k = 4, rule II\): piece \d "):
        block_stage(m, abc, k, rule, 2)


def test_a_piece_offset_of_zero_is_a_fault():
    # the progression test divides by the offset, so a fixed piece is refused
    m, abc, k, rule = _block_two()
    lat = m.lattice
    i = lat.letters.index("1")  # rule II: 1 -> 1^k 7
    offsets = lat.offsets[:i] + (0,) + lat.offsets[i + 1:]
    fixed = Ar9Map(m.order, Lattice(lat.D, lat.lefts, lat.rights, lat.letters, offsets))
    with pytest.raises(RuntimeError, match=r"^block 2 \(k = 4, rule II\): "
                                           r"piece 1 of the previous stage has offset 0$"):
        block_stage(fixed, abc, k, rule, 2)


@pytest.mark.parametrize("k,rule,check", [
    (5, II, r"the triple \(.*\) does not take 4 steps of case III"),
    (3, II, r"the closing step is of case III"),
    (4, I, r"the closing step is of case II"),
])
def test_a_block_that_disagrees_with_the_triple_fails(k, rule, check):
    m, abc, _, _ = _block_two()
    with pytest.raises(RuntimeError, match=rf"^block 2 \(k = {k}, rule {rule}\): {check}$"):
        block_stage(m, abc, k, rule, 2)
