"""Nine-piece line exchanges, six-arc circle exchanges, and the gluing."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

import ar_iet.iet as iet
import ar_iet.induction as induction
from ar_iet.errors import Inadmissible, OutOfDomain
from ar_iet.gasket import Sym, Triple, reconstruct_triple, triple
from ar_iet.iet import (
    FIRST_ORDER,
    ORDER_TAGS,
    Interval,
    OrderTag,
    ar6_apply,
    ar6_rotation_match,
    ar9_apply,
    build_ar6_canonical,
    build_ar9,
    ar9_from_placements,
    first_order_adjacent,
    glue_point,
    glue_to_ar6,
    order_from_roles,
    parse_order,
    screen_roles,
    trajectory,
)
from ar_iet.words import A9

I, II, III = Sym.I, Sym.II, Sym.III

F = Fraction


def iv(left, right) -> Interval:
    return Interval(F(left), F(right))


def placements(m):
    """Left ends of the blocks by role."""
    return tuple(block.left for block in m.role_blocks)


def arcs_and_offsets(c):
    """Arc pieces by label 0..5, sorted by left end, and the offsets by label."""
    lat = c.lattice
    arcs = tuple(tuple(lat.interval(left, right) for left, right, label, _ in lat.rows()
                       if label == arc) for arc in range(6))
    return arcs, tuple(F(lat.by_label()[arc][2], lat.D) for arc in range(6))


def random_triple(rng: random.Random, lo=1, hi=10):
    prefix = tuple(rng.choice((I, II, III)) for _ in range(rng.randint(1, lo + 5)))
    return reconstruct_triple(prefix)


def test_order_tags_are_six_permutations():
    seqs = {screen_roles(tag) for tag in ORDER_TAGS}
    assert len(seqs) == 6
    assert screen_roles(OrderTag("first")) == (0, 1, 2)
    assert screen_roles(OrderTag("second")) == (1, 2, 0)
    assert screen_roles(OrderTag("third")) == (2, 0, 1)
    assert screen_roles(OrderTag("second", True)) == (0, 2, 1)
    for tag in ORDER_TAGS:
        assert order_from_roles(screen_roles(tag)) == tag


def test_parse_order():
    assert parse_order("first") == OrderTag("first", False)
    assert parse_order("reversed-second") == OrderTag("second", True)
    assert parse_order("REVERSED_THIRD") == OrderTag("third", True)
    with pytest.raises(ValueError):
        parse_order("fourth")


def test_build_742_first_order_full_table():
    m = build_ar9(triple(7, 4, 2))
    assert m.role_blocks == (iv(0, 11), iv(11, 17), iv(17, 26))
    assert m.domain == {
        "7": iv(0, 2), "8": iv(2, 4), "9": iv(4, 6), "1": iv(6, 11),
        "2": iv(11, 13), "3": iv(13, 17),
        "4": iv(17, 20), "5": iv(20, 24), "6": iv(24, 26),
    }
    assert m.image == {
        "1": iv(0, 5), "2": iv(5, 7), "6": iv(7, 9), "7": iv(9, 11),
        "5": iv(11, 15), "9": iv(15, 17),
        "8": iv(17, 19), "3": iv(19, 23), "4": iv(23, 26),
    }


def test_build_rejects_inadmissible():
    with pytest.raises(Inadmissible):
        build_ar9(triple(2, 4, 7))
    with pytest.raises(Inadmissible):
        ar9_from_placements(triple(2, 4, 7), (F(0), F(20), F(40)), False)


def test_build_reversed_second_matches_mirror_layout():
    # left to right: Omega, Omega'', Omega'  with pieces mirrored inside each
    m = build_ar9(triple(7, 4, 2), OrderTag("second", True))
    assert [b.left for b in sorted(m.role_blocks)] == [0, 11, 20]
    assert m.role_blocks[0] == iv(0, 11)   # Omega leftmost
    assert m.role_blocks[2] == iv(11, 20)  # Omega'' middle
    assert m.role_blocks[1] == iv(20, 26)  # Omega' rightmost
    # Omega pieces mirrored: 1, 9, 8, 7
    assert m.domain["1"] == iv(0, 5)
    assert m.domain["9"] == iv(5, 7)
    assert m.domain["8"] == iv(7, 9)
    assert m.domain["7"] == iv(9, 11)
    # Omega'' mirrored: 6, 5, 4 / images 4, 3, 8
    assert m.domain["6"] == iv(11, 13)
    assert m.domain["5"] == iv(13, 17)
    assert m.domain["4"] == iv(17, 20)
    assert m.image["4"] == iv(11, 14)
    assert m.image["3"] == iv(14, 18)
    assert m.image["8"] == iv(18, 20)
    # Omega' mirrored: 3, 2 / images 9, 5
    assert m.domain["3"] == iv(20, 24)
    assert m.domain["2"] == iv(24, 26)
    assert m.image["9"] == iv(20, 22)
    assert m.image["5"] == iv(22, 26)


def test_build_with_gaps_and_origin():
    m = build_ar9(triple(7, 4, 2), FIRST_ORDER, gaps=(F(1, 2), F(3)), origin=F(-2))
    blocks = m.role_blocks
    assert blocks[0] == iv(-2, 9)
    assert blocks[1] == iv(F(19, 2), F(31, 2))
    assert blocks[2] == iv(F(37, 2), F(55, 2))
    with pytest.raises(ValueError):
        build_ar9(triple(7, 4, 2), FIRST_ORDER, gaps=(F(-1), F(0)))


def test_from_placements_derives_order():
    for tag in ORDER_TAGS:
        m = build_ar9(triple(7, 4, 2), tag)
        assert m.order == tag
        again = ar9_from_placements(m.triple, placements(m), tag.reversed)
        assert again.domain == m.domain
        assert again.image == m.image
    with pytest.raises(ValueError):
        # first-order arrangement is not a reversed one
        m = build_ar9(triple(7, 4, 2))
        ar9_from_placements(m.triple, placements(m), True)


def test_from_placements_rejects_overlap():
    with pytest.raises(ValueError):
        ar9_from_placements(triple(7, 4, 2), (F(0), F(5), F(20)), False)


def test_apply_oracles():
    m = build_ar9(triple(7, 4, 2))
    assert ar9_apply(m, F(6)) == (F(0), "1")
    assert ar9_apply(m, F(2)) == (F(17), "8")
    assert ar9_apply(m, F(11)) == (F(5), "2")


def test_apply_out_of_domain():
    m = build_ar9(triple(7, 4, 2), FIRST_ORDER, gaps=(F(1), F(1)))
    with pytest.raises(OutOfDomain):
        ar9_apply(m, F(11))  # inside the first gap
    with pytest.raises(OutOfDomain):
        ar9_apply(m, F(-1))
    with pytest.raises(OutOfDomain):
        ar9_apply(m, F(28))  # right endpoint of the last block


def test_partition_and_measure_preservation_all_orders():
    rng = random.Random(31)
    for tag in ORDER_TAGS:
        for _ in range(4):
            t = random_triple(rng)
            gaps = (F(rng.randint(0, 3)), F(rng.randint(0, 3)))
            m = build_ar9(t, tag, gaps)
            support = sorted(m.role_blocks)
            for table in (m.domain, m.image):
                pieces = sorted(table.values())
                # pieces tile the three blocks exactly
                by_block = []
                idx = 0
                for block in support:
                    run = block.left
                    while (
                        idx < len(pieces)
                        and run < block.right
                        and pieces[idx].left == run
                    ):
                        run = pieces[idx].right
                        idx += 1
                    by_block.append(run == block.right)
                assert all(by_block) and idx == len(pieces)
            for ch in A9:
                assert m.domain[ch].length == m.image[ch].length


def test_trajectory_oracles():
    m = build_ar9(triple(7, 4, 2))
    assert trajectory(m, F(6), 0) == ""
    assert trajectory(m, F(6), 1) == "1"
    assert trajectory(m, F(6), 1, "three") == "a"


def test_triples_of_plain_integers_run_every_path():
    # a Triple of ints, not coerced to Fractions, is stepped, laid out,
    # induced and moved on the line and the circle as its Fraction twin is
    t, twin = Triple(7, 4, 2), triple(7, 4, 2)
    m = build_ar9(t)
    assert m.lattice == build_ar9(twin).lattice
    assert [s.map for s in induction.iterate_induction(induction.StageChain(m), 1)] == [
        s.map for s in induction.iterate_induction(induction.StageChain(build_ar9(twin)), 1)]
    assert trajectory(m, 6, 600) == trajectory(build_ar9(twin), F(6), 600)
    assert ar9_apply(m, 6) == ar9_apply(build_ar9(twin), F(6))
    assert ar6_apply(build_ar6_canonical(t), 6) == ar6_apply(build_ar6_canonical(twin), F(6))


def test_trajectory_refuses_a_negative_length():
    m = build_ar9(triple(7, 4, 2))
    runs = [lambda partition=partition: trajectory(m, F(6), -1, partition)
            for partition in ("nine", "three")]
    # and the jump machinery it codes orbits with
    runs += [lambda: induction.jump_stages(induction.StageChain(m), -1),
             lambda: list(induction.orbit_route(m, [], F(6), -1)),
             lambda: induction.orbit_counts(m, [], F(6), -1)]
    for run in runs:
        with pytest.raises(ValueError, match="orbit length must be nonnegative, got -1"):
            run()


def test_trajectory_checks_the_partition_before_walking(monkeypatch):
    def walk(*args):
        raise AssertionError("the orbit was walked")

    monkeypatch.setattr(iet.Lattice, "walk", walk)
    monkeypatch.setattr(induction, "jump_stages", walk)
    m = build_ar9(triple(7, 4, 2))
    with pytest.raises(ValueError, match="unknown partition 'bogus'"):
        trajectory(m, F(6), 10**7, "bogus")


def test_trajectory_projection_consistency():
    rng = random.Random(37)
    for _ in range(10):
        t = random_triple(rng)
        m = build_ar9(t, ORDER_TAGS[rng.randrange(6)])
        lo = min(b.left for b in m.role_blocks)
        hi = max(b.right for b in m.role_blocks)
        x = lo + (hi - lo) * F(rng.randint(0, 999), 1000)
        try:
            ar9_apply(m, x)
        except OutOfDomain:
            continue
        w9 = trajectory(m, x, 300, "nine")
        w3 = trajectory(m, x, 300, "three")
        from ar_iet.words import project

        assert project(w9, "A3") == w3


def test_glue_742():
    m = build_ar9(triple(7, 4, 2))
    c = glue_to_ar6(m)
    assert c.length == 26
    assert iet.ARC_LETTERS == ("12", "34", "5", "67", "8", "9")
    arcs, offsets = arcs_and_offsets(c)
    # arc a- is the glued I1 u I2, contiguous of length a
    assert arcs[0] == (iv(6, 13),)
    # arc c- is the image of I8 alone
    assert arcs[4] == (iv(2, 4),)
    assert sum(p.length for p in arcs[3]) == 4  # b+ wraps, pieces [24,26) + [0,2)
    assert arcs[3] == (iv(0, 2), iv(24, 26))
    assert offsets == (F(20), F(6), F(17), F(9), F(15), F(11))


def test_glue_point_requires_first_order_adjacent():
    m = build_ar9(triple(7, 4, 2), OrderTag("second"))
    assert not first_order_adjacent(m)
    with pytest.raises(ValueError):
        glue_point(m, F(0))
    assert first_order_adjacent(build_ar9(triple(7, 4, 2)))


def test_gluing_conjugacy_at_sample_points():
    rng = random.Random(41)
    for _ in range(8):
        t = random_triple(rng)
        m = build_ar9(t)
        c = glue_to_ar6(m)
        lo, hi = F(0), c.length
        for _ in range(60):
            x = (hi - lo) * F(rng.randint(0, 10_000), 10_001)
            y9, _ = ar9_apply(m, x)
            y6, _ = ar6_apply(c, glue_point(m, x))
            assert glue_point(m, y9) == y6


def test_glue_normalizes_other_orders():
    t = triple(7, 4, 2)
    base = glue_to_ar6(build_ar9(t))
    for tag in ORDER_TAGS:
        other = glue_to_ar6(build_ar9(t, tag, gaps=(F(1), F(2))))
        assert other == base


def test_canonical_ar6_oracles():
    c = build_ar6_canonical(triple(7, 4, 2))
    assert c.length == 26
    assert ar6_apply(c, F(0)) == (F(20), 0)
    assert ar6_apply(c, F(7)) == (F(13), 1)


def test_canonical_ar6_is_bijection():
    rng = random.Random(43)
    for _ in range(8):
        t = random_triple(rng)
        c = build_ar6_canonical(t)
        arcs, offsets = arcs_and_offsets(c)
        # each arc piece moved by its arc's offset, cut at 0 where it wraps
        images = []
        for label, pieces in enumerate(arcs):
            for p in pieces:
                left = (p.left + offsets[label]) % c.length
                right = left + p.length
                images += [iv(left, right)] if right <= c.length else [
                    iv(left, c.length), iv(0, right - c.length)]
        images.sort()
        run = F(0)
        for p in images:
            assert p.left == run
            run = p.right
        assert run == c.length
        # arc lengths are (a, a, b, b, c, c)
        lens = [sum(p.length for p in pieces) for pieces in arcs]
        assert lens == [t.a, t.a, t.b, t.b, t.c, t.c]


def test_glued_matches_canonical_up_to_rotation():
    rng = random.Random(47)
    for _ in range(10):
        t = random_triple(rng)
        glued = glue_to_ar6(build_ar9(t))
        canon = build_ar6_canonical(t)
        rho = ar6_rotation_match(glued, canon)
        assert rho is not None
        assert rho == t.b + t.c


def test_rotation_match_rejects_different_systems():
    c1 = build_ar6_canonical(triple(7, 4, 2))
    c2 = build_ar6_canonical(triple(9, 4, 2))
    assert ar6_rotation_match(c1, c2) is None


def test_ar6_apply_reduces_mod_length():
    c = build_ar6_canonical(triple(7, 4, 2))
    y, label = ar6_apply(c, F(26))
    assert (y, label) == (F(20), 0)


def _lengthen_first_domain_piece(layout):
    domain, image = layout
    (ch, length), *rest = domain[0]
    return (((ch, length + 1), *rest), *domain[1:]), image


def _swap_first_image_lengths(layout):
    domain, image = layout
    (c1, l1), (c2, l2), *rest = image[0]
    return domain, (((c1, l2), (c2, l1), *rest), *image[1:])


@pytest.mark.parametrize("breakage,message", [
    (_lengthen_first_domain_piece, "pieces of block 0 end at"),
    (_swap_first_image_lengths, "piece 1 and its image differ in length"),
])
def test_broken_piece_layout_raises(monkeypatch, breakage, message):
    real = iet._piece_layout
    monkeypatch.setattr(iet, "_piece_layout", lambda t: breakage(real(t)))
    with pytest.raises(RuntimeError, match=message):
        build_ar9(triple(7, 4, 2))
