"""Differential test of the integer stage builder against a Fraction builder.

`ref_from_placements` below lays the pieces out with Fraction arithmetic,
one block at a time, and checks overlap, order, block ends and image lengths
on Fractions, then derives its own lattice from the Fraction tables.
`ar9_from_placements` must give the same lattice, Fraction views equal to
the reference's tables, keyed in A9 order, and raise the same errors.
Inputs: the six arrangements, adjacent and gapped, at origin 0 and off it,
each with its own seeded random prefix, and the stage maps that induction
builds from them.
"""
from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import ar_iet.iet as iet
from ar_iet.gasket import Sym, reconstruct_triple, require_admissible, triple
from ar_iet.iet import (
    ORDER_TAGS,
    Interval,
    Lattice,
    ar9_from_placements,
    build_ar9,
    screen_roles,
)
from ar_iet.induction import StageChain, iterate_induction
from ar_iet.words import A9

F = Fraction
CASES = [(order, gapped, origin)
         for order in ORDER_TAGS for gapped in (False, True) for origin in (False, True)]
# the arrangement of each left-to-right role sequence, inverted here from
# screen_roles rather than read from the builder's table
ORDER_OF_ROLES = {screen_roles(tag): tag for tag in ORDER_TAGS}


def ref_from_placements(t, placements, reversed_):
    require_admissible(t)
    placements = tuple(F(p) for p in placements)
    a, b, c = t
    lens = (a + b, b + c, a + c)
    blocks = [Interval(p, p + lens[r]) for r, p in enumerate(placements)]
    for r in range(3):
        for s in range(r + 1, 3):
            if blocks[r].left < blocks[s].right and blocks[s].left < blocks[r].right:
                raise ValueError(f"role blocks {r} and {s} overlap: {blocks[r]} {blocks[s]}")
    roles = tuple(sorted(range(3), key=lambda r: placements[r]))
    order = ORDER_OF_ROLES[roles]
    if order.reversed != reversed_:
        raise ValueError(
            f"block arrangement {roles} implies reversed={order.reversed}, got {reversed_}"
        )
    dom_layout, img_layout = iet._piece_layout(t)
    domain, image = {}, {}
    for role in range(3):
        for layout, target in ((dom_layout, domain), (img_layout, image)):
            pieces = layout[role]
            if reversed_:
                pieces = tuple(reversed(pieces))
            x = placements[role]
            for ch, length in pieces:
                target[ch] = Interval(x, x + length)
                x += length
            if x != blocks[role].right:
                raise RuntimeError(f"pieces of block {role} end at {x}, "
                                   f"not at {blocks[role].right}")
    for ch in A9:
        if image[ch].length != domain[ch].length:
            raise RuntimeError(f"piece {ch} and its image differ in length")
    offsets = {ch: image[ch].left - domain[ch].left for ch in A9}
    # the lattice: the smallest D that holds every piece end and offset, with
    # the pieces sorted by left end
    D = math.lcm(*(v.denominator for ch in A9 for v in (*domain[ch], offsets[ch])))
    lattice = Lattice.sorted_from(D, (
        (int(domain[ch].left * D), int(domain[ch].right * D), ch, int(offsets[ch] * D))
        for ch in A9))
    return SimpleNamespace(triple=t, order=order, placements=placements, domain=domain,
                           image=image, offsets=offsets, lattice=lattice)


def placements(m):
    """Left ends of the blocks by role."""
    return tuple(block.left for block in m.role_blocks)


def assert_same_map(got, want):
    assert placements(got) == want.placements
    for field in ("triple", "order", "domain", "image", "offsets"):
        g, w = getattr(got, field), getattr(want, field)
        assert g == w, field
        if isinstance(w, dict):
            assert list(g) == list(A9), f"{field} key order"
    assert got.lattice == want.lattice


@pytest.mark.parametrize("order,gapped,origin", CASES,
                         ids=[f"{o}-{'gapped' if g else 'adjacent'}-{'off' if s else 'zero'}"
                              for o, g, s in CASES])
def test_builder_matches_fraction_reference(order, gapped, origin):
    rng = random.Random(f"builder/{order}/{gapped}/{origin}")
    prefix = tuple(Sym(rng.randint(1, 3)) for _ in range(rng.randint(6, 14)))
    t = reconstruct_triple(prefix)
    gaps = ((F(rng.randint(1, 9), rng.randint(2, 12)), F(rng.randint(1, 9), rng.randint(2, 12)))
            if gapped else (F(0), F(0)))
    shift = F(rng.choice((-1, 1)) * rng.randint(1, 50), rng.choice((1, 997, 2**61)))
    m = build_ar9(t, order, gaps, shift if origin else F(0))
    maps = [m] + [stage.map for stage in iterate_induction(StageChain(m), rng.randint(1, 4))]
    for each in maps:
        blocks = placements(each)
        args = (each.triple, blocks, each.order.reversed)
        assert_same_map(ar9_from_placements(*args), ref_from_placements(*args))

        # overlapping blocks and a wrong mirror flag raise the same text
        starts = sorted(blocks)
        overlapping = [starts[0], starts[0] + each.triple.c, starts[2]]
        wrong_flag = (each.triple, blocks, not each.order.reversed)
        for bad in ((each.triple, overlapping, False), (each.triple, overlapping, True),
                    wrong_flag):
            with pytest.raises(ValueError) as want:
                ref_from_placements(*bad)
            with pytest.raises(ValueError) as got:
                ar9_from_placements(*bad)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("prefix", [(Sym.I,) * 6, (Sym.I, Sym.II, Sym.I, Sym.III, Sym.I)])
def test_blocks_overlapping_by_one_lattice_unit(prefix):
    a, b, c = t = reconstruct_triple(prefix)
    unit = F(1, 997 * math.lcm(a.denominator, b.denominator, c.denominator))
    touching = (F(0), a + b, a + 2 * b + c)
    assert_same_map(ar9_from_placements(t, touching, False),
                    ref_from_placements(t, touching, False))
    overlapping = (F(0), a + b - unit, a + 2 * b + c)
    with pytest.raises(ValueError) as want:
        ref_from_placements(t, overlapping, False)
    with pytest.raises(ValueError) as got:
        ar9_from_placements(t, overlapping, False)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("order", ORDER_TAGS, ids=str)
def test_each_neighbouring_pair_overlapping_by_one_unit(order):
    # move each block but the leftmost one lattice unit onto its left
    # neighbour: the middle block meets the first, the last the middle
    t = reconstruct_triple((Sym.I, Sym.II, Sym.III, Sym.I))
    m = build_ar9(t, order)
    unit = F(1, m.lattice.D)
    for role in screen_roles(order)[1:]:
        overlapping = list(placements(m))
        overlapping[role] -= unit
        with pytest.raises(ValueError) as want:
            ref_from_placements(t, overlapping, order.reversed)
        with pytest.raises(ValueError) as got:
            ar9_from_placements(t, overlapping, order.reversed)
        assert str(got.value) == str(want.value)
        assert "overlap" in str(got.value)


# --- the map is its lattice -------------------------------------------------------

@pytest.mark.parametrize("order", ORDER_TAGS, ids=str)
def test_rebuilt_map_is_equal_and_hashes_equal(order):
    rng = random.Random(f"rebuild/{order}")
    t = reconstruct_triple(tuple(Sym(rng.randint(1, 3)) for _ in range(10)))
    m = build_ar9(t, order, (F(1, 997), F(2, 3)), F(-5, 2**61))
    for each in [m] + [stage.map for stage in iterate_induction(StageChain(m), 4)]:
        again = ar9_from_placements(each.triple, placements(each), each.order.reversed)
        assert again == each
        assert hash(again) == hash(each)
        assert len({again, each}) == 1


@pytest.mark.parametrize("order", ORDER_TAGS, ids=str)
@pytest.mark.parametrize("gapped", (False, True), ids=("adjacent", "gapped"))
def test_triple_is_read_off_the_pieces(order, gapped):
    rng = random.Random(f"triple-view/{order}/{gapped}")
    gaps = (F(rng.randint(1, 9), rng.randint(2, 7)), F(rng.randint(1, 9), rng.randint(2, 7))) \
        if gapped else (F(0), F(0))
    for seed in (None, triple(F(5, 2), F(3, 2), F(1, 3))):
        prefix = tuple(Sym(rng.randint(1, 3)) for _ in range(rng.randint(3, 10)))
        t = reconstruct_triple(prefix) if seed is None else reconstruct_triple(prefix, seed=seed)
        m = build_ar9(t, order, gaps, F(rng.randint(-9, 9), 7))
        assert [field.name for field in dataclasses.fields(m)] == ["order", "lattice"]
        assert m.triple == t
        assert all(type(v) is F for v in m.triple)
        for scale in (2, 6, 997):
            fine = dataclasses.replace(m, lattice=m.lattice.refined(scale * m.lattice.D))
            assert fine.triple == t


def test_replaced_lattice_carries_the_views():
    m = build_ar9(reconstruct_triple((Sym.I, Sym.II, Sym.I, Sym.III)))
    assert m.domain and m.image and m.offsets and m.role_blocks  # views built on m
    lat = m.lattice
    shifted = Lattice(lat.D, tuple(v + 3 for v in lat.lefts), tuple(v + 3 for v in lat.rights),
                      lat.letters, lat.offsets)
    moved = dataclasses.replace(m, lattice=shifted)
    step = F(3, lat.D)
    assert moved.lattice is shifted
    assert moved.domain == {ch: m.domain[ch].translate(step) for ch in A9}
    assert moved.image == {ch: m.image[ch].translate(step) for ch in A9}
    assert moved.offsets == m.offsets
    assert moved.role_blocks == tuple(b.translate(step) for b in m.role_blocks)
    assert moved != m
