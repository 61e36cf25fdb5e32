"""Differential test of the circle builders, the circle lookup and the gluing
against a Fraction reference.

The references below build the circles with Fraction arcs, scan the arcs and
the blocks linearly with Fraction comparisons and reduce mod L by Fraction
arithmetic; they share no code with `Ar6Map.lattice` or the lattice gluing.
Six seeded random triples each give a glued and a canonical circle; points
are arc and block ends, points in wrapped arcs, points beyond L and below 0,
and points over /997 and /2^61.
"""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from ar_iet.errors import OutOfDomain
from ar_iet.gasket import Sym, reconstruct_triple, triple
from ar_iet.iet import (
    ORDER_TAGS,
    Interval,
    Lattice,
    ar6_apply,
    ar6_rotation_match,
    build_ar6_canonical,
    build_ar9,
    first_order_adjacent,
    glue_point,
    glue_to_ar6,
)

F = Fraction
DENOMINATORS = (997, 2**61)


class RefCircle(NamedTuple):
    length: Fraction
    arcs: tuple
    offsets: tuple


def ref_normalize(pieces, L):
    """Reduce mod L, cut at 0, sort, merge adjacent."""
    cut = []
    for p in pieces:
        if p.length <= 0:
            continue
        left = p.left % L
        right = left + p.length
        if right <= L:
            cut.append(Interval(left, right))
        else:
            cut.append(Interval(left, L))
            cut.append(Interval(F(0), right - L))
    cut.sort()
    merged = []
    for p in cut:
        if merged and merged[-1].right == p.left:
            merged[-1] = Interval(merged[-1].left, p.right)
        else:
            merged.append(p)
    return tuple(merged)


def ref_canonical(t):
    a, b, c = t
    L = 2 * (a + b + c)
    bounds = [F(0), a, 2 * a, 2 * a + b, 2 * a + 2 * b, 2 * a + 2 * b + c, L]
    arcs = tuple((Interval(bounds[i], bounds[i + 1]),) for i in range(6))
    offsets = (2 * a + b + c, b + c, a + 2 * b + c, a + c, a + b + 2 * c, a + b)
    return RefCircle(L, arcs, tuple(o % L for o in offsets))


def ref_glued(t):
    m = build_ar9(t)
    L = 2 * (t.a + t.b + t.c)
    arcs, offsets = [], []
    for letters in ("12", "34", "5", "67", "8", "9"):
        pieces, arc_offsets = [], set()
        for ch in letters:
            gl = ref_glue(m, m.domain[ch].left)
            pieces.append(Interval(gl, gl + m.domain[ch].length))
            arc_offsets.add((ref_glue(m, m.image[ch].left) - gl) % L)
        (offset,) = arc_offsets
        arcs.append(ref_normalize(pieces, L))
        offsets.append(offset)
    return RefCircle(L, tuple(arcs), tuple(offsets))


def ref_rotation_match(c1, c2):
    if c1.length != c2.length or c1.offsets != c2.offsets:
        return None
    L = c1.length
    for rho in sorted({(p1.left - p2.left) % L for p1 in c1.arcs[0] for p2 in c2.arcs[0]}):
        if all(ref_normalize((p.translate(rho) for p in c2.arcs[label]), L) == c1.arcs[label]
               for label in range(6)):
            return rho
    return None


def ref_label(c, x):
    x = x % c.length
    for label, pieces in enumerate(c.arcs):
        if any(p.left <= x < p.right for p in pieces):
            return label
    raise OutOfDomain(f"{x} not covered by any arc", point=str(x))


def ref_apply(c, x):
    x = x % c.length
    label = ref_label(c, x)
    return (x + c.offsets[label]) % c.length, label


def ref_glue(m, x):
    a, b, c = m.triple
    lengths = (a + b, b + c, a + c)
    cumulative = (F(0), lengths[0], lengths[0] + lengths[1])
    placements = tuple(block.left for block in m.role_blocks)
    if placements != cumulative:
        raise ValueError("gluing requires the first-order adjacent layout")
    for role, left in enumerate(placements):
        if left <= x < left + lengths[role]:
            return x - left + cumulative[role]
    raise OutOfDomain(f"{x} lies in a gap or outside the domain", point=str(x))


def triples():
    rng = random.Random("circle")
    for _ in range(6):
        prefix = tuple(Sym(rng.randint(1, 3)) for _ in range(rng.randint(4, 14)))
        yield rng, reconstruct_triple(prefix)


def inner_points(rng, pieces, count):
    """Points strictly inside random pieces, over each test denominator."""
    points = []
    for den in DENOMINATORS:
        for _ in range(count):
            p = rng.choice(pieces)
            points.append(p.left + (p.right - p.left) * F(rng.randrange(1, den), den))
    return points


def same_outcome(got, expected):
    """Both calls return equal values, or raise the same error and text."""
    try:
        want = expected()
    except (OutOfDomain, ValueError) as e:
        with pytest.raises(type(e)) as raised:
            got()
        assert str(raised.value) == str(e)
        if isinstance(e, OutOfDomain):
            assert raised.value.detail == e.detail
        return "raised"
    assert got() == want
    return "value"


def views(c):
    """The circle's arc pieces by label and its offsets, read off its lattice."""
    lat = c.lattice
    arcs = tuple(tuple(lat.interval(left, right) for left, right, label, _ in lat.rows()
                       if label == arc) for arc in range(6))
    pieces = lat.by_label()
    return RefCircle(c.length, arcs, tuple(F(pieces[arc][2], lat.D) for arc in range(6)))


@pytest.mark.parametrize("index", range(6))
def test_circle_builders_match_fraction_reference(index):
    rng, t = list(triples())[index]
    gaps = (F(rng.randint(1, 9), rng.randint(2, 12)), F(rng.randint(1, 9), rng.randint(2, 12)))
    glued = [glue_to_ar6(build_ar9(t, order, g)) for order in ORDER_TAGS
             for g in ((F(0), F(0)), gaps)]
    canon = build_ar6_canonical(t)
    for c in glued:
        assert [f.name for f in dataclasses.fields(c)] == ["triple", "lattice"]
        assert views(c) == ref_glued(t)
        # every layout of the line glues to one map, equal and hash equal
        assert c == glued[0] and hash(c) == hash(glued[0])
    assert views(canon) == ref_canonical(t)
    again = build_ar6_canonical(t)
    assert again == canon and hash(again) == hash(canon)

    # a system of the same length but other lengths, and a copy of the
    # canonical circle whose arc 1 is moved by one lattice unit: equal
    # offsets, arcs that no rotation matches
    e = (t.b - t.c) / 3
    other = build_ar6_canonical(triple(t.a + e, t.b - e, t.c))
    moved = dataclasses.replace(canon, lattice=Lattice.sorted_from(canon.lattice.D, (
        (left + (label == 1), right + (label == 1), label, offset)
        for left, right, label, offset in canon.lattice.rows())))
    maps = (glued[0], canon, other, moved, glue_to_ar6(build_ar9(other.triple)))
    matches = [ar6_rotation_match(c1, c2) for c1 in maps for c2 in maps]
    assert matches == [ref_rotation_match(views(c1), views(c2)) for c1 in maps for c2 in maps]
    assert ar6_rotation_match(glued[0], canon) == t.b + t.c
    assert ar6_rotation_match(canon, moved) is None and other.length == canon.length
    assert matches.count(None) >= 10


def test_gluing_raises_when_an_arc_has_two_offsets(monkeypatch):
    import ar_iet.iet as iet

    monkeypatch.setattr(iet, "ARC_LETTERS", ("13", "24", "5", "67", "8", "9"))
    with pytest.raises(RuntimeError, match="pieces of arc 0 disagree on the circle offset"):
        glue_to_ar6(build_ar9(next(triples())[1]))


@pytest.mark.parametrize("index", range(6))
def test_circle_lookup_matches_fraction_reference(index):
    rng, t = list(triples())[index]
    m = build_ar9(t)
    for c in (glue_to_ar6(m), build_ar6_canonical(t)):
        L = c.length
        ref = views(c)
        arcs = ref.arcs
        pieces = [p for arc in arcs for p in arc]
        ends = [v for p in pieces for v in p]
        wrapped = [p for arc in arcs if len(arc) > 1 for p in arc]
        base = ends + inner_points(rng, pieces, 6) + inner_points(rng, wrapped or pieces, 3)
        shifted = [x + k * L for x in base[::3] for k in (1, 2, -1, -3)]
        below = [-F(1, 997), -F(1, 2**61), -L, -L - F(1, 2)]
        for x in base + shifted + below:
            assert same_outcome(lambda: ar6_apply(c, x)[1], lambda: ref_label(ref, x)) == "value"
            assert ar6_apply(c, x) == ref_apply(ref, x)

        # an arc taken out leaves part of the circle uncovered, and the
        # lookup reports the reduced point
        holed = dataclasses.replace(c, lattice=Lattice.sorted_from(
            c.lattice.D, (row for row in c.lattice.rows() if row[2] != 1)))
        ref_holed = ref._replace(arcs=(arcs[0], (), *arcs[2:]))
        hole = inner_points(rng, list(arcs[1]), 2)
        outcomes = {same_outcome(lambda: ar6_apply(holed, x)[1], lambda: ref_label(ref_holed, x))
                    for x in hole + [h + L for h in hole] + [h - L for h in hole]}
        assert outcomes == {"raised"}


@pytest.mark.parametrize("index", range(6))
def test_gluing_matches_fraction_reference(index):
    rng, t = list(triples())[index]
    m = build_ar9(t)
    assert first_order_adjacent(m)
    blocks = m.role_blocks
    ends = [v for b in blocks for v in b]
    outside = [-F(1, 997), -F(1, 2**61), blocks[2].right, blocks[2].right + F(1, 997)]
    inside = inner_points(rng, list(m.domain.values()), 8)
    outcomes = [same_outcome(lambda: glue_point(m, x), lambda: ref_glue(m, x))
                for x in ends + outside + inside]
    # every outside point raises, and so does the domain's right end among the ends
    assert outcomes.count("raised") == len(outside) + 1

    gaps = (F(rng.randint(1, 9), rng.randint(2, 12)), F(rng.randint(1, 9), rng.randint(2, 12)))
    others = [build_ar9(t, order) for order in ORDER_TAGS[1:]]
    others += [build_ar9(t, gaps=gaps), build_ar9(t, origin=F(1, 997))]
    others += [build_ar9(t, order, gaps) for order in ORDER_TAGS]
    for other in others:
        assert not first_order_adjacent(other)
        ends = [v for b in other.role_blocks for v in b]
        for x in ends + inner_points(rng, list(other.domain.values()), 2):
            outcome = same_outcome(lambda: glue_point(other, x), lambda: ref_glue(other, x))
            assert outcome == "raised"
