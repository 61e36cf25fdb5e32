"""Differential test of the circle lookup and the gluing against a Fraction
reference.

The references below scan the arcs and the blocks linearly with Fraction
comparisons and reduce mod L by Fraction arithmetic; they share no code with
`Ar6Map.lattice` or the lattice gluing.  Six seeded random triples each give
a glued and a canonical circle; points are arc and block ends, points in
wrapped arcs, points beyond L and below 0, and points over /997 and /2^61.
"""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from ar_iet.errors import OutOfDomain
from ar_iet.gasket import Sym, reconstruct_triple
from ar_iet.iet import (
    ORDER_TAGS,
    ar6_apply,
    build_ar6_canonical,
    build_ar9,
    first_order_adjacent,
    glue_point,
    glue_to_ar6,
)

F = Fraction
DENOMINATORS = (997, 2**61)


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
    if m.placements != cumulative:
        raise ValueError("gluing requires the first-order adjacent layout")
    for role, left in enumerate(m.placements):
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


@pytest.mark.parametrize("index", range(6))
def test_circle_lookup_matches_fraction_reference(index):
    rng, t = list(triples())[index]
    m = build_ar9(t)
    for c in (glue_to_ar6(m), build_ar6_canonical(t)):
        L = c.length
        pieces = [p for arc in c.arcs for p in arc]
        ends = [v for p in pieces for v in p]
        wrapped = [p for arc in c.arcs if len(arc) > 1 for p in arc]
        base = ends + inner_points(rng, pieces, 6) + inner_points(rng, wrapped or pieces, 3)
        shifted = [x + k * L for x in base[::3] for k in (1, 2, -1, -3)]
        below = [-F(1, 997), -F(1, 2**61), -L, -L - F(1, 2)]
        for x in base + shifted + below:
            assert same_outcome(lambda: c.label_of(x), lambda: ref_label(c, x)) == "value"
            assert ar6_apply(c, x) == ref_apply(c, x)

        # an arc taken out leaves part of the circle uncovered; the lattice
        # of the copy is rebuilt and reports the reduced point
        holed = dataclasses.replace(c, arcs=(c.arcs[0], (), *c.arcs[2:]))
        hole = inner_points(rng, list(c.arcs[1]), 2)
        outcomes = {same_outcome(lambda: holed.label_of(x), lambda: ref_label(holed, x))
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
