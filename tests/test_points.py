"""Differential test of the point path: `ar9_apply`, `ar6_apply` and
`glue_point` against a Fraction reference.

The reference reads each map's pieces off `lattice.rows()` as Fractions,
scans them linearly with Fraction comparisons and translates by Fraction
additions, reducing mod L on the circle; it shares no code with
`Lattice.step` or the integer bound of `glue_point`.  Each of the six
arrangements, adjacent at origin 0 and gapped at a negative origin, gets its
own seeded prefix, and is laid out once more for the triple (5/2, 3/2, 1/3),
whose lattice is (1/6)Z, so that the glued layout is checked off the
integers too.  Each is probed on the lattice refined to hold the
denominators 997, 2^61 - 1 and 2^127 - 1.

`_fraction`, the one constructor of the images, is compared with
`Fraction` itself.
"""
from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest

from ar_iet.errors import OutOfDomain
from ar_iet.gasket import Sym, Triple, reconstruct_triple
from ar_iet.iet import (
    FIRST_ORDER,
    ORDER_TAGS,
    _fraction,
    ar6_apply,
    ar9_apply,
    build_ar6_canonical,
    build_ar9,
    glue_point,
    glue_to_ar6,
)
from ar_iet.words import A9

F = Fraction
DENOMINATORS = (997, 2**61 - 1, 2**127 - 1)
# on (1/6)Z; None draws a seeded triple
OFF_INTEGERS = Triple(F(5, 2), F(3, 2), F(1, 3))
CASES = [(order, gapped, t) for t in (None, OFF_INTEGERS)
         for order in ORDER_TAGS for gapped in (False, True)]


def ref_rows(lattice):
    return [(F(left, lattice.D), F(right, lattice.D), label, F(offset, lattice.D))
            for left, right, label, offset in lattice.rows()]


def ref_ar9_apply(m, x):
    for left, right, ch, offset in ref_rows(m.lattice):
        if left <= x < right:
            return x + offset, ch
    raise OutOfDomain(f"{x} lies in a gap or outside the domain", point=str(x))


def ref_ar6_apply(c, x):
    L = c.length
    y = x % L
    for left, right, label, offset in ref_rows(c.lattice):
        if left <= y < right:
            return (y + offset) % L, label
    raise OutOfDomain(f"{y} not covered by any arc", point=str(y))


def ref_glue_point(m, x):
    rows = ref_rows(m.lattice)
    a, b, c = m.triple
    # first order, from 0, and no gaps: the pieces fill [0, 2(a + b + c))
    filled = sum(right - left for left, right, _, _ in rows) == 2 * (a + b + c)
    if m.order != FIRST_ORDER or min(rows)[0] != 0 or not filled:
        raise ValueError("gluing requires the first-order adjacent layout")
    ref_ar9_apply(m, x)
    return x


def outcome(got, expected):
    """Both calls return equal values, or raise the same error, text and detail."""
    try:
        want = expected()
    except (OutOfDomain, ValueError) as e:
        with pytest.raises(type(e)) as raised:
            got()
        assert type(raised.value) is type(e)
        assert str(raised.value) == str(e)
        assert getattr(raised.value, "detail", None) == getattr(e, "detail", None)
        return "raised"
    assert got() == want
    return "value"


def system(order, gapped, t=None):
    rng = random.Random(f"points/{order}/{gapped}")
    seeded = reconstruct_triple(tuple(Sym(rng.randint(1, 3)) for _ in range(rng.randint(6, 12))))
    t = seeded if t is None else t
    if not gapped:
        return build_ar9(t, order)
    gaps = (F(rng.randint(1, 9), rng.randint(2, 12)), F(rng.randint(1, 9), rng.randint(2, 12)))
    return build_ar9(t, order, gaps, -t.a - F(rng.randint(1, 9), rng.randint(2, 12)))


def piece_points(lattice):
    """Each piece's left end and the point one lattice unit below its right end."""
    return [F(v, lattice.D) for left, right, _, _ in lattice.rows() for v in (left, right - 1)]


@pytest.mark.parametrize("order,gapped,t", CASES,
                         ids=[f"{o}-{'gapped' if g else 'adjacent'}{'' if t is None else '-d6'}"
                              for o, g, t in CASES])
def test_point_path_matches_fraction_reference(order, gapped, t):
    m = system(order, gapped, t)
    glued = order == FIRST_ORDER and not gapped
    if t is not None:
        assert m.lattice.D % 6 == 0
    for q in DENOMINATORS:
        lat = m.lattice.refined(q)
        support = lat.union(A9)
        assert len(support) == (3 if gapped else 1)
        # one unit below each block and at each block's right end: in a gap
        # or outside the support
        outside = [F(v, lat.D) for left, right in support for v in (left - 1, right)]
        points = piece_points(lat) + outside
        line = [outcome(lambda: ar9_apply(m, x), lambda: ref_ar9_apply(m, x)) for x in points]
        assert line.count("raised") == len(outside)
        glue = {outcome(lambda: glue_point(m, x), lambda: ref_glue_point(m, x))
                for x in points}
        assert glue == ({"value", "raised"} if glued else {"raised"})
        if gapped:
            # the gapped layouts reach below 0, where a reduced image would differ
            assert any(ar9_apply(m, x)[0] < 0 for x in piece_points(lat))
        if t is not None:
            # off the integers, some images reduce by a gcd above 1, where an
            # unreduced image would differ
            assert any(y.denominator < x.denominator * m.lattice.D
                       for x in piece_points(lat) for y in [ar9_apply(m, x)[0]])

        for c in (glue_to_ar6(m), build_ar6_canonical(m.triple)):
            L = c.length
            circle = c.lattice.refined(q)
            unit = F(1, circle.D)
            base = piece_points(circle)
            shifted = [x + k * L for x in base for k in (-2, -1, 1, 2)]
            edges = [-unit, -L, -L - unit, L, L + unit, 3 * L - unit]
            for x in base + shifted + edges:
                assert outcome(lambda: ar6_apply(c, x), lambda: ref_ar6_apply(c, x)) == "value"
            # some images wrap past L, where an unreduced image would differ
            assert any(x + F(offset, circle.D) >= L
                       for x, (_, _, _, offset) in zip(base[::2], circle.rows()))


def test_reduced_constructor_is_the_fraction_of_its_ratio():
    rng = random.Random("points/_fraction")
    numerators = (0, 1, -1, -12, 2**300, -(2**300) + 1)
    denominators = (1, 2, 2**64, 2**300, 997 * 6, 2**127 - 1)
    pairs = [(n, d) for n in numerators for d in denominators]
    pairs += [(rng.randint(-2**300, 2**300), rng.randint(1, 2**300)) for _ in range(200)]
    # n and d sharing a large factor
    pairs += [(f * rng.randint(-2**40, 2**40), f * rng.randint(1, 2**40))
              for f in (2**127 - 1, 3**150, 997 * 2**100) for _ in range(20)]
    reduced = 0
    for n, d in pairs:
        got, want = _fraction(n, d), F(n, d)
        assert type(got) is F
        assert got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert type(got.numerator) is int and type(got.denominator) is int
        assert hash(got) == hash(want)
        assert (str(got), repr(got)) == (str(want), repr(want))
        back = pickle.loads(pickle.dumps(got))
        assert type(back) is F
        assert (back.numerator, back.denominator) == (want.numerator, want.denominator)
        total, expected = got + F(1, 3), want + F(1, 3)
        assert (total.numerator, total.denominator) == (expected.numerator, expected.denominator)
        reduced += want.denominator < d
    assert reduced >= 60
