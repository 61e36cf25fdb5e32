"""Differential test of the integer lattice core against a Fraction reference.

The reference below finds pieces by a linear scan over the map's Fraction
intervals and translates with Fraction additions; it shares no code with
`Ar9Map.lattice`.  Each of the six arrangements, adjacent and gapped, gets
its own seeded random prefix.
"""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from ar_iet.errors import OutOfDomain
from ar_iet.gasket import Sym, reconstruct_triple
from ar_iet.iet import ORDER_TAGS, build_ar9, trajectory
from ar_iet.induction import iterate_induction
from ar_iet.towers import adjacency_check, partition_check, towers_at_stage
from ar_iet.words import A9

F = Fraction
CASES = [(order, gapped) for order in ORDER_TAGS for gapped in (False, True)]


def ref_letter(m, x):
    for ch in A9:
        if m.domain[ch].contains(x):
            return ch
    raise OutOfDomain(f"{x} lies in a gap or outside the domain", point=str(x))


def ref_trajectory(m, x, n):
    out = []
    for _ in range(n):
        ch = ref_letter(m, x)
        out.append(ch)
        x += m.offsets[ch]
    return "".join(out)


def ref_tower(m0, base, height):
    """Levels and word of a tower pushed with Fraction intervals."""
    levels, letters = [], []
    cur = base
    for _ in range(height):
        ch = ref_letter(m0, cur.left)
        assert cur.right <= m0.domain[ch].right
        levels.append((cur,))
        letters.append(ch)
        cur = cur.translate(m0.offsets[ch])
    return tuple(levels), "".join(letters)


def system(order, gapped):
    rng = random.Random(f"lattice/{order}/{gapped}")
    prefix = tuple(Sym(rng.randint(1, 3)) for _ in range(rng.randint(6, 12)))
    gaps = ((F(rng.randint(1, 9), rng.randint(2, 12)), F(rng.randint(1, 9), rng.randint(2, 12)))
            if gapped else (F(0), F(0)))
    return rng, prefix, build_ar9(reconstruct_triple(prefix), order, gaps)


def off_lattice_points(rng, m, count):
    points = []
    for den in (997, 2**61):
        for _ in range(count):
            piece = m.domain[rng.choice(A9)]
            points.append(piece.left + piece.length * F(rng.randrange(1, den), den))
    return points


@pytest.mark.parametrize("order,gapped", CASES,
                         ids=[f"{o}-{'gapped' if g else 'adjacent'}" for o, g in CASES])
def test_lattice_matches_fraction_reference(order, gapped):
    rng, prefix, m = system(order, gapped)
    support = sorted(m.role_blocks)
    ends = [v for ch in A9 for v in m.domain[ch]]
    outside = [support[0].left - F(1, 997), support[-1].right]
    inside = off_lattice_points(rng, m, 5)
    gap_points = 0
    for x in ends + outside + inside:
        try:
            expected = ref_letter(m, x)
        except OutOfDomain as e:
            gap_points += 1
            for run in (lambda: m.letter_of(x), lambda: trajectory(m, x, 3)):
                with pytest.raises(OutOfDomain) as got:
                    run()
                assert str(got.value) == str(e)
                assert got.value.detail == e.detail
        else:
            assert m.letter_of(x) == expected
    assert gap_points >= (4 if gapped else 2)
    for x in inside:
        assert trajectory(m, x, 200) == ref_trajectory(m, x, 200)

    k = rng.randint(1, min(len(prefix), 6))
    stages = iterate_induction(m, k)
    f = towers_at_stage(m, stages, k)
    for ch in A9:
        tower = f.nine[ch]
        levels, word = ref_tower(m, stages[-1].map.domain[ch], tower.height)
        assert tower.levels == levels
        assert tuple(tower.levels) == levels
        assert tower.word == word
    assert partition_check(f).ok
    assert adjacency_check(f).ok


@pytest.mark.parametrize("order,gapped", CASES[:4],
                         ids=[f"{o}-{'gapped' if g else 'adjacent'}" for o, g in CASES[:4]])
def test_map_on_a_finer_lattice_induces_the_same_stages(order, gapped):
    # the builder lays every stage out on the coarsest lattice, so the stages
    # of a map held on a finer one sit on a coarser lattice than their parent
    rng = random.Random(f"finer/{order}/{gapped}")
    prefix = tuple(Sym(rng.randint(1, 3)) for _ in range(8))
    gaps = (F(1, 7), F(2, 5)) if gapped else (F(0), F(0))
    m = build_ar9(reconstruct_triple(prefix), order, gaps)
    fine = dataclasses.replace(m, lattice=m.lattice.refined(3 * m.lattice.D))
    assert fine.domain == m.domain and fine.image == m.image and fine != m
    got, want = iterate_induction(fine, 5), iterate_induction(m, 5)
    assert [s.map for s in got] == [s.map for s in want]
    assert [s.return_words for s in got] == [s.return_words for s in want]
    for k in (1, 5):
        f, g = towers_at_stage(fine, got, k), towers_at_stage(m, want, k)
        for ch in A9:
            assert f.nine[ch].base == g.nine[ch].base
            assert f.nine[ch].levels == g.nine[ch].levels
