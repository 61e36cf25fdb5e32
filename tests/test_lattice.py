"""Differential test of the integer lattice core against a Fraction reference.

The reference below finds pieces by a linear scan over the map's Fraction
intervals and translates with Fraction additions; it shares no code with
`Ar9Map.lattice`.  Each of the six arrangements, adjacent and gapped, gets
its own seeded random prefix.

`Lattice.walk` is compared with step-by-step `Lattice.push`, the column
towers with `ref_tower`, the component counts and bases of their
three-letter unions with `ref_merge`, and `partition_check` with
`ref_partition`, the sorted-pairs sweep it used to run on every family.
"""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from ar_iet.errors import OutOfDomain
from ar_iet.gasket import Sym, reconstruct_triple
from ar_iet.iet import ORDER_TAGS, _merge, ar9_apply, build_ar9, trajectory
from ar_iet.induction import StageChain, iterate_induction
from ar_iet.towers import (
    PartitionReport,
    adjacency_check,
    level_component_counts,
    partition_check,
    tower_families,
)
from ar_iet.words import A3_MEMBERS, A9

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
        levels.append(cur)
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
            for run in (lambda: ar9_apply(m, x)[1], lambda: trajectory(m, x, 3)):
                with pytest.raises(OutOfDomain) as got:
                    run()
                assert str(got.value) == str(e)
                assert got.value.detail == e.detail
        else:
            assert ar9_apply(m, x)[1] == expected
    assert gap_points >= (4 if gapped else 2)
    for x in inside:
        assert trajectory(m, x, 200) == ref_trajectory(m, x, 200)

    k = rng.randint(1, min(len(prefix), 6))
    chain = StageChain(m)
    stages = iterate_induction(chain, k)
    [f] = tower_families(chain, k, k)
    for ch in A9:
        tower = f.nine[ch]
        levels, word = ref_tower(m, stages[-1].map.domain[ch], tower.height)
        assert f.levels(ch) == levels
        assert tower.word == word
    assert partition_check(f).ok
    assert adjacency_check(f).ok


def views(m):
    """The Fraction views of a map, which do not depend on its lattice."""
    return m.triple, m.order, m.domain, m.offsets


@pytest.mark.parametrize("order,gapped", CASES[:4],
                         ids=[f"{o}-{'gapped' if g else 'adjacent'}" for o, g in CASES[:4]])
def test_map_on_a_finer_lattice_induces_the_same_stages(order, gapped):
    # the stages of a map held on a finer lattice than the builder's stay
    # on it: they are not the builder's stages, but read as them
    rng = random.Random(f"finer/{order}/{gapped}")
    prefix = tuple(Sym(rng.randint(1, 3)) for _ in range(8))
    gaps = (F(1, 7), F(2, 5)) if gapped else (F(0), F(0))
    m = build_ar9(reconstruct_triple(prefix), order, gaps)
    fine = dataclasses.replace(m, lattice=m.lattice.refined(3 * m.lattice.D))
    assert fine.domain == m.domain and fine.image == m.image and fine != m
    fine_chain, chain = StageChain(fine), StageChain(m)
    got, want = iterate_induction(fine_chain, 5), iterate_induction(chain, 5)
    assert all(s.map.lattice.D == fine.lattice.D for s in got)
    assert all(f.map != g.map for f, g in zip(got, want))
    assert [views(s.map) for s in got] == [views(s.map) for s in want]
    assert [s.return_words for s in got] == [s.return_words for s in want]
    # their towers are held on the finer lattice, and the checks read them
    # as the builder's
    for f, g in zip(tower_families(fine_chain, 0, 5), tower_families(chain, 0, 5)):
        assert f.base_map is fine and f.nine != g.nine
        for ch in A9:
            assert f.base(ch) == g.base(ch)
            assert f.levels(ch) == g.levels(ch)
        assert partition_check(f) == partition_check(g)
        assert partition_check(f).ok
        assert adjacency_check(f) == adjacency_check(g)
        assert level_component_counts(f) == level_component_counts(g)
    # a level moved by one unit of the finer lattice fails partition
    t = f.nine["1"]
    moved = dataclasses.replace(t, lefts=(t.lefts[0] + 1, *t.lefts[1:]))
    assert not partition_check(dataclasses.replace(f, nine={**f.nine, "1": moved})).ok


def ref_walk(lat, left, right, n):
    """Letters and left ends of up to n images, one `push` per image, and
    the error push raised at the next image, if any."""
    letters, lefts = [], []
    for _ in range(n):
        try:
            ch, offset = lat.push(left, right)
        except (OutOfDomain, RuntimeError) as e:
            return letters, lefts, e
        letters.append(ch)
        lefts.append(left)
        left, right = left + offset, right + offset
    return letters, lefts, None


def check_walk(lat, left, right, n):
    """Assert that walk agrees with ref_walk; return ref_walk's error."""
    letters, lefts, error = ref_walk(lat, left, right, n)
    if error is None:
        assert lat.walk(left, right, n) == (letters, lefts)
        return None
    with pytest.raises(type(error)) as got:
        lat.walk(left, right, n)
    assert type(got.value) is type(error)
    assert str(got.value) == str(error)
    assert getattr(got.value, "detail", None) == getattr(error, "detail", None)
    assert got.value.level == len(lefts)
    return error


def ref_merge(pairs):
    """Sorted integer pieces with empty ones dropped and touching ones joined."""
    merged = []
    for left, right in sorted(pairs):
        if right <= left:
            continue
        if merged and merged[-1][1] == left:
            merged[-1] = (merged[-1][0], right)
        else:
            merged.append((left, right))
    return tuple(merged)


def ref_partition(f):
    """partition_check as a sweep over every level piece, sorted as pairs."""
    lat = f.base_map.lattice
    pieces = sorted((left, left + f.nine[ch].width) for ch in A9 for left in f.nine[ch].lefts)
    support = ref_merge(zip(lat.lefts, lat.rights))
    total = F(sum(r - l for l, r in pieces), lat.D)
    expected = F(sum(r - l for l, r in support), lat.D)
    for prev, nxt in zip(pieces, pieces[1:]):
        if nxt[0] < prev[1]:
            return PartitionReport(
                False, total, expected,
                f"levels {lat.interval(*prev)} and {lat.interval(*nxt)} overlap")
    if ref_merge(pieces) != support:
        return PartitionReport(False, total, expected,
                               "union of levels differs from the space")
    return PartitionReport(True, total, expected)


@pytest.mark.parametrize("order,gapped", CASES,
                         ids=[f"{o}-{'gapped' if g else 'adjacent'}" for o, g in CASES])
def test_walk_matches_step_by_step_push(order, gapped):
    rng, _, m = system(order, gapped)
    lat = m.lattice.refined(997)
    rows = list(lat.rows())
    for _ in range(6):
        left, right, _, _ = rng.choice(rows)
        p = rng.randrange(left, right)
        for n in (0, 1, rng.randint(2, 400)):
            assert check_walk(lat, p, p + 1, n) is None
    # each piece pushed whole: its image may straddle the next pieces
    late_straddles = 0
    for left, right, _, _ in rows:
        error = check_walk(lat, left, right, 30)
        late_straddles += isinstance(error, RuntimeError)
    assert late_straddles
    # an interval over the end of a piece inside its block straddles at once
    support = ref_merge(zip(lat.lefts, lat.rights))
    inner = next(r for r in lat.rights if r not in {end for _, end in support})
    error = check_walk(lat, inner - 1, inner + 1, 5)
    assert isinstance(error, RuntimeError) and "straddles" in str(error)
    # a walk whose second image lands in the gap after the first block
    # (outside the domain when the blocks are adjacent)
    (start, end), *_ = support
    p = rng.randrange(start, end)
    i = next(i for i, (left, right, _, _) in enumerate(rows) if left <= p < right)
    offsets = list(lat.offsets)
    offsets[i] = end - p
    into_gap = dataclasses.replace(lat, offsets=tuple(offsets))
    assert check_walk(into_gap, p, p + 1, 0) is None
    error = check_walk(into_gap, p, p + 1, 3)
    assert isinstance(error, OutOfDomain) and error.detail == {"point": str(F(end, lat.D))}


@pytest.mark.parametrize("order,gapped", CASES,
                         ids=[f"{o}-{'gapped' if g else 'adjacent'}" for o, g in CASES])
def test_column_towers_match_references(order, gapped):
    _, prefix, m = system(order, gapped)
    k = min(len(prefix), 7)
    chain = StageChain(m)
    stages = iterate_induction(chain, k)
    for stage, f in enumerate(tower_families(chain, 0, k)):
        bases = (stages[stage - 1].map if stage else m).domain
        for ch in A9:
            tower = f.nine[ch]
            levels, word = ref_tower(m, bases[ch], tower.height)
            assert (f.levels(ch), tower.word, f.base(ch)) == (levels, word, levels[0])
            assert F(tower.width, f.base_map.lattice.D) == bases[ch].length
        counts = {}
        for letter, members in A3_MEMBERS.items():
            towers = [f.nine[ch] for ch in members]
            rows = [ref_merge(row) for row in zip(*([(left, left + t.width) for left in t.lefts]
                                                    for t in towers))]
            counts[letter] = max(map(len, rows))
            # the three-letter base `ar-iet towers` prints: the member bases merged
            bases = [f.base(ch) for ch in members]
            D = f.base_map.lattice.D
            assert ref_merge(bases) == tuple((F(left, D), F(right, D)) for left, right in rows[0])
            assert _merge(bases) == ref_merge(bases)
        assert level_component_counts(f) == counts
        assert partition_check(f) == ref_partition(f)


@pytest.mark.parametrize("order,gapped", CASES,
                         ids=[f"{o}-{'gapped' if g else 'adjacent'}" for o, g in CASES])
def test_partition_check_matches_the_sorted_sweep(order, gapped):
    rng, prefix, m = system(order, gapped)
    k = rng.randint(1, min(len(prefix), 6))
    chain = StageChain(m)
    iterate_induction(chain, k)
    [f] = tower_families(chain, k, k)
    ch, other = rng.sample(A9, 2)
    tower = f.nine[ch]
    j = rng.randrange(tower.height)
    moved = list(tower.lefts)
    moved[j] += 1

    def replaced(letter, **changes):
        return dataclasses.replace(f, nine={
            **f.nine, letter: dataclasses.replace(f.nine[letter], **changes)})

    # tower 2 (3 when reversed) widened over its neighbour, whose levels are
    # emptied: the ends still pair off, but the sweep finds the overlap
    left, right = ("3", "2") if f.order.reversed else ("2", "3")
    absorbed = dataclasses.replace(f, nine={
        **f.nine,
        left: dataclasses.replace(f.nine[left], width=f.nine[left].width + f.nine[right].width),
        right: dataclasses.replace(f.nine[right], width=0)})

    broken = {
        "shifted by a unit": replaced(ch, lefts=tuple(left + 1 for left in tower.lefts)),
        "shifted by its width": replaced(
            ch, lefts=tuple(left + tower.width for left in tower.lefts)),
        "shifted by one": replaced(
            ch, lefts=tuple(left + f.base_map.lattice.D for left in tower.lefts)),
        "duplicated": replaced(other, width=tower.width, lefts=tower.lefts),
        "empty levels": replaced(ch, width=0),
        "empty levels inside their neighbours": absorbed,
        "a level repeated": replaced(ch, lefts=tower.lefts + tower.lefts[:1]),
        "one level moved": replaced(ch, lefts=tuple(moved)),
        "a level dropped": replaced(ch, lefts=tower.lefts[:j] + tower.lefts[j + 1:]),
        "narrower levels": replaced(ch, width=tower.width - 1),
    }
    report = partition_check(f)
    assert report.ok and report == ref_partition(f)
    for name, family in broken.items():
        report = partition_check(family)
        assert report == ref_partition(family), name
        assert not report.ok, name
