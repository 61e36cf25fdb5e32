"""Tower construction, partition, adjacency, component bounds, point location."""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from ar_iet.errors import OutOfDomain
from ar_iet.gasket import Sym, reconstruct_triple, triple
from ar_iet.iet import ORDER_TAGS, Interval, Lattice, _merge, build_ar9
from ar_iet.induction import StageChain, iterate_induction
from ar_iet.towers import (
    adjacency_check,
    level_component_counts,
    locate,
    partition_check,
    tower_families,
)
from ar_iet.words import A3_MEMBERS, A9, heights_by_matrix, letter_height, stage_words

I, II, III = Sym.I, Sym.II, Sym.III
F = Fraction


def family_for(prefix, k, order=ORDER_TAGS[0], gaps=(F(0), F(0))):
    t = reconstruct_triple(prefix)
    chain = StageChain(build_ar9(t, order, gaps))
    stages = iterate_induction(chain, k)
    [f] = tower_families(chain, k, k)
    return chain, stages, f


def test_stage_zero_towers_are_the_pieces():
    m0 = build_ar9(triple(7, 4, 2))
    [f] = tower_families(StageChain(m0), 0, 0)
    for ch in A9:
        tower = f.nine[ch]
        assert tower.height == 1
        assert tower.base == m0.domain[ch]
        assert tower.levels == (m0.domain[ch],)
        assert tower.word == ch
    assert partition_check(f).ok


def test_tribonacci_stage1_heights_and_words():
    _, _, f = family_for((I,) * 4, 1)
    assert f.nine["1"].height == 2
    assert f.nine["1"].word == "35"
    assert f.nine["8"].height == 1
    assert f.nine["8"].word == "2"


def test_tower_words_equal_stage_words():
    rng = random.Random(61)
    for _ in range(8):
        n = rng.randint(1, 5)
        prefix = tuple(rng.choice((I, II, III)) for _ in range(n + 2))
        k = rng.randint(0, n)
        _, _, f = family_for(prefix, k, ORDER_TAGS[rng.randrange(6)])
        expected = stage_words(tuple(prefix[:k]), "A9", 10**6)
        for ch in A9:
            assert f.nine[ch].word == expected[ch]


def test_tower_heights_equal_matrix_heights():
    prefix = (I, II, III, I, II)
    for k in range(len(prefix) + 1):
        _, _, f = family_for(prefix, k)
        hv = heights_by_matrix(prefix[:k])[-1]
        for ch in A9:
            assert f.nine[ch].height == letter_height(ch, hv)


def test_total_measure():
    _, _, f = family_for((I, I, II, III, I), 5)
    t = f.base_map.triple
    total = sum(F(tower.width * tower.height, tower.D) for tower in f.nine.values())
    assert total == 2 * (t.a + t.b + t.c)


def test_partition_check_sweep():
    rng = random.Random(67)
    for _ in range(6):
        n = rng.randint(1, 8)
        prefix = tuple(rng.choice((I, II, III)) for _ in range(n + 1))
        gaps = (F(rng.randint(0, 2)), F(rng.randint(0, 2)))
        _, _, f = family_for(prefix, n, ORDER_TAGS[rng.randrange(6)], gaps)
        report = partition_check(f)
        assert report.ok
        assert report.total_length == report.expected_length


def test_partition_check_negative_control():
    _, _, f = family_for((I, I), 2)
    tower = f.nine["1"]
    shifted = tuple(left + tower.D for left in tower.lefts)
    broken = dataclasses.replace(tower, lefts=shifted)
    f = dataclasses.replace(f, nine={**f.nine, "1": broken})
    assert not partition_check(f).ok


def test_partition_check_names_the_first_overlap():
    _, _, f = family_for((I, I), 2)
    copy = dataclasses.replace(f.nine["2"], width=f.nine["1"].width,
                               lefts=f.nine["1"].lefts)
    f = dataclasses.replace(f, nine={**f.nine, "2": copy})
    report = partition_check(f)
    assert not report.ok
    first = min(f.nine["1"].levels)
    assert report.defect == f"levels {first} and {first} overlap"


def test_adjacency_check_negative_control():
    _, _, f = family_for((I, I), 2)
    tower = f.nine["3"]
    lefts = list(tower.lefts)
    # one lattice unit, the smallest shift the levels can take
    lefts[1] += 1
    broken = dataclasses.replace(tower, lefts=tuple(lefts))
    f = dataclasses.replace(f, nine={**f.nine, "3": broken})
    report = adjacency_check(f)
    assert not report.ok
    assert len(report.violations) == 1
    assert report.violations[0].startswith("level 1 of towers 2,3: ")


def test_checks_refuse_towers_on_different_lattices():
    _, _, f = family_for((I, I), 2)
    # every check reads the original family first: the lattice it validated
    # once there must not carry over to the replaced family
    assert partition_check(f).ok and adjacency_check(f).ok
    assert level_component_counts(f) == {"a": 3, "b": 1, "c": 1}
    tower = f.nine["4"]
    finer = dataclasses.replace(tower, D=2 * tower.D, width=2 * tower.width,
                                lefts=tuple(2 * left for left in tower.lefts))
    assert finer.levels == tower.levels
    f = dataclasses.replace(f, nine={**f.nine, "4": finer})
    for check in (partition_check, adjacency_check, level_component_counts):
        with pytest.raises(ValueError, match="different lattices"):
            check(f)


def test_checks_read_towers_all_on_a_finer_lattice():
    # every level on (1/2D)Z: the base map's support is refined with them
    _, _, f = family_for((I, II), 2, ORDER_TAGS[4], (F(1), F(2)))
    finer = dataclasses.replace(f, nine={
        ch: dataclasses.replace(t, D=2 * t.D, width=2 * t.width,
                                lefts=tuple(2 * left for left in t.lefts))
        for ch, t in f.nine.items()})
    assert finer.lattice.D == 2 * f.lattice.D
    assert partition_check(finer) == partition_check(f)
    assert partition_check(finer).ok
    assert adjacency_check(finer) == adjacency_check(f)
    assert level_component_counts(finer) == level_component_counts(f)
    # a level moved by one unit of the finer lattice overlaps its neighbour
    t = finer.nine["1"]
    moved = dataclasses.replace(t, lefts=(t.lefts[0] + 1, *t.lefts[1:]))
    assert not partition_check(dataclasses.replace(finer, nine={**finer.nine, "1": moved})).ok


def test_straddling_base_negative_control():
    chain, stages, _ = family_for((I, I), 1)
    m0 = chain.m0
    # 7 and 8 are neighbours in the first block of the first order
    stage = stages[0]
    lat = stage.map.lattice.refined(m0.lattice.D)
    straddling = (lat.coordinate(m0.domain["7"].left), lat.coordinate(m0.domain["8"].right))
    rows = ((*straddling, ch, offset) if ch == "1" else (left, right, ch, offset)
            for left, right, ch, offset in zip(lat.lefts, lat.rights, lat.letters, lat.offsets))
    bad_map = dataclasses.replace(stage.map, lattice=Lattice.sorted_from(lat.D, rows))
    assert bad_map.domain["1"] == Interval(m0.domain["7"].left, m0.domain["8"].right)
    chain.stages[0] = dataclasses.replace(stage, map=bad_map)
    with pytest.raises(RuntimeError) as raised:
        list(tower_families(chain, 0, 1))
    assert str(raised.value) == (f"level 0 of stage-1 tower 1: {bad_map.domain['1']} "
                                 "fits no single stage-0 tower")


def test_unequal_member_heights_raise(monkeypatch):
    import ar_iet.towers as towers

    chain, _, f = family_for((I, I, I), 2)
    # member 2 of stage 2 cut to the first stage-1 tower its base holds: the
    # copy stops after that tower, every segment fitting, and only the
    # members' heights disagree
    [below] = tower_families(chain, 1, 1)
    lat = chain.stages[0].map.lattice
    first = below.nine[lat.letters[lat.find(f.nine["2"].lefts[0])]].height
    assert first < f.nine["2"].height
    real = towers.letter_height
    hv = chain.heights[2]
    monkeypatch.setattr(towers, "letter_height",
                        lambda ch, heights: first if ch == "2" and heights is hv
                        else real(ch, heights))
    with pytest.raises(RuntimeError) as raised:
        list(tower_families(chain, 0, 2))
    assert str(raised.value) == "towers 1, 2, 3, 4 differ in height"


# --- towers laid out from the towers below -----------------------------------

SEEDS = {"4,2,1": triple(4, 2, 1), "5/2,3/2,1/3": triple(F(5, 2), F(3, 2), F(1, 3))}
FAMILY_CASES = [(order, gapped, seed) for order in ORDER_TAGS for gapped in (False, True)
                for seed in SEEDS]


def random_chain(order, gapped, seed, n=0):
    """The chain of the n-th seeded random 12-16-letter prefix, induced to
    its length."""
    rng = random.Random(f"families/{order}/{gapped}/{seed}/{n}")
    prefix = tuple(rng.choice((I, II, III)) for _ in range(rng.randint(12, 16)))
    gaps = (F(rng.randint(1, 9), rng.randint(2, 12)), F(rng.randint(1, 9), rng.randint(2, 12))) \
        if gapped else (F(0), F(0))
    chain = StageChain(build_ar9(reconstruct_triple(prefix, seed=SEEDS[seed]), order, gaps))
    iterate_induction(chain, len(prefix))
    return chain


def walked(chain, f, ch, height):
    """Tower ch of f as the walk of its base lays it out: (D, width, lefts,
    word)."""
    lat = chain.m0.lattice
    bases = (chain.m0 if f.stage == 0 else chain.stages[f.stage - 1].map).lattice
    left, right, _ = bases.by_label()[ch]
    letters, lefts = lat.walk(left, right, height)
    return lat.D, right - left, tuple(lefts), "".join(letters)


def as_walked(tower):
    return tower.D, tower.width, tower.lefts, tower.word


CASE_IDS = [f"{o}-{'gapped' if g else 'adjacent'}-{s}" for o, g, s in FAMILY_CASES]


@pytest.mark.parametrize("order,gapped,seed", FAMILY_CASES, ids=CASE_IDS)
def test_tower_families_equal_the_walk(order, gapped, seed):
    for n in range(3):
        chain = random_chain(order, gapped, seed, n)
        depth = len(chain.stages)
        stages = []
        for f in tower_families(chain, 0, depth):
            stages.append(f.stage)
            for ch in A9:
                expected = walked(chain, f, ch, letter_height(ch, chain.heights[f.stage]))
                assert as_walked(f.nine[ch]) == expected, (n, f.stage, ch)
        assert stages == list(range(depth + 1))
        assert list(tower_families(chain, depth, depth)) == [f]
        assert [g.stage for g in tower_families(chain, depth - 2, depth)] == stages[-3:]


@pytest.mark.parametrize("order,gapped,seed", FAMILY_CASES, ids=CASE_IDS)
def test_families_walk_only_stage_zero(monkeypatch, order, gapped, seed):
    chain = random_chain(order, gapped, seed)
    asked = []
    real = Lattice.walk

    def counting(lat, left, right, n):
        asked.append(n)
        return real(lat, left, right, n)

    monkeypatch.setattr(Lattice, "walk", counting)
    families = tower_families(chain, 0, len(chain.stages))
    assert sum(sum(t.height for t in f.nine.values()) for f in families) > 1_000
    # stage 0's towers are the pieces, and every later level is laid out
    # from the family below: nothing is walked
    assert asked == []


def _with_piece(chain, k, ch, ends):
    """The chain with the stage-k piece ch moved to the integer ends."""
    stage = chain.stages[k - 1]
    lat = stage.map.lattice
    rows = ((*ends, c, o) if c == ch else (left, right, c, o)
            for left, right, c, o in lat.rows())
    bad_map = dataclasses.replace(stage.map, lattice=Lattice.sorted_from(lat.D, rows))
    chain.stages[k - 1] = dataclasses.replace(stage, map=bad_map)


def _straddling(chain, k, monkeypatch):
    # piece 9 widened over its right neighbour
    lat = chain.stages[k - 1].map.lattice
    i = lat.letters.index("9")
    _with_piece(chain, k, "9", (lat.lefts[i], lat.rights[i + 1]))


def _shifted(chain, k, monkeypatch):
    # piece 9 shifted by one lattice unit
    left, right, _ = chain.stages[k - 1].map.lattice.by_label()["9"]
    _with_piece(chain, k, "9", (left + 1, right + 1))


def _taller(chain, k, monkeypatch):
    # member 2 one level taller at stage k
    import ar_iet.towers as towers

    real = towers.letter_height
    hv = chain.heights[k]
    monkeypatch.setattr(towers, "letter_height",
                        lambda ch, heights: real(ch, heights) + (ch == "2" and heights is hv))


# the fault each control raises: the first segment of a stage-4 base that
# fits no single stage-3 base, or a stage-3 tower taller than the levels left
NEGATIVE_CONTROLS = {
    _straddling: "level 6 of stage-4 tower 9: [121,129) fits no single stage-3 tower",
    _shifted: "level 6 of stage-4 tower 9: [122,126) fits no single stage-3 tower",
    _taller: "level 6 of stage-4 tower 2: [108,112) starts stage-3 tower 1, 6 levels "
             "tall, with 1 left to lay",
}


@pytest.mark.parametrize("control", NEGATIVE_CONTROLS, ids=lambda c: c.__name__.strip("_"))
@pytest.mark.parametrize("build", ["tower_families", "last_family"])
def test_negative_controls_raise_what_the_walk_raises(monkeypatch, control, build):
    # every family from stage 0, or only the last: both lay out stages 0..4
    k = 4
    chain, _, _ = family_for((I, II, I, III, I, I), k)
    control(chain, k, monkeypatch)
    with pytest.raises(RuntimeError) as raised:
        list(tower_families(chain, 0 if build == "tower_families" else k, k))
    assert type(raised.value) is RuntimeError
    assert str(raised.value) == NEGATIVE_CONTROLS[control]


@pytest.mark.parametrize("check", [adjacency_check, level_component_counts])
def test_row_checks_refuse_members_of_unequal_height(check):
    # a row is one level of each member: compared with zip, the longer
    # columns' extra levels would go unread
    _, _, f = family_for((I, I, I), 2)
    # read by every check first, as test_checks_refuse_towers_on_different_lattices
    assert partition_check(f).ok and adjacency_check(f).ok
    assert level_component_counts(f) == {"a": 3, "b": 1, "c": 1}
    tower = f.nine["3"]
    short = dataclasses.replace(tower, lefts=tower.lefts[:-1])
    f = dataclasses.replace(f, nine={**f.nine, "3": short})
    assert not partition_check(f).ok
    with pytest.raises(ValueError, match="towers 1, 2, 3, 4 differ in height"):
        check(f)


def test_checks_leave_the_projected_towers_unbuilt():
    _, _, f = family_for((I, II, I), 3)
    assert partition_check(f).ok and adjacency_check(f).ok
    assert level_component_counts(f) == {"a": 3, "b": 2, "c": 1}
    # the three-letter towers are counted from the nine, never built
    assert not hasattr(f, "three")


def test_adjacency_stage0_first_order():
    m0 = build_ar9(triple(7, 4, 2))
    [f] = tower_families(StageChain(m0), 0, 0)
    report = adjacency_check(f)
    assert report.ok
    # 2 leftmost: I2=[11,13) then I3=[13,17)
    assert f.nine["2"].levels[0].right == f.nine["3"].levels[0].left


def test_adjacency_sweep_with_sidedness():
    rng = random.Random(71)
    for _ in range(10):
        n = rng.randint(1, 6)
        prefix = tuple(rng.choice((I, II, III)) for _ in range(n + 1))
        order = ORDER_TAGS[rng.randrange(6)]
        gaps = (F(rng.randint(0, 2)), F(rng.randint(0, 2)))
        _, _, f = family_for(prefix, n, order, gaps)
        report = adjacency_check(f)
        assert report.ok, report.violations[:2]
        # explicit sidedness of the 8|9 pair at level 0
        p8 = f.nine["8"].levels[0]
        p9 = f.nine["9"].levels[0]
        if f.order.reversed:
            assert p9.right == p8.left
        else:
            assert p8.right == p9.left


def test_component_counts_read_every_level():
    # members adjacent at level 0 and spread apart at level 1: the count is
    # the largest over all levels, not the base's
    _, _, f = family_for((I, I), 2)
    nine = {}
    for start, members in ((0, "1234"), (100, "567"), (200, "89")):
        for i, ch in enumerate(members):
            nine[ch] = dataclasses.replace(f.nine[ch], width=1,
                                           lefts=(start + i, start + 50 + 2 * i))
    f = dataclasses.replace(f, nine=nine)
    assert level_component_counts(f) == {"a": 4, "b": 3, "c": 2}


def ref_component_counts(f):
    """The largest component count of any row, each row merged on its own."""
    return {letter: max(len(_merge(row)) for row in zip(*(
                [(left, left + f.nine[ch].width) for left in f.nine[ch].lefts]
                for ch in members)))
            for letter, members in A3_MEMBERS.items()}


def untouched(f, letter):
    """f on the lattice refined by 2, with one level moved by one unit off the
    member it touches, in a row of the largest count: the row stays disjoint,
    as the gap on the level's other side is at least 2 units."""
    f = dataclasses.replace(f, nine={
        ch: dataclasses.replace(t, D=2 * t.D, width=2 * t.width,
                                lefts=tuple(2 * left for left in t.lefts))
        for ch, t in f.nine.items()})
    members = A3_MEMBERS[letter]
    top = ref_component_counts(f)[letter]
    for j in reversed(range(f.nine[members[0]].height)):
        row = {ch: (f.nine[ch].lefts[j], f.nine[ch].lefts[j] + f.nine[ch].width)
               for ch in members}
        if len(_merge(row.values())) < top:
            continue
        for ch, (left, right) in row.items():
            others = [ends for other, ends in row.items() if other != ch]
            on_left = any(end == left for _, end in others)
            on_right = any(start == right for start, _ in others)
            if on_left != on_right:
                lefts = list(f.nine[ch].lefts)
                lefts[j] += 1 if on_left else -1
                moved = dataclasses.replace(f.nine[ch], lefts=tuple(lefts))
                return dataclasses.replace(f, nine={**f.nine, ch: moved})
    raise AssertionError(f"no level of a {letter}-row of the largest count touches one member")


CASES = [(order, gapped) for order in ORDER_TAGS for gapped in (False, True)]


@pytest.mark.parametrize("order,gapped", CASES,
                         ids=[f"{o}-{'gapped' if g else 'adjacent'}" for o, g in CASES])
def test_component_counts_match_merge_at_bench_depth(order, gapped):
    rng = random.Random(f"components/{order}/{gapped}")
    prefix = tuple(rng.choice((I, II, III)) for _ in range(16))
    gaps = (F(rng.randint(1, 9), rng.randint(2, 12)), F(rng.randint(1, 9), rng.randint(2, 12))) \
        if gapped else (F(0), F(0))
    m0 = build_ar9(reconstruct_triple(prefix), order, gaps)
    chain = StageChain(m0)
    iterate_induction(chain, 12)
    for k, f in enumerate(tower_families(chain, 0, 12)):
        counts = level_component_counts(f)
        assert counts == ref_component_counts(f), k
    # negative control at the deepest stage: one touch fewer in a row of the
    # largest count raises that count by exactly one
    broken = untouched(f, "a")
    assert level_component_counts(broken) == ref_component_counts(broken) \
        == {**counts, "a": counts["a"] + 1}


def test_component_bounds_sweep():
    rng = random.Random(73)
    for _ in range(10):
        n = rng.randint(0, 8)
        prefix = tuple(rng.choice((I, II, III)) for _ in range(n + 1))
        _, _, f = family_for(prefix, n, ORDER_TAGS[rng.randrange(6)])
        counts = level_component_counts(f)
        assert counts["c"] <= 1
        assert counts["b"] <= 2
        assert counts["a"] <= 3


def test_stage0_component_counts_first_order_adjacent():
    m0 = build_ar9(triple(7, 4, 2))
    [f] = tower_families(StageChain(m0), 0, 0)
    counts = level_component_counts(f)
    # adjacent blocks: J_a merges to [6,20); J_b = [20,26) u [0,2); J_c = [2,6)
    assert counts == {"a": 1, "b": 2, "c": 1}


def test_locate_and_point_determination():
    rng = random.Random(79)
    prefix = (I, II, I, III, I, I)
    chain, _, _ = family_for(prefix, 5)
    families = list(tower_families(chain, 0, 5))
    support = sorted(chain.m0.role_blocks)
    points = []
    while len(points) < 12:
        block = support[rng.randrange(3)]
        x = block.left + block.length * F(rng.randint(0, 9999), 10_000)
        if x not in points:
            points.append(x)
    signatures = []
    for x in points:
        signatures.append(tuple(locate(f, x) for f in families))
    assert len(set(signatures)) == len(points)


def test_locate_outside_raises():
    m0 = build_ar9(triple(7, 4, 2), gaps=(F(1), F(0)))
    [f] = tower_families(StageChain(m0), 0, 0)
    with pytest.raises(OutOfDomain):
        locate(f, F(11, 1) + F(1, 2))


def test_towers_stage_range_validation(monkeypatch):
    import ar_iet.towers as towers

    chain = StageChain(build_ar9(triple(7, 4, 2)))
    # a stage whose triple and heights the chain holds but has not induced
    assert chain.step() and len(chain.heights) == 2
    for k in (1, -1):
        with pytest.raises(ValueError, match=rf"stage {k} outside the computed range 0\.\.0"):
            list(tower_families(chain, k, k))
    iterate_induction(chain, 1)
    assert [f.stage for f in tower_families(chain, 1, 1)] == [1]
    # an empty range is refused before any family is built
    built = []
    monkeypatch.setattr(towers, "_family", lambda *args: built.append(args))
    with pytest.raises(ValueError) as raised:
        list(tower_families(chain, 1, 0))
    assert (str(raised.value), built) == ("first stage 1 past last stage 0", [])


# the fault of every tower one level past its first return, at stage k
PAST_THE_RETURN = {
    2: "level 4 of stage-2 tower 1: [247,275) starts stage-1 tower 1, 2 levels tall, "
       "with 1 left to lay",
    4: "level 6 of stage-4 tower 1: [112,121) starts stage-3 tower 1, 6 levels tall, "
       "with 1 left to lay",
}


@pytest.mark.parametrize("k", PAST_THE_RETURN)
def test_towers_past_the_return_are_faults(monkeypatch, k):
    import ar_iet.towers as towers

    # every tower one level past its first return: each would lay a whole
    # tower below where one level is missing
    chain, _, _ = family_for((I, II, I, III, I, I), k)
    real = towers.letter_height
    hv = chain.heights[k]
    monkeypatch.setattr(towers, "letter_height",
                        lambda ch, heights: real(ch, heights) + (heights is hv))
    with pytest.raises(RuntimeError) as raised:
        list(tower_families(chain, 0, k))
    assert str(raised.value) == PAST_THE_RETURN[k]


def test_shifted_base_inside_the_towers_below_is_laid_out_as_walked():
    # piece 1 of stage 4 shifted by one unit: it still fits the stage-3
    # bases, and the walk raises nothing there
    chain, _, _ = family_for((I, II, I, III, I, I), 4)
    left, right, _ = chain.stages[3].map.lattice.by_label()["1"]
    _with_piece(chain, 4, "1", (left + 1, right + 1))
    [f] = tower_families(chain, 4, 4)
    for ch in A9:
        assert as_walked(f.nine[ch]) == walked(chain, f, ch, f.nine[ch].height), ch
