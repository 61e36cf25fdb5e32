"""Differential tests of the language layer against plain references.

`ref_preimage_clusters` is backward refinement on Fraction intervals: pull
the current union back through all nine image pieces, then cut it with the
next letter's set.  It shares no code with the lattice refinement in
`ar_iet.analysis`.  `ref_factor_complexity` collects every window of every
word.  Each of the six arrangements, adjacent and gapped, gets its own
seeded random prefix.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ar_iet import analysis
from ar_iet.analysis import preimage_clusters
from ar_iet.errors import NotAFactor
from ar_iet.gasket import Sym, reconstruct_triple
from ar_iet.iet import ORDER_TAGS, Interval, build_ar9, trajectory
from ar_iet.words import A3, A9, factor_complexity, stage_words

F = Fraction
CASES = [(order, gapped) for order in ORDER_TAGS for gapped in (False, True)]
CLASS_MEMBERS = {"a": "1234", "b": "567", "c": "89"}


def ref_merge(intervals):
    merged = []
    for p in sorted(p for p in intervals if p.length > 0):
        if merged and merged[-1].right >= p.left:
            merged[-1] = Interval(merged[-1].left, max(merged[-1].right, p.right))
        else:
            merged.append(p)
    return tuple(merged)


def ref_intersect(pieces, box):
    return [Interval(max(p.left, box.left), min(p.right, box.right)) for p in pieces
            if max(p.left, box.left) < min(p.right, box.right)]


def ref_preimage_clusters(m, target):
    def letter_set(letter):
        return ref_merge(m.domain[ch] for ch in CLASS_MEMBERS[letter])

    current = letter_set(target[-1])
    for letter in reversed(target[:-1]):
        pulled = ref_merge(part.translate(-m.offsets[ch])
                           for ch in A9 for part in ref_intersect(current, m.image[ch]))
        current = ref_merge(p for box in letter_set(letter)
                            for p in ref_intersect(pulled, box))
    if not current:
        raise NotAFactor(f"{target!r} is not a factor of the coding language",
                         target=target)
    return current


def system(order, gapped):
    rng = random.Random(f"preimage/{order}/{gapped}")
    prefix = tuple(Sym(rng.randint(1, 3)) for _ in range(rng.randint(6, 12)))
    gaps = ((F(rng.randint(1, 9), rng.randint(2, 12)), F(rng.randint(1, 9), rng.randint(2, 12)))
            if gapped else (F(0), F(0)))
    return rng, build_ar9(reconstruct_triple(prefix), order, gaps)


def assert_same_as_reference(m, target):
    try:
        expected = ref_preimage_clusters(m, target)
    except NotAFactor as e:
        with pytest.raises(NotAFactor) as got:
            preimage_clusters(m, target)
        assert str(got.value) == str(e)
        assert got.value.detail == e.detail
        return False
    report = preimage_clusters(m, target)
    assert report.witnesses == expected
    assert [str(w) for w in report.witnesses] == [str(w) for w in expected]
    assert report.count == len(expected)
    assert report.depth == len(target) and report.target == target
    return True


@pytest.mark.parametrize("order,gapped", CASES,
                         ids=[f"{o}-{'gapped' if g else 'adjacent'}" for o, g in CASES])
def test_preimage_matches_fraction_reference(order, gapped):
    rng, m = system(order, gapped)
    factors = non_factors = 0
    for _ in range(40):
        target = "".join(rng.choice(A3) for _ in range(rng.randint(1, 12)))
        if assert_same_as_reference(m, target):
            factors += 1
        else:
            non_factors += 1
    assert factors and non_factors
    for _ in range(2):
        piece = m.domain[rng.choice(A9)]
        x = piece.left + piece.length * F(rng.randrange(1, 997), 997)
        word = trajectory(m, x, 200, "three")
        for n in (1, 2, 5, 25, 50, 100, 200):
            assert assert_same_as_reference(m, word[:n])
            assert any(w.contains(x) for w in preimage_clusters(m, word[:n]).witnesses)


# the ladder of the benchmark's language workload
BENCH_LADDER = (25, 50, 100, 200, 350, 500)


def crosses_a_piece_boundary(m, w):
    return not any(p.left <= w.left and w.right <= p.right for p in m.domain.values())


@pytest.mark.parametrize("order,gapped", CASES,
                         ids=[f"{o}-{'gapped' if g else 'adjacent'}" for o, g in CASES])
def test_preimage_matches_fraction_reference_at_bench_depth(order, gapped):
    rng, m = system(order, gapped)
    # code from a point where two pieces of one class touch: the witnesses
    # that straddle it join parts pulled back through both pieces
    members = {ch: letter for letter, chs in CLASS_MEMBERS.items() for ch in chs}
    touching = [q for p in A9 for q in A9
                if m.domain[p].right == m.domain[q].left and members[p] == members[q]]
    x = m.domain[rng.choice(touching)].left
    word = trajectory(m, x, BENCH_LADDER[-1], "three")
    crossing = 0
    for n in BENCH_LADDER:
        assert assert_same_as_reference(m, word[:n])
        witnesses = preimage_clusters(m, word[:n]).witnesses
        assert any(w.contains(x) for w in witnesses)
        crossing += sum(crosses_a_piece_boundary(m, w) for w in witnesses)
    assert crossing
    # one letter changed halfway: already the 25 letters around it are no
    # factor, so the refinement empties within 13 letters of the change
    i = len(word) // 2
    target = word[:i] + rng.choice([ch for ch in A3 if ch != word[i]]) + word[i + 1:]
    assert not assert_same_as_reference(m, target)
    with pytest.raises(NotAFactor):
        ref_preimage_clusters(m, target[i - 12:i + 13])


# --- resuming from the last refinement --------------------------------------------

def coding(rng, m, n):
    piece = m.domain[rng.choice(A9)]
    return trajectory(m, piece.left + piece.length * F(rng.randrange(1, 997), 997), n, "three")


def test_ladders_on_two_maps_interleaved():
    (rng, m), (rng2, m2) = system(*CASES[0]), system(*CASES[7])
    # the same triple in another arrangement, with gaps, codes the same
    # language: each prefix is a factor of both, with other cylinders
    moved = build_ar9(m.triple, ORDER_TAGS[4], (F(1, 3), F(2)))
    word = coding(rng, m, 500)
    words = [(m, word), (m2, coding(rng2, m2, 500)), (moved, word)]
    for n in BENCH_LADDER:
        for each, target in words:
            assert assert_same_as_reference(each, target[:n])


def test_targets_that_do_not_extend_the_held_one():
    rng, m = system(*CASES[3])
    word, other = coding(rng, m, 500), coding(rng, m, 500)
    # another coding, then a shorter prefix of the first, then a longer one
    for target in (word[:100], other[:100], other[:200], word[:200], word[:50],
                   word[:25], word[:500], word[:500], other[:350]):
        assert assert_same_as_reference(m, target)


def test_an_equal_map_resumes_and_reads_the_same(monkeypatch):
    (rng, m), (_, twin) = system(*CASES[10]), system(*CASES[10])
    assert twin == m and twin is not m
    word = coding(rng, m, 500)
    builds = count_builds(monkeypatch)
    for n, each in zip(BENCH_LADDER, (m, twin) * 3):
        assert assert_same_as_reference(each, word[:n])
    assert builds == [m.lattice]


def test_a_ladder_continues_after_a_non_factor():
    rng, m = system(*CASES[5])
    word = coding(rng, m, 500)
    assert assert_same_as_reference(m, word[:100])
    # one letter changed: the 25 letters around it are already no factor
    bad = word[:150] + rng.choice([ch for ch in A3 if ch != word[150]]) + word[151:200]
    assert not assert_same_as_reference(m, bad)
    assert not assert_same_as_reference(m, bad + "a")
    for n in BENCH_LADDER[2:]:
        assert assert_same_as_reference(m, word[:n])


def count_builds(monkeypatch):
    """Start from no held refinement and record the lattice of every
    successor table built from then on."""
    builds, build = [], analysis._successors

    def counting(lat):
        builds.append(lat)
        return build(lat)

    monkeypatch.setattr(analysis, "_successors", counting)
    monkeypatch.setattr(analysis, "_held", (None, "", ()))
    return builds


def test_a_ladder_builds_the_successor_table_once(monkeypatch):
    rng, m = system(*CASES[1])
    word, other = coding(rng, m, 500), coding(rng, m, 500)
    builds = count_builds(monkeypatch)
    for n in BENCH_LADDER:
        assert assert_same_as_reference(m, word[:n])
    # the reference calls preimage_clusters once per rung
    assert builds == [m.lattice]
    # a fresh target that does not extend the ladder's builds it once more
    assert assert_same_as_reference(m, other[:25])
    assert builds == [m.lattice] * 2


# --- factor complexity ---------------------------------------------------------

def ref_factor_complexity(words, n):
    if n == 0:
        return 1
    return len({w[i:i + n] for w in words for i in range(len(w) - n + 1)})


@pytest.mark.parametrize("alphabet", [A3, A9])
def test_factor_complexity_matches_naive_count(alphabet):
    rng = random.Random(f"factors/{alphabet}")
    for _ in range(30):
        words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 90)))
                 for _ in range(rng.randint(0, 4))]
        longest = max(map(len, words), default=0)
        for n in range(longest + 3):
            assert factor_complexity(words, n) == ref_factor_complexity(words, n)


def test_factor_complexity_edge_words():
    assert factor_complexity([], 0) == 1
    assert factor_complexity([], 3) == 0
    assert factor_complexity([""], 1) == 0
    assert factor_complexity(["ab", "abc"], 3) == 1
    assert factor_complexity(["abc"], 4) == 0
    with pytest.raises(ValueError):
        factor_complexity(["abc"], -1)


def test_factor_complexity_on_repetitive_words():
    rng = random.Random(7)
    prefix = tuple(Sym(rng.randint(1, 3)) for _ in range(13)) + (Sym.I,)
    for alphabet in ("A3", "A9"):
        words = list(stage_words(prefix, alphabet, 10**5).values())
        # a periodic word repeats whole blocks at every stride
        words.append("abcab" * 80)
        for n in (1, 2, 7, 31, 32, 33, 64, 100):
            assert factor_complexity(words, n) == ref_factor_complexity(words, n)
        assert factor_complexity(iter(words), 5) == ref_factor_complexity(words, 5)


# --- the factor-set cache and the descent to shorter lengths -------------------

def _stage_word_sets(seed):
    rng = random.Random(seed)
    prefix = tuple(Sym(rng.randint(1, 3)) for _ in range(11)) + (Sym.I,)
    return [list(stage_words(prefix, alphabet, 10**5).values()) for alphabet in ("A3", "A9")]


# each power of two m at which the cached length changes, with its neighbours
DESCENT_LENGTHS = [1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129]


@pytest.mark.parametrize("direction", [1, -1])
def test_factor_complexity_sweeps_across_cached_lengths(direction):
    for words in _stage_word_sets(11):
        assert min(map(len, words)) > 129
        for n in DESCENT_LENGTHS[::direction]:
            assert factor_complexity(words, n) == ref_factor_complexity(words, n)


def test_factor_complexity_descends_into_short_and_empty_words():
    # every word is shorter than m = 32 or 64, so most windows come from the tails
    words = ["", "a", "abcab" * 5, "aab" * 13, "123456789" * 3]
    for n in [*range(0, 45), *range(44, 0, -1)]:
        assert factor_complexity(words, n) == ref_factor_complexity(words, n)


def test_factor_complexity_two_word_sets_queried_alternately():
    a3, a9 = _stage_word_sets(12)
    for n in range(1, 70):
        for words in (a3, a9):
            assert factor_complexity(words, n) == ref_factor_complexity(words, n)


def test_factor_complexity_equal_copy_and_iterator_after_a_cached_call():
    words, _ = _stage_word_sets(13)
    assert factor_complexity(words, 20) == ref_factor_complexity(words, 20)
    copy = ["".join(list(w)) for w in words]
    assert copy == words and all(c is not w for c, w in zip(copy, words) if len(w) > 1)
    for n in (20, 7, 40):
        assert factor_complexity(copy, n) == ref_factor_complexity(words, n)
        assert factor_complexity(iter(words), n) == ref_factor_complexity(words, n)


def test_factor_complexity_sweep_fills_the_factor_set_once(monkeypatch):
    import functools

    from ar_iet import words as words_module

    fills, scans = [], []
    build, scan = words_module._profile.__wrapped__, words_module._factors

    def counting(words, m):
        fills.append(m)
        return build(words, m)

    def counting_scan(words, m):
        scans.append(m)
        return scan(words, m)

    # the same cache bound as the real _profile, around a counting fill
    cache = functools.lru_cache(**words_module._profile.cache_parameters())
    monkeypatch.setattr(words_module, "_profile", cache(counting))
    monkeypatch.setattr(words_module, "_factors", counting_scan)
    a3, a9 = _stage_word_sets(14)
    assert [factor_complexity(a3, n) for n in range(1, 21)] == [
        ref_factor_complexity(a3, n) for n in range(1, 21)
    ]
    assert fills == scans == [32]
    # two word sets queried alternately, as a stability check does, share it too
    for n in range(1, 21):
        assert factor_complexity(a9, n) == ref_factor_complexity(a9, n)
        assert factor_complexity(a3, n) == ref_factor_complexity(a3, n)
    assert fills == scans == [32, 32]


@pytest.mark.parametrize("m", [32, 64, 128])
def test_one_profile_fill_is_the_complexity_at_every_length(m):
    from ar_iet.words import _profile

    a3, a9 = _stage_word_sets(15)
    assert min(map(len, a3 + a9)) > m
    # words shorter than m, down to the empty word, alone and beside stage words
    short = ["", "a", "abcab" * 5, "aab" * 13, "123456789" * 3]
    for words in (a3, a9, a3 + short, short, [""], []):
        profile = _profile.__wrapped__(tuple(words), m)
        assert profile == tuple(ref_factor_complexity(words, n) for n in range(m + 1))
