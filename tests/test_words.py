"""Substitutions, stage words, heights, projections, complexity, horizons."""
from __future__ import annotations

import random

import pytest

from ar_iet.errors import WordOverflow
from ar_iet.gasket import PartialQuotients, Sym, partial_quotients
from ar_iet.words import (
    A3,
    A9,
    Substitution,
    a6_to_a3,
    a6_to_str,
    factor_complexity,
    heights_by_matrix,
    letter_height,
    multiplicative_heights,
    multiplicative_stage_words,
    occurrence_horizon,
    project,
    sigma3,
    sigma9,
    stable_factor_complexity,
    stage_words,
)

I, II, III = Sym.I, Sym.II, Sym.III

CAP = 10**6


def test_sigma3_tables():
    assert sigma3(I)("a") == "ab"
    assert sigma3(III)("a") == "a"
    assert sigma3(II)("c") == "ac"
    assert sigma3(I).table == {"a": "ab", "b": "ac", "c": "a"}
    assert sigma3(II).table == {"a": "ab", "b": "a", "c": "ac"}
    assert sigma3(III).table == {"a": "a", "b": "ab", "c": "ac"}


def test_sigma9_tables():
    assert sigma9(I)("8") == "2"
    assert sigma9(III)("1") == "1"
    assert sigma9(II)("9") == "18"
    assert sigma9(I).table == {
        "1": "35", "2": "45", "3": "46", "4": "17",
        "5": "18", "6": "19", "7": "29", "8": "2", "9": "3",
    }


@pytest.mark.parametrize("alphabet,table", [
    ("A3", {"a": "ab", "b": "a"}),                       # missing letter
    ("A3", {"a": "ab", "b": "a", "c": "a", "d": "a"}),   # extra letter
    ("A3", {"a": "ab", "b": "", "c": "a"}),              # empty image
    ("A3", {"a": "ab", "b": "a", "c": "a9"}),            # foreign letter
    ("A9", {ch: "1" for ch in "12345678"}),
])
def test_bad_substitution_tables_are_rejected(alphabet, table):
    with pytest.raises(ValueError):
        Substitution(alphabet, table)


def test_stage_words_a3_two_steps():
    w = stage_words((I, I), "A3", CAP)
    assert w == {"a": "abac", "b": "aba", "c": "ab"}


def test_stage_words_a3_three_steps():
    w = stage_words((I, I, I), "A3", CAP)
    assert w["a"] == "abacaba"
    assert w["b"] == "abacab"
    assert w["c"] == "abac"


def test_stage_words_a9_two_steps():
    w = stage_words((I, I), "A9", CAP)
    assert w["1"] == "4618"


def test_stage_words_empty_prefix():
    assert stage_words((), "A3", CAP) == {"a": "a", "b": "b", "c": "c"}
    assert stage_words((), "A9", CAP) == {ch: ch for ch in A9}


def test_stage_words_overflow():
    with pytest.raises(WordOverflow) as exc:
        stage_words((I,) * 20, "A3", 100)
    assert exc.value.detail["stage"] <= 20
    assert exc.value.detail["length"] > 100


def test_heights_tribonacci():
    hs = heights_by_matrix((I,) * 12)
    assert [h[0] for h in hs] == [1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504, 927, 1705]


def test_heights_empty_and_single_iii():
    assert heights_by_matrix(()) == [(1, 1, 1)]
    assert heights_by_matrix((III,))[-1] == (1, 2, 2)


def test_heights_match_word_lengths_sampled():
    rng = random.Random(3)
    for _ in range(15):
        prefix = tuple(rng.choice((I, II, III)) for _ in range(rng.randint(0, 8)))
        hs = heights_by_matrix(prefix)[-1]
        for alphabet, letters in (("A3", A3), ("A9", A9)):
            w = stage_words(prefix, alphabet, CAP)
            for ch in letters:
                assert len(w[ch]) == letter_height(ch, hs)


def test_a9_class_constraint():
    rng = random.Random(5)
    for _ in range(10):
        prefix = tuple(rng.choice((I, II, III)) for _ in range(7))
        w = stage_words(prefix, "A9", CAP)
        assert len({len(w[ch]) for ch in "1234"}) == 1
        assert len({len(w[ch]) for ch in "567"}) == 1
        assert len({len(w[ch]) for ch in "89"}) == 1


def test_multiplicative_words_tribonacci_a3():
    pq = PartialQuotients((1, 1), (I, I))
    w = multiplicative_stage_words(pq, "A3", 2, CAP)
    assert w["a"] == "abac"


def test_multiplicative_words_tribonacci_a9():
    pq = PartialQuotients((1,), (I,))
    w = multiplicative_stage_words(pq, "A9", 1, CAP)
    assert w["8"] == "2"


def test_multiplicative_words_rule_ii():
    pq = PartialQuotients((2,), (II,))
    w = multiplicative_stage_words(pq, "A3", 1, CAP)
    assert w == {"a": "aab", "b": "a", "c": "aac"}


def test_multiplicative_equals_additive_small():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(0, 4)
        ks = tuple(rng.randint(1, 4) for _ in range(n))
        rules = tuple(rng.choice((I, II)) for _ in range(n))
        pq = PartialQuotients(ks, rules)
        prefix = pq.expand()
        for alphabet in ("A3", "A9"):
            assert multiplicative_stage_words(pq, alphabet, n, CAP) == stage_words(
                prefix, alphabet, CAP
            )


def test_multiplicative_heights_match_additive():
    pq = PartialQuotients((3, 1, 2), (I, II, I))
    times = pq.times
    additive = heights_by_matrix(pq.expand())
    mult = multiplicative_heights(pq)
    assert mult[0] == (1, 1, 1)
    for j, m in enumerate(times, start=1):
        assert mult[j] == additive[m]


def test_multiplicative_height_inequalities():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 12)
        pq = PartialQuotients(
            tuple(rng.randint(1, 6) for _ in range(n)),
            tuple(rng.choice((I, II)) for _ in range(n)),
        )
        for ha, hb, hc in multiplicative_heights(pq):
            assert hb <= 2 * ha
            assert hc <= 2 * ha


def test_multiplicative_overflow():
    pq = PartialQuotients((6,) * 10, (I,) * 10)
    with pytest.raises(WordOverflow):
        multiplicative_stage_words(pq, "A3", 10, 1000)


def test_project_to_a3():
    assert project("4618", "A3") == "abac"
    assert project("", "A3") == ""


def test_project_to_a6():
    assert project("4618", "A6") == (1, 3, 0, 4)
    assert a6_to_str((1, 3, 0, 4)) == "a+,b+,a-,c-"
    assert project("", "A6") == ()


def test_projection_factors_through_a6():
    rng = random.Random(17)
    for _ in range(20):
        w = "".join(rng.choice(A9) for _ in range(30))
        assert project(w, "A3") == a6_to_a3(project(w, "A6"))


def test_projected_stage_words_match_a3():
    # nine-letter stage words project classwise onto the three-letter ones
    rng = random.Random(21)
    for _ in range(10):
        prefix = tuple(rng.choice((I, II, III)) for _ in range(rng.randint(0, 8)))
        w9 = stage_words(prefix, "A9", CAP)
        w3 = stage_words(prefix, "A3", CAP)
        for ch in "1234":
            assert project(w9[ch], "A3") == w3["a"]
        for ch in "567":
            assert project(w9[ch], "A3") == w3["b"]
        for ch in "89":
            assert project(w9[ch], "A3") == w3["c"]


def test_factor_complexity_basics():
    assert factor_complexity(["abac"], 0) == 1
    assert factor_complexity(["abac", "aba"], 1) == 3
    assert factor_complexity(["abac"], 5) == 0


def test_tribonacci_complexity_oracles():
    words = stage_words((I,) * 12, "A3", CAP)
    assert factor_complexity(words.values(), 10) == 21
    assert factor_complexity(words.values(), 25) == 51


def test_stable_complexity_tribonacci():
    prefix = (I,) * 14
    for n in (1, 2, 5, 10):
        assert stable_factor_complexity(prefix, "A3", n, CAP) == 2 * n + 1


def test_stable_complexity_unstabilized_returns_none():
    # a two-step prefix cannot stabilize length-30 factor counts
    assert stable_factor_complexity((I, I), "A3", 30, CAP) is None


def test_stage_walks_stop_before_an_overflowing_stage():
    # stage 1 stabilizes p(1) and stage 5 holds the letter 1 everywhere; the
    # next stages are longer than the cap but never built
    assert stable_factor_complexity((I,) * 14, "A3", 1, 2) == 3
    assert occurrence_horizon((I,) * 8, "1", 0, 8, cap=24) == 5
    with pytest.raises(WordOverflow) as exc:
        occurrence_horizon((I,) * 8, "1", 0, 8, cap=23)
    assert exc.value.detail["stage"] == 5


def test_stage_walks_check_stage_zero():
    # a cap below 1 fails at stage 0, before any word is built
    for call in (
        lambda: stable_factor_complexity((I, I), "A3", 1, 0),
        lambda: stable_factor_complexity((), "A9", 1, 0),
        lambda: occurrence_horizon((I,), "1", 0, 1, cap=0),
    ):
        with pytest.raises(WordOverflow) as exc:
            call()
        assert str(exc.value) == "stage 0 word length 1 exceeds cap 0"
        assert exc.value.detail == {"stage": 0, "length": 1, "cap": 0}


def test_occurrence_horizon_tribonacci_letter1():
    prefix = (I,) * 8
    assert occurrence_horizon(prefix, "1", 0, 8) == 5


def test_occurrence_horizon_cap_returns_none():
    prefix = (I,) * 3
    assert occurrence_horizon(prefix, "1", 0, 3) is None


def test_occurrence_horizon_letter8():
    prefix = (I,) * 10
    n8 = occurrence_horizon(prefix, "8", 1, 10)
    # stage-1 word of letter 8 is "2"; check the reported stage honestly
    assert n8 is not None
    words = stage_words(prefix[:n8], "A9", CAP)
    assert all("2" in w for w in words.values())
    if n8 > 0:
        prev = stage_words(prefix[: n8 - 1], "A9", CAP)
        assert not all("2" in w for w in prev.values())


def test_occurrence_horizon_validation():
    with pytest.raises(ValueError):
        occurrence_horizon((I,), "x", 0, 1)
    with pytest.raises(ValueError):
        occurrence_horizon((I,), "1", 2, 1)
