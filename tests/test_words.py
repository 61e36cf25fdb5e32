"""Substitutions, stage words, heights, projections, complexity."""
from __future__ import annotations

import random

import pytest

from ar_iet.errors import WordOverflow
from ar_iet.gasket import PartialQuotients, Sym, partial_quotients
from ar_iet.words import (
    A3,
    A9,
    A9_CLASS,
    Substitution,
    _mult_factors_a3,
    _mult_factors_a9,
    factor_complexity,
    heights_by_matrix,
    letter_height,
    multiplicative_heights,
    multiplicative_stage_words,
    project,
    sigma3,
    sigma9,
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
    # the first stage whose longest word exceeds the cap: h_a = 149 at stage 8
    assert exc.value.detail == {"stage": 8, "length": 149, "cap": 100}


def test_stage_walks_check_stage_zero():
    # a cap below 1 fails at stage 0, before any word is built
    for prefix, alphabet in (((I, I), "A3"), ((), "A9")):
        with pytest.raises(WordOverflow) as exc:
            stage_words(prefix, alphabet, 0)
        assert str(exc.value) == "stage 0 word length 1 exceeds cap 0"
        assert exc.value.detail == {"stage": 0, "length": 1, "cap": 0}


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


@pytest.mark.parametrize("letter", ["", "ab", "x", "0"])
def test_letter_height_rejects_anything_but_one_letter(letter):
    with pytest.raises(ValueError, match=repr(letter)):
        letter_height(letter, (3, 2, 1))


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
    assert project("", "A6") == ()


def test_projection_factors_through_a6():
    rng = random.Random(17)
    for _ in range(20):
        w = "".join(rng.choice(A9) for _ in range(30))
        assert project(w, "A3") == "".join("aabbcc"[x] for x in project(w, "A6"))


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


# --- the nine-letter tables over the three-letter ones ------------------------

def _uncommuting(sigma9_of, sigma3_of) -> list[tuple[Sym, str]]:
    """The (rule, letter) entries where phi3 o sigma9(rule) differs from
    sigma3(rule) o phi3."""
    return [(rule, ch) for rule in Sym for ch in A9
            if project(sigma9_of(rule).table[ch], "A3") != sigma3_of(rule).table[A9_CLASS[ch]]]


def _word(factors) -> str:
    return "".join(letter * e for letter, e in factors)


def test_the_nine_letter_tables_project_onto_the_three_letter_ones():
    # phi3 o sigma9(r) = sigma3(r) o phi3 on all 27 entries
    assert _uncommuting(sigma9, sigma3) == []
    # and the block rules that block stages are checked along project the same way
    for rule in (I, II):
        for k in range(1, 13):
            nine, three = _mult_factors_a9(rule, k), _mult_factors_a3(rule, k)
            for ch in A9:
                assert project(_word(nine[ch]), "A3") == _word(three[A9_CLASS[ch]]), (rule, k, ch)


def test_one_changed_sigma3_entry_breaks_the_commuting_table():
    changed = Substitution("A3", {**sigma3(I).table, "b": "ca"})
    assert _uncommuting(sigma9, lambda rule: changed if rule is I else sigma3(rule)) \
        == [(I, "5"), (I, "6"), (I, "7")]  # the letters of class b
