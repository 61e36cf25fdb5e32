"""Renormalization arithmetic: steps, prefixes, reconstruction, partial quotients."""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from ar_iet.errors import Inadmissible, IncompletePrefix, InvalidSeed, NotInGasket, PrefixTooLong
from ar_iet.gasket import (
    DEFAULT_SEED,
    GasketExit,
    PartialQuotients,
    Sym,
    Triple,
    ar_step,
    directing_prefix,
    format_prefix,
    omega_lengths,
    parse_prefix,
    parse_triple,
    partial_quotients,
    reconstruct_triple,
    triple,
)

I, II, III = Sym.I, Sym.II, Sym.III


def test_ar_step_branch_i():
    assert ar_step(triple(7, 4, 2)) == (triple(4, 2, 1), I)


def test_ar_step_branch_ii():
    assert ar_step(triple(9, 4, 2)) == (triple(4, 3, 2), II)


def test_ar_step_branch_iii():
    assert ar_step(triple(12, 4, 3)) == (triple(5, 4, 3), III)


def test_ar_step_zero_difference_rejected():
    with pytest.raises(NotInGasket) as exc:
        ar_step(triple(6, 4, 2))
    assert exc.value.detail["reason"] == "nonpositive"


def test_ar_step_negative_difference_rejected():
    with pytest.raises(NotInGasket) as exc:
        ar_step(triple(5, 4, 2))
    assert exc.value.detail["reason"] == "nonpositive"


def test_ar_step_tie_rejected():
    # 8-4-2 = 2 ties c
    with pytest.raises(NotInGasket) as exc:
        ar_step(triple(8, 4, 2))
    assert exc.value.detail["reason"] == "tie"


def test_ar_step_requires_admissible():
    with pytest.raises(Inadmissible):
        ar_step(triple(4, 4, 1))
    with pytest.raises(Inadmissible):
        ar_step(triple(4, 2, 0))


def test_ar_step_rational_entries():
    t, sym = ar_step(parse_triple("7/2,2,1"))
    assert sym == I
    assert t == parse_triple("2,1,1/2")


def test_directing_prefix_two_steps():
    prefix, exit_ = directing_prefix(triple(13, 7, 4), max_steps=10)
    assert prefix == (I, I)
    assert exit_ == GasketExit("not-in-gasket", step=3, reason="tie")


def test_directing_prefix_single_step():
    prefix, exit_ = directing_prefix(triple(7, 4, 2))
    assert prefix == (I,)
    assert exit_.kind == "not-in-gasket"
    assert exit_.step == 2


def test_directing_prefix_immediate_failure():
    prefix, exit_ = directing_prefix(triple(6, 4, 2))
    assert prefix == ()
    assert exit_.step == 1


def test_directing_prefix_exhausted():
    prefix, exit_ = directing_prefix(triple(12, 4, 3), max_steps=1)
    assert prefix == (III,)
    assert exit_ == GasketExit("exhausted")


def test_reconstruct_single_i():
    assert reconstruct_triple((I,)) == triple(7, 4, 2)


def test_reconstruct_double_i():
    assert reconstruct_triple((I, I)) == triple(13, 7, 4)


def test_reconstruct_empty_prefix_is_seed():
    assert reconstruct_triple(()) == DEFAULT_SEED


def test_reconstruct_rejects_bad_seed():
    with pytest.raises(InvalidSeed):
        reconstruct_triple((I,), seed=triple(2, 2, 1))


def test_reconstruct_rejects_oversized_prefix():
    assert reconstruct_triple((III,) * 10_000)
    with pytest.raises(PrefixTooLong, match="^prefix length 10001 exceeds cap 10000$") as e:
        reconstruct_triple((III,) * 10_001)
    assert e.value.detail == {"length": 10_001, "cap": 10_000}


def replay(prefix, seed=DEFAULT_SEED):
    t = reconstruct_triple(prefix, seed)
    cur = t
    out = []
    for _ in prefix:
        cur, sym = ar_step(cur)
        out.append(sym)
    return tuple(out), cur


def test_reconstruct_replays_exhaustively():
    # every prefix over {I,II,III} up to length 8 replays exactly and ends on the seed
    def rec(prefix):
        got, end = replay(prefix)
        assert got == prefix
        assert end == DEFAULT_SEED
        if len(prefix) < 8:
            for sym in (I, II, III):
                rec(prefix + (sym,))

    rec(())


# the k = 2^n prefix over eight I-blocks: 510 symbols
POWERS_OF_TWO = PartialQuotients(tuple(2 ** n for n in range(1, 9)), (I,) * 8).expand()


def fraction_replay(prefix, seed):
    """The inverse steps applied to the seed's Fractions, one addition at a time."""
    a, b, c = (F(v) for v in seed)
    for sym in reversed(prefix):
        s = a + b + c
        a, b, c = {III: (s, b, c), II: (s, a, c), I: (s, a, b)}[sym]
    return Triple(a, b, c)


@pytest.mark.parametrize("seed", [triple(F(9, 2), 3, 1), triple(F(5, 2), F(3, 2), F(1, 3))],
                         ids=("9/2,3,1", "5/2,3/2,1/3"))
def test_reconstruct_on_integers_matches_the_fraction_replay(seed):
    rng = random.Random(f"reconstruct/{seed}")
    prefixes = [POWERS_OF_TWO, ()] + [
        tuple(rng.choice((I, II, III)) for _ in range(rng.randint(1, 510))) for _ in range(30)]
    for prefix in prefixes:
        got = reconstruct_triple(prefix, seed)
        assert got == fraction_replay(prefix, seed), prefix
        assert all(type(v) is F for v in got)


def test_reconstruct_adds_no_fractions(monkeypatch):
    assert len(POWERS_OF_TWO) == 510
    counts = Counter()
    for name in ("__add__", "__radd__"):
        def counted(a, b, _name=name, _add=getattr(F, name)):
            counts[_name] += 1
            return _add(a, b)
        monkeypatch.setattr(F, name, counted)
    t = reconstruct_triple(POWERS_OF_TWO, triple(F(5, 2), F(3, 2), F(1, 3)))
    assert not counts, counts  # the replay runs on integers
    sum(t)
    assert counts  # and the wrappers do count


def test_reconstruct_from_a_seed_of_plain_ints():
    rng = random.Random(29)
    for prefix in [(), (I,), POWERS_OF_TWO] + [
            tuple(rng.choice((I, II, III)) for _ in range(rng.randint(1, 40))) for _ in range(10)]:
        for ints in ((4, 2, 1), (9, 3, 1)):
            got = reconstruct_triple(prefix, Triple(*ints))
            assert got == reconstruct_triple(prefix, triple(*ints)), (prefix, ints)
            assert got == fraction_replay(prefix, Triple(*ints))


def test_reconstruct_replays_long_random():
    rng = random.Random(7)
    for _ in range(25):
        prefix = tuple(rng.choice((I, II, III)) for _ in range(rng.randint(10, 12)))
        got, end = replay(prefix)
        assert got == prefix
        assert end == DEFAULT_SEED


def test_reconstruct_with_custom_seed():
    seed = parse_triple("9/2,3,1")
    prefix = (II, III, I, I)
    got, end = replay(prefix, seed)
    assert got == prefix
    assert end == seed


def test_partial_quotients_example():
    pq = partial_quotients((III, III, I, II, III, I))
    assert pq.ks == (3, 1, 2)
    assert pq.rules == (I, II, I)
    assert pq.times == (3, 4, 6)


def test_partial_quotients_trailing_iii_rejected():
    with pytest.raises(IncompletePrefix):
        partial_quotients((III,))
    with pytest.raises(IncompletePrefix):
        partial_quotients((I, III, III))


def test_partial_quotients_empty():
    pq = partial_quotients(())
    assert pq.ks == ()
    assert pq.expand() == ()


def test_partial_quotients_validation():
    with pytest.raises(ValueError):
        PartialQuotients((1, 2), (I,))
    with pytest.raises(ValueError):
        PartialQuotients((0,), (I,))
    with pytest.raises(ValueError):
        PartialQuotients((1,), (III,))


def test_partial_quotients_round_trip_exhaustive():
    # all (k_i <= 4, rules in {I,II}) sequences of length <= 5, decoded from the expansion
    def seqs(n):
        if n == 0:
            yield (), ()
            return
        for ks, rules in seqs(n - 1):
            for k in (1, 2, 3, 4):
                for r in (I, II):
                    yield ks + (k,), rules + (r,)

    for n in range(0, 6):
        for ks, rules in seqs(n):
            pq = PartialQuotients(ks, rules)
            assert partial_quotients(pq.expand()) == pq


def test_omega_lengths_examples():
    assert omega_lengths(triple(9, 4, 2)) == (13, 6, 11)
    assert omega_lengths(triple(4, 3, 2)) == (7, 5, 6)
    assert omega_lengths(triple(4, 2, 1)) == (6, 3, 5)


def test_omega_lengths_fully_subtractive():
    # across one step the smallest pairwise sum is subtracted from the other two
    rng = random.Random(11)
    for _ in range(40):
        t = reconstruct_triple(
            tuple(rng.choice((I, II, III)) for _ in range(rng.randint(1, 10)))
        )
        before = sorted(omega_lengths(t))
        new, _ = ar_step(t)
        after = omega_lengths(new)
        small = before[0]
        assert sorted(after) == sorted([small, before[1] - small, before[2] - small])


def test_prefix_parse_and_format():
    assert parse_prefix("112") == (I, I, II)
    assert parse_prefix("I,II,I") == (I, II, I)
    assert parse_prefix("iii ii") == (III, II)
    assert parse_prefix("") == ()
    assert format_prefix((I, II, III)) == "123"
    with pytest.raises(ValueError):
        parse_prefix("4")
    with pytest.raises(ValueError):
        parse_prefix("I,IV")


def test_parse_triple():
    assert parse_triple("7/1,4/1,2/1") == triple(7, 4, 2)
    assert parse_triple("7,4,2") == triple(7, 4, 2)
    assert parse_triple(" 7/2, 2 , 1 ") == triple("7/2", 2, 1)
    with pytest.raises(ValueError):
        parse_triple("7,4")


def test_triple_str():
    assert str(triple(7, 4, 2)) == "(7,4,2)"
    assert str(parse_triple("7/2,2,1")) == "(7/2,2,1)"
