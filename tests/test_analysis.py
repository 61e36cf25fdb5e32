"""Tests for the ergodicity and eigenvalue probes."""
import random
from fractions import Fraction

import pytest

from ar_iet.analysis import (
    EigenScan,
    birkhoff_frequencies,
    eigenvalue_scan,
    l1_distance,
    preimage_clusters,
    reciprocal_sum_upper_bound,
    tourab_patterns,
    twm_pattern,
    two_measure_experiment,
    xi_sequence,
)
from ar_iet.errors import NotAFactor
from ar_iet.gasket import PartialQuotients, Sym, triple
from ar_iet.iet import Interval, ORDER_TAGS, build_ar9, trajectory

F = Fraction
I, II, III = Sym.I, Sym.II, Sym.III


def tribonacci(n: int) -> PartialQuotients:
    return PartialQuotients(ks=(1,) * n, rules=(I,) * n)


# --- xi series ---------------------------------------------------------------

def test_xi_tribonacci_is_one_ninth():
    report = xi_sequence(tribonacci(30))
    # branch 2 with l = 2 at every index with three blocks of lookahead
    assert set(report.xi) == set(range(1, 28))
    assert all(v == F(1, 9) for v in report.xi.values())
    assert report.xi_partial_sums[-1] == F(27, 9)


def test_xi_constant_quotient_three_uses_first_branch():
    pq = PartialQuotients(ks=(3,) * 8, rules=(I,) * 8)
    report = xi_sequence(pq)
    assert set(report.xi) == set(range(1, 7))
    assert all(v == F(1, 3) for v in report.xi.values())


def test_xi_mixed_rules_hand_example():
    # rule_2 = II forces branch 2 with l = 2: 1/(9 k_3 k_4) = 1/27;
    # rule_3 = I with k_3 = 3 >= 2 takes branch 1: 1/k_4 = 1;
    # rule_4 = I with k_4 = 1 has no later I rule, so n = 3 is omitted.
    pq = PartialQuotients(ks=(2, 1, 3, 1), rules=(I, II, I, I))
    report = xi_sequence(pq)
    assert report.xi == {1: F(1, 27), 2: F(1)}


def test_xi_all_double_rules_yield_nothing():
    # no I rule anywhere: branch 1 never fires, branch 2 finds no l
    pq = PartialQuotients(ks=(2, 3, 4), rules=(II, II, II))
    report = xi_sequence(pq)
    assert report.xi == {}
    assert report.xi_partial_sums == ()
    assert not report.flags.mtours_evidence


def _xi_brute(pq: PartialQuotients) -> dict[int, Fraction]:
    """Independent re-derivation straight from the expanded symbols."""
    blocks: list[tuple[int, Sym]] = []
    run = 0
    for s in pq.expand():
        if s is III:
            run += 1
        else:
            blocks.append((run + 1, s))
            run = 0
    N = len(blocks)

    def rk(i: int) -> int:
        return blocks[i - 1][0]

    def rr(i: int) -> Sym:
        return blocks[i - 1][1]

    out: dict[int, Fraction] = {}
    for n in range(1, N + 1):
        if n + 1 > N:
            continue
        if rr(n + 1) is I and rk(n + 1) >= 2:
            if n + 2 <= N:
                out[n] = F(1, rk(n + 2))
            continue
        l = next((j - n for j in range(n + 2, N + 1) if rr(j) is I), None)
        if l is not None and n + l + 1 <= N:
            denom = 3**l
            for j in range(n + 2, n + l + 2):
                denom *= rk(j)
            out[n] = F(1, denom)
    return out


def test_xi_matches_brute_force_on_random_sequences():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 12)
        ks = tuple(rng.randint(1, 4) for _ in range(n))
        rules = tuple(rng.choice((I, II)) for _ in range(n))
        pq = PartialQuotients(ks=ks, rules=rules)
        assert xi_sequence(pq).xi == _xi_brute(pq)


def test_condition_flags_tribonacci():
    flags = xi_sequence(tribonacci(30)).flags
    assert flags.mtours_evidence  # sum 3 with steady 1/9 tail
    assert not flags.nue_evidence  # increments stuck at 1
    assert not flags.twm_pattern
    assert flags.bqp_bound == 1


def test_condition_flags_square_quotients():
    pq = PartialQuotients(ks=tuple(n * n for n in range(1, 41)), rules=(I,) * 40)
    report = xi_sequence(pq)
    assert report.flags.nue_evidence  # 1/n^2 tail: decreasing and tiny
    assert not report.flags.mtours_evidence  # xi sums stay well under 2
    assert report.flags.bqp_bound == 1600
    assert report.inv_k_partial_sums[-1] < F(17, 10)


def test_evidence_scope_is_explicit():
    assert xi_sequence(tribonacci(5)).evidence_scope == "prefix-only"


# --- weak-mixing pattern -----------------------------------------------------

def test_twm_tribonacci_absent():
    report = twm_pattern(tribonacci(30))
    assert report.n_indices == tuple(range(1, 31))
    assert report.max_k_ni_plus_2 == 1
    assert report.sum_inv_k_ni == F(30)
    assert not report.pattern_present


def test_twm_designed_pattern_present():
    # sparse I rules with huge neighbours and exploding k_{n_i+2}
    N = 24
    rules = [II] * N
    ks = [1] * N
    for i, pos in enumerate((1, 7, 13, 19)):
        rules[pos - 1] = I
        ks[pos - 1] = 100
        ks[pos] = 100
        ks[pos + 1] = 4 ** (i + 1)
    report = twm_pattern(PartialQuotients(ks=tuple(ks), rules=tuple(rules)))
    assert report.n_indices == (1, 7, 13, 19)
    assert report.max_k_ni_plus_2 == 256
    assert report.sum_inv_k_ni == F(4, 100)
    assert report.pattern_present


def test_twm_empty_when_no_doubling_rule():
    report = twm_pattern(PartialQuotients(ks=(2, 2), rules=(II, II)))
    assert report.n_indices == ()
    assert report.max_k_ni_plus_2 is None
    assert not report.pattern_present


# --- c-tower recurrence patterns ---------------------------------------------

def test_tourab_tribonacci_pattern_i_everywhere():
    report = tourab_patterns(tribonacci(30))
    assert report.pattern_i == tuple(range(0, 29))
    assert report.pattern_ii == ()


def test_tourab_designed_pattern_ii():
    pq = PartialQuotients(ks=(2, 1, 1, 1), rules=(II, II, II, I))
    report = tourab_patterns(pq)
    assert report.pattern_i == (2,)
    assert report.pattern_ii == (2,)


def test_tourab_empty_prefix_like():
    report = tourab_patterns(PartialQuotients(ks=(2,), rules=(I,)))
    assert report.pattern_i == ()
    assert report.pattern_ii == ()


# --- eigenvalue scan ---------------------------------------------------------

def test_eigen_zero_survives():
    scan = eigenvalue_scan(tribonacci(30), F(0))
    assert isinstance(scan, EigenScan)
    assert scan.verdict == "survives-prefix"
    assert scan.hits == ()
    assert scan.rejected_at is None
    assert all(v == 0 for v in scan.values)


def test_eigen_one_half_rejected_on_tribonacci():
    scan = eigenvalue_scan(tribonacci(30), F(1, 2))
    # h_a parities 1,0,0,1,1,... so the very first value is already 1/2
    assert scan.floor == F(1, 4)
    assert scan.values[0] == F(1, 2)
    assert scan.hits[:3] == (0, 3, 4)
    assert scan.verdict == "rejected"
    assert scan.rejected_at == 0


def test_eigen_small_denominators_all_rejected():
    pq = tribonacci(30)
    for q in range(2, 7):
        for p in range(1, q):
            if F(p, q).denominator != q:
                continue
            assert eigenvalue_scan(pq, F(p, q)).verdict == "rejected"


def test_eigen_floor_and_persistence_are_respected():
    pq = tribonacci(30)
    assert eigenvalue_scan(pq, F(1, 2), floor=F(2)).verdict == "survives-prefix"
    assert eigenvalue_scan(pq, F(1, 2), persistence=10**6).verdict == "survives-prefix"
    assert eigenvalue_scan(pq, F(1, 2), persistence=1).rejected_at == 0



def test_eigen_rejects_nonpositive_persistence():
    for persistence in (0, -2):
        with pytest.raises(ValueError):
            eigenvalue_scan(tribonacci(5), F(0), persistence=persistence)


def test_eigen_rejects_nonpositive_floor():
    # a floor of 0 would count the exact zeros of theta = 0 as hits
    pq = PartialQuotients(ks=(1, 2, 3), rules=(I,) * 3)
    for floor in (F(0), F(-1, 2)):
        with pytest.raises(ValueError, match="floor must be positive"):
            eigenvalue_scan(pq, F(0), floor=floor)
    assert eigenvalue_scan(pq, F(0), floor=F(1, 10**9)).verdict == "survives-prefix"

# --- Birkhoff frequencies ----------------------------------------------------

def test_birkhoff_single_step():
    m = build_ar9(triple(7, 4, 2))
    v = birkhoff_frequencies(m, F(6), 1)
    assert v.counts == {"1": 1}
    assert v.frequencies["1"] == 1
    assert sum(v.frequencies.values()) == 1


def test_birkhoff_counts_sum_to_length():
    m = build_ar9(triple(7, 4, 2))
    v = birkhoff_frequencies(m, F(1, 3), 200)
    assert sum(v.counts.values()) == 200
    assert sum(v.frequencies.values(), F(0)) == 1


def test_birkhoff_requires_positive_length():
    m = build_ar9(triple(7, 4, 2))
    with pytest.raises(ValueError):
        birkhoff_frequencies(m, F(6), 0)


def test_l1_distance_symmetric_and_zero_on_self():
    m = build_ar9(triple(7, 4, 2))
    v1 = birkhoff_frequencies(m, F(6), 150)
    v2 = birkhoff_frequencies(m, F(1), 150)
    assert l1_distance(v1, v2) == l1_distance(v2, v1)
    assert l1_distance(v1, v1) == 0


# --- two-measure experiment --------------------------------------------------

def test_two_measure_tribonacci_smoke():
    pq = tribonacci(4)
    report = two_measure_experiment(pq, depth=4, n=400)
    # three I rules precede the fourth block, so the towers swap
    assert report.swapped
    assert report.l1 == l1_distance(*report.vectors)
    assert all(sum(v.counts.values()) == 400 for v in report.vectors)
    assert report.base_points[0] != report.base_points[1]


def test_two_measure_depth_zero_uses_first_order_pieces():
    pq = tribonacci(3)
    report = two_measure_experiment(pq, depth=0, n=50)
    assert not report.swapped
    # base points are midpoints of the unrenormalized pieces of letters 1, 4
    assert report.base_points[0] < report.base_points[1]


def test_two_measure_depth_validation():
    with pytest.raises(ValueError):
        two_measure_experiment(tribonacci(3), depth=9, n=10)


# --- preimage clusters -------------------------------------------------------

def test_preimage_single_letters_first_order():
    m = build_ar9(triple(7, 4, 2))
    r = preimage_clusters(m, "c")
    assert r.count == 1 and r.witnesses == (Interval(F(2), F(6)),)
    r = preimage_clusters(m, "a")
    assert r.count == 1 and r.witnesses == (Interval(F(6), F(20)),)
    r = preimage_clusters(m, "b")
    assert r.count == 2
    assert r.witnesses == (Interval(F(0), F(2)), Interval(F(20), F(26)))


def test_preimage_two_letter_hand_example():
    # J_a pulled against T^{-1}(J_b) splits: the count may grow at tiny depth
    m = build_ar9(triple(7, 4, 2))
    r = preimage_clusters(m, "ab")
    assert r.count == 2
    assert r.witnesses == (Interval(F(6), F(8)), Interval(F(14), F(20)))


def test_preimage_rejects_non_factor():
    m = build_ar9(triple(7, 4, 2))
    with pytest.raises(NotAFactor):
        preimage_clusters(m, "bb")


def test_preimage_validates_target():
    m = build_ar9(triple(7, 4, 2))
    with pytest.raises(ValueError):
        preimage_clusters(m, "")
    with pytest.raises(ValueError):
        preimage_clusters(m, "abq")


def test_preimage_letters_tile_the_support():
    rng = random.Random(5)
    for order in ORDER_TAGS:
        t = triple(rng.randint(40, 90), rng.randint(15, 30), rng.randint(3, 9))
        m = build_ar9(t, order=order, gaps=(F(rng.randint(0, 3)), F(rng.randint(0, 3))))
        total = F(0)
        for letter in "abc":
            total += sum((w.length for w in preimage_clusters(m, letter).witnesses), F(0))
        assert total == 2 * (t.a + t.b + t.c)


def test_preimage_witnesses_carry_the_coding():
    m = build_ar9(triple(7, 4, 2))
    x = F(13, 7)
    word = trajectory(m, x, 30, "three")
    for depth in (1, 3, 7, 15, 30):
        r = preimage_clusters(m, word[:depth])
        assert any(w.contains(x) for w in r.witnesses)
        assert r.count <= 3
        assert r.depth == depth
        # midpoints of every witness share the coding prefix
        for w in r.witnesses:
            mid = (w.left + w.right) / 2
            assert trajectory(m, mid, depth, "three") == word[:depth]


def test_preimage_counts_settle_for_deep_targets():
    m = build_ar9(triple(7, 4, 2))
    word = trajectory(m, F(5, 3), 120, "three")
    counts = [preimage_clusters(m, word[:depth]).count for depth in (10, 30, 60, 120)]
    assert all(c in (1, 2, 3) for c in counts)
    assert counts == sorted(counts, reverse=True)


# --- certified series bound --------------------------------------------------

def test_reciprocal_sum_bound_is_upper_bound_and_tight():
    ks = [n * n for n in range(1, 2001)]
    bound = reciprocal_sum_upper_bound(ks)
    exact = sum((F(1, k) for k in ks), F(0))
    assert bound >= exact
    assert bound - exact < F(len(ks), 2**64)


def test_reciprocal_sum_bound_rejects_bad_terms():
    with pytest.raises(ValueError):
        reciprocal_sum_upper_bound([4, 0, 9])
