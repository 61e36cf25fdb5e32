"""Acceptance suite: eleven end-to-end criteria, one test each.

Every test prints a single summary line (visible with -s); pytest -v shows
the pass/fail verdict per criterion.  Runtime limits stated in a criterion
are asserted with a monotonic clock.
"""

import math
import random
import time
from fractions import Fraction

from ar_iet.analysis import (
    eigenvalue_scan,
    preimage_clusters,
    reciprocal_sum_upper_bound,
    twm_pattern,
    two_measure_experiment,
    xi_sequence,
)
from ar_iet.gasket import (
    PartialQuotients,
    Sym,
    ar_step,
    parse_prefix,
    reconstruct_triple,
)
from ar_iet.iet import (
    ORDER_TAGS,
    ar6_apply,
    ar6_rotation_match,
    ar9_apply,
    build_ar6_canonical,
    build_ar9,
    glue_point,
    glue_to_ar6,
    trajectory,
)
from ar_iet.induction import StageChain, iterate_induction
from ar_iet.towers import (
    A3_MEMBERS,
    adjacency_check,
    level_component_counts,
    partition_check,
    towers_at_stage,
)
from ar_iet.words import (
    A3,
    A9,
    factor_complexity,
    heights_by_matrix,
    letter_height,
    multiplicative_heights,
    multiplicative_stage_words,
    sigma3,
    sigma9,
    stage_words,
)

F = Fraction
I, II, III = Sym.I, Sym.II, Sym.III


def tribonacci(n):
    return PartialQuotients((1,) * n, (I,) * n)


def random_prefix(rng, length):
    return tuple(Sym(rng.randint(1, 3)) for _ in range(length))


def random_pq(rng, max_n, max_k):
    n = rng.randint(1, max_n)
    ks = tuple(rng.randint(1, max_k) for _ in range(n))
    rules = tuple(rng.choice((I, II)) for _ in range(n))
    return PartialQuotients(ks, rules)


def interior_point(rng, m):
    piece = m.domain[rng.choice(A9)]
    return piece.left + piece.length * F(rng.randrange(1, 997), 997)


def report(num, detail):
    print(f"criterion {num}: PASS - {detail}")


# 1. factor complexity p(n) = 2n+1 ------------------------------------------

COMPLEXITY_PREFIXES = (
    "111111111111",
    "121212121212",
    "112112112112",
    "113113113113",
    "121121121121",
    "211211211211",
    "112211221122",
    "123123123123",
    "111211121112",
    "113111311131",
)


def test_criterion_01_factor_complexity():
    start = time.monotonic()
    for text in COMPLEXITY_PREFIXES:
        prefix = parse_prefix(text)
        assert len(prefix) == 12
        words_11 = stage_words(prefix[:11], "A3", 200_000)
        words_12 = stage_words(prefix, "A3", 200_000)
        for n in range(1, 41):
            p11 = factor_complexity(words_11.values(), n)
            p12 = factor_complexity(words_12.values(), n)
            assert p11 == p12, f"{text}: p({n}) not stable: {p11} vs {p12}"
            assert p11 == 2 * n + 1, f"{text}: p({n}) = {p11} != {2 * n + 1}"
    elapsed = time.monotonic() - start
    assert elapsed <= 60
    report(1, f"10 prefixes, p(n) = 2n+1 for n = 1..40, {elapsed:.1f}s")


# 2. geometry vs combinatorics -----------------------------------------------

def test_criterion_02_orbit_codings_and_return_words():
    start = time.monotonic()
    rng = random.Random(2)
    for _ in range(20):
        prefix = random_prefix(rng, 10)
        t = reconstruct_triple(prefix)
        m = build_ar9(t)
        x0 = interior_point(rng, m)

        # independent three-letter coding: membership in the merged class
        # sets, never consulting the nine-letter coder
        class_sets = {
            letter: [m.domain[ch] for ch in members]
            for letter, members in A3_MEMBERS.items()
        }
        x = x0
        nine = []
        three = []
        for _ in range(2000):
            for letter, pieces in class_sets.items():
                if any(p.contains(x) for p in pieces):
                    three.append(letter)
                    break
            else:
                raise AssertionError(f"{x} in no class set")
            x, ch = ar9_apply(m, x)
            nine.append(ch)
        nine_word = "".join(nine)
        assert "".join(three) == trajectory(m, x0, 2000, "three")
        assert nine_word == trajectory(m, x0, 2000, "nine")

        # stage-k return words: tower codings against the substitution words
        chain = StageChain(m)
        iterate_induction(chain, 6)
        for k in range(7):
            family = towers_at_stage(chain, k)
            expected = stage_words(prefix[:k], "A9", 10_000)
            got = {ch: family.nine[ch].word for ch in A9}
            assert got == expected, f"stage {k} return words differ"
    elapsed = time.monotonic() - start
    assert elapsed <= 120
    report(2, f"20 systems, 2000-step codings + stage 0..6 words, {elapsed:.1f}s")


# 3. induction correctness ----------------------------------------------------

def test_criterion_03_induction_all_transitions():
    start = time.monotonic()
    rng = random.Random(3)
    systems = []
    for order in ORDER_TAGS:
        for first in (I, II, III):
            prefix = (first,) + random_prefix(rng, 7)
            systems.append((reconstruct_triple(prefix), order))
    while len(systems) < 100:
        prefix = random_prefix(rng, 8)
        systems.append((reconstruct_triple(prefix), rng.choice(ORDER_TAGS)))

    combos = set()
    for t, order in systems:
        parent = build_ar9(t, order)
        for rep in iterate_induction(StageChain(parent), 5):
            assert rep.ok, f"induction failed at {parent.triple} {parent.order}"
            assert rep.map.triple == ar_step(parent.triple)[0]
            combos.add((str(parent.order), int(rep.case)))
            parent = rep.map
    assert len(combos) == 18, f"covered {len(combos)} of 18 transitions"
    elapsed = time.monotonic() - start
    assert elapsed <= 60
    report(3, f"100 systems x 5 steps, 18/18 transitions, {elapsed:.1f}s")


# 4. heights and inequalities --------------------------------------------------

def test_criterion_04_heights_match_and_are_balanced():
    # exhaustive: every prefix of length <= 8, both alphabets
    checked = 0

    def walk(prefix, words3, words9):
        nonlocal checked
        hv = heights_by_matrix(prefix)[-1]
        for ch in A3:
            assert len(words3[ch]) == letter_height(ch, hv)
        for ch in A9:
            assert len(words9[ch]) == letter_height(ch, hv)
        checked += 1
        if len(prefix) == 8:
            return
        for sym in (I, II, III):
            t3 = sigma3(sym).table
            t9 = sigma9(sym).table
            walk(
                prefix + (sym,),
                {i: "".join(words3[j] for j in t3[i]) for i in A3},
                {i: "".join(words9[j] for j in t9[i]) for i in A9},
            )

    walk((), {ch: ch for ch in A3}, {ch: ch for ch in A9})
    assert checked == sum(3 ** k for k in range(9))

    # balance: h_b <= 2 h_a and h_c <= 2 h_a at every multiplicative time
    rng = random.Random(4)
    for _ in range(50):
        pq = random_pq(rng, max_n=20, max_k=6)
        for ha, hb, hc in multiplicative_heights(pq):
            assert hb <= 2 * ha and hc <= 2 * ha
    report(4, f"{checked} prefixes exhaustive + 50 balance sequences")


# 5. multiplicative = additive --------------------------------------------------

def test_criterion_05_multiplicative_equals_additive():
    def check(pq):
        prefix = pq.expand()
        for alphabet in ("A3", "A9"):
            mult = multiplicative_stage_words(pq, alphabet, len(pq), 200_000)
            add = stage_words(prefix, alphabet, 200_000)
            assert mult == add, f"{pq} differs on {alphabet}"

    count = 0
    for n in range(1, 4):
        for ks in _k_tuples(n, 3):
            for rules in _rule_tuples(n):
                check(PartialQuotients(ks, rules))
                count += 1
    rng = random.Random(5)
    for _ in range(300):
        check(random_pq(rng, max_n=5, max_k=4))
    report(5, f"{count} exhaustive small sequences + 300 random, both alphabets")


def _k_tuples(n, max_k):
    if n == 0:
        yield ()
        return
    for rest in _k_tuples(n - 1, max_k):
        for k in range(1, max_k + 1):
            yield rest + (k,)


def _rule_tuples(n):
    if n == 0:
        yield ()
        return
    for rest in _rule_tuples(n - 1):
        for r in (I, II):
            yield rest + (r,)


# 6. towers ---------------------------------------------------------------------

def test_criterion_06_tower_checks():
    rng = random.Random(6)
    bounds = {"a": 3, "b": 2, "c": 1}
    for i in range(20):
        t = reconstruct_triple(random_prefix(rng, 8))
        order = ORDER_TAGS[i % 6]
        gaps = (F(0), F(0)) if i % 2 == 0 else (F(1, 3), F(2, 7))
        m = build_ar9(t, order, gaps)
        chain = StageChain(m)
        iterate_induction(chain, 8)
        for k in range(9):
            family = towers_at_stage(chain, k)
            assert partition_check(family).ok
            assert adjacency_check(family).ok
            counts = level_component_counts(family)
            for letter, bound in bounds.items():
                assert counts[letter] <= bound, (
                    f"tower {letter} at stage {k}: {counts[letter]} components"
                )
    report(6, "20 systems, six orders, gapped and adjacent, stages 0..8")


# 7. gluing ------------------------------------------------------------------------

def test_criterion_07_gluing_commutes():
    rng = random.Random(7)
    for _ in range(20):
        t = reconstruct_triple(random_prefix(rng, 7))
        m = build_ar9(t)
        glued = glue_to_ar6(m)
        for _ in range(1000):
            x = interior_point(rng, m)
            tx = ar9_apply(m, x)[0]
            assert glue_point(m, tx) == ar6_apply(glued, glue_point(m, x))[0]
        rho = ar6_rotation_match(glued, build_ar6_canonical(t))
        assert rho == t.b + t.c
    report(7, "20 systems x 1000 points, conjugacy exact, rotation b+c")


# 8. diophantine condition probes ----------------------------------------------

def test_criterion_08_condition_probes():
    rep = xi_sequence(tribonacci(40))
    assert rep.xi and all(v == F(1, 9) for v in rep.xi.values())

    bound = reciprocal_sum_upper_bound(n * n for n in range(1, 10 ** 6 + 1))
    assert bound < F(17, 10)
    # positive terms: the final bound dominates every partial sum
    assert bound > F(16, 10)  # sanity: close to pi^2/6

    twm = twm_pattern(tribonacci(30))
    assert twm.max_k_ni_plus_2 == 1
    report(8, f"xi = 1/9 on I^40, sum 1/n^2 <= {float(bound):.6f} < 1.7, twm bounded")


# 9. two-measure experiment ------------------------------------------------------

def test_criterion_09_two_measures():
    start = time.monotonic()
    pq = PartialQuotients(tuple(2 ** n for n in range(1, 9)), (I,) * 8)
    main = two_measure_experiment(pq, depth=pq.times[-1], n=10_000)
    assert main.l1 >= F(1, 10), f"main l1 = {float(main.l1):.4f}"

    control = two_measure_experiment(tribonacci(8), depth=8, n=10_000)
    assert control.l1 <= F(1, 50), f"control l1 = {float(control.l1):.4f}"
    elapsed = time.monotonic() - start
    assert elapsed <= 120
    report(
        9,
        f"k = 2^n: l1 = {float(main.l1):.4f} >= 0.1; "
        f"Tribonacci control {float(control.l1):.4f} <= 0.02; {elapsed:.1f}s",
    )


# 10. preimage clusters ------------------------------------------------------------

def test_criterion_10_preimage_clusters():
    prefix = (I,) * 10
    t = reconstruct_triple(prefix)
    assert t == (1705, 927, 504)
    m = build_ar9(t)
    stages = iterate_induction(StageChain(m), 9)
    ladder = (25, 50, 100, 200, 350, 500)

    targets = 0
    for stage, points in ((8, 8), (9, 7)):
        stage_map = stages[stage - 1].map
        for letter in ("8", "9"):
            base = stage_map.domain[letter]
            for j in range(points):
                x = base.left + base.length * F(2 * j + 1, 16)
                word = trajectory(m, x, 500, "three")
                assert word.count("c") >= 2  # the coding revisits the c towers
                counts = [preimage_clusters(m, word[:n]).count for n in ladder]
                assert all(c <= 3 for c in counts), (stage, letter, j, counts)
                assert all(
                    a >= b for a, b in zip(counts, counts[1:])
                ), (stage, letter, j, counts)
                assert counts[-1] == 1, (stage, letter, j, counts)
                targets += 1
    assert targets == 30
    report(10, "30 targets: counts <= 3, nonincreasing over the ladder, 1 at depth")


# 11. eigenvalue scan ----------------------------------------------------------------

def test_criterion_11_eigenvalue_scan():
    trib = tribonacci(30)
    assert eigenvalue_scan(trib, F(0)).verdict == "survives-prefix"
    rng = random.Random(11)
    for _ in range(20):
        pq = random_pq(rng, max_n=12, max_k=5)
        assert eigenvalue_scan(pq, F(0)).verdict == "survives-prefix"

    rejected = 0
    for q in range(2, 21):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            scan = eigenvalue_scan(trib, F(p, q))
            assert scan.floor == F(1, 2 * q)
            assert scan.verdict == "rejected", f"{p}/{q} not rejected"
            assert len(scan.hits) >= 3
            assert all(scan.values[i] >= scan.floor for i in scan.hits)
            rejected += 1
    report(11, f"0 survives on 21 prefixes; {rejected} rationals q <= 20 rejected")
