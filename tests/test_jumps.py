"""Orbits by first-return jumps, against the walk under T.

The reference is `Lattice.walk`, one bisection per letter, on the lattice
of the stage-0 map refined to hold the point.  Each of the six
arrangements, adjacent and gapped, gets a seeded 20-40 letter prefix, one
point for each denominator 997, 2^61 - 1 and 2^127 - 1, and a piece end
on the map's own lattice.  Orbits are
coded by jumps through each stage k = 0..K, K the stage that `jump_stages`
picks for 50,000 steps, at n = 0, 1 and each class height h - 1, h, h + 1
of stages 0..K, and through stage K also at 20,000 and 50,000.  Words and
letter counts must equal the walk's, and errors must be the walk's.
"""
from __future__ import annotations

import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from ar_iet.analysis import birkhoff_frequencies, two_measure_experiment
from ar_iet.errors import NotInGasket, OutOfDomain
from ar_iet.gasket import PartialQuotients, Sym, ar_step, reconstruct_triple, triple
from ar_iet.iet import ORDER_TAGS, OrderTag, build_ar9, trajectory
from ar_iet.induction import (
    STAGE_COST,
    iterate_induction,
    jump_stages,
    orbit_counts,
    orbit_route,
)
from ar_iet.words import A9, heights_by_matrix, project

F = Fraction
DENOMINATORS = (997, 2**61 - 1, 2**127 - 1)
LONG = (20_000, 50_000)
CASES = [(order, gapped) for order in ORDER_TAGS for gapped in (False, True)]
IDS = [f"{o}-{'gapped' if g else 'adjacent'}" for o, g in CASES]


def walked(m, x, n):
    """The walk's letters of n steps from x, or the error it raises."""
    lat = m.lattice.refined(x.denominator)
    p = lat.coordinate(x)
    try:
        return "".join(lat.walk(p, p + 1, n)[0])
    except OutOfDomain as e:
        return e


def system(order, gapped):
    rng = random.Random(f"jumps/{order}/{gapped}")
    prefix = tuple(Sym(rng.randint(1, 3)) for _ in range(rng.randint(20, 40)))
    gaps = ((F(rng.randint(1, 9), rng.randint(2, 12)), F(rng.randint(1, 9), rng.randint(2, 12)))
            if gapped else (F(0), F(0)))
    m = build_ar9(reconstruct_triple(prefix), order, gaps)
    points = []
    for den in DENOMINATORS:
        piece = m.domain[rng.choice(A9)]
        points.append(piece.left + piece.length * F(rng.randrange(1, den), den))
    # and a piece end, on the map's own lattice, where an offset one unit
    # off moves the orbit by a whole unit
    points.append(m.domain[rng.choice(A9)].left)
    return m, points


def assert_same_error(got, want):
    assert type(got) is type(want) is OutOfDomain
    assert str(got) == str(want)
    assert got.detail == want.detail
    assert got.level == want.level


@pytest.mark.parametrize("order,gapped", CASES, ids=IDS)
def test_jumps_code_the_orbit_of_the_walk(order, gapped):
    m, points = system(order, gapped)
    stages = jump_stages(m, LONG[-1])
    K = len(stages)
    assert K >= 3
    assert [s.map for s in stages] == [s.map for s in iterate_induction(m, K)]
    heights = heights_by_matrix([s.case for s in stages])
    short = sorted({0, 1} | {h + d for hv in heights for h in hv for d in (-1, 0, 1)})
    for x in points:
        reference = walked(m, x, LONG[-1])
        for k in range(K + 1):
            for n in short + (list(LONG) if k == K else []):
                assert "".join(orbit_route(m, stages[:k], x, n)) == reference[:n], (k, n)
                want = Counter(reference[:n])
                assert orbit_counts(m, stages[:k], x, n) == {ch: want[ch] for ch in A9 if want[ch]}
        for n in short + list(LONG):
            assert trajectory(m, x, n) == reference[:n]
            assert trajectory(m, x, n, "three") == project(reference[:n], "A3")
            if n:
                assert birkhoff_frequencies(m, x, n).counts == dict(Counter(reference[:n]))


@pytest.mark.parametrize("order,gapped", CASES, ids=IDS)
def test_jumps_raise_the_errors_of_the_walk(order, gapped):
    m, _ = system(order, gapped)
    stages = jump_stages(m, LONG[-1])
    support = sorted(m.role_blocks)
    unit = F(1, DENOMINATORS[-1])
    starts = [support[0].left - unit, support[0].left - 1, support[-1].right,
              support[-1].right + unit]
    starts += [left.right for left, right in zip(support, support[1:]) if left.right < right.left]
    assert len(starts) == (6 if gapped else 4)
    for x in starts:
        for n in (0, 1, 2) + LONG:
            want = walked(m, x, n)
            assert want == "" if n == 0 else isinstance(want, OutOfDomain)
            runs = [run for k in range(len(stages) + 1) for run in (
                lambda k=k: "".join(orbit_route(m, stages[:k], x, n)),
                lambda k=k: orbit_counts(m, stages[:k], x, n))]
            runs += [lambda: trajectory(m, x, n), lambda: trajectory(m, x, n, "three")]
            if n:
                runs.append(lambda: birkhoff_frequencies(m, x, n))
            for run in runs:
                if n == 0:
                    assert run() in ("", {})
                    continue
                with pytest.raises(OutOfDomain) as got:
                    run()
                assert_same_error(got.value, want)


def ref_jump_stage(t, n):
    """The k of least cost by the cost rule, every k evaluated; ties go to
    the smallest k."""
    cases, sums = [], [sum(t)]
    try:
        while True:
            t, case = ar_step(t)
            cases.append(case)
            sums.append(sum(t))
    except NotInGasket:
        pass
    costs = [k * STAGE_COST + max(hv) + n * sums[k] / sums[0]
             for k, hv in enumerate(heights_by_matrix(cases))]
    return costs.index(min(costs))


def test_jump_stage_minimizes_the_estimated_cost():
    rng = random.Random("jump-stage")
    for _ in range(40):
        prefix = tuple(Sym(rng.randint(1, 3)) for _ in range(rng.randint(1, 40)))
        m = build_ar9(reconstruct_triple(prefix))
        for n in (0, 1, 500, 752, 753, 2_000, 20_000, 10**6, 10**9):
            assert len(jump_stages(m, n)) == ref_jump_stage(m.triple, n), (prefix, n)
    # an orbit of at most 752 steps is always walked: one stage costs
    # STAGE_COST plus a height of 2, and |B_1| / |X| = a / (a + b + c) > 1/3
    assert all(ref_jump_stage(reconstruct_triple((s,) * 30), 752) == 0 for s in Sym)


def test_orbits_shorter_than_one_stage_step_no_triple(monkeypatch):
    # the check --coding orbits and the preimage ladders are this short
    import ar_iet.induction as induction

    def ar_step(t):
        raise AssertionError("the triple was stepped")

    m = build_ar9(reconstruct_triple((Sym.I, Sym.II, Sym.III) * 10))
    monkeypatch.setattr(induction, "ar_step", ar_step)
    for n in (0, 1, 500, STAGE_COST + 1):
        assert jump_stages(m, n) == []
    with pytest.raises(AssertionError):
        jump_stages(m, STAGE_COST + 2)


def test_jump_stage_is_capped_where_the_triple_leaves_the_gasket():
    m = build_ar9(triple(7, 4, 2))  # (7,4,2) -> (4,2,1), which ties
    assert len(jump_stages(m, 10**9)) == 1
    assert trajectory(m, F(6), 10**4) == walked(m, F(6), 10**4)


def test_held_stages_are_reused_and_cost_nothing():
    prefix = (Sym.I, Sym.II, Sym.III) * 10
    m = build_ar9(reconstruct_triple(prefix))
    held = iterate_induction(m, 20)
    free = jump_stages(m, 20_000, held)
    assert len(free) > len(jump_stages(m, 20_000))
    assert all(a is b for a, b in zip(free, held))
    assert jump_stages(m, 0, held) == []
    more = jump_stages(m, 10**9, held[:2])
    assert more[:2] == held[:2] and len(more) > 2
    assert [s.map for s in more] == [s.map for s in iterate_induction(m, len(more))]


def test_a_stage_that_fails_its_checks_stays_a_fault(monkeypatch):
    import ar_iet.induction as induction

    real = induction.induce_step

    def broken(m, index=1, cap=induction.DEFAULT_RETURN_CAP):
        stage = real(m, index, cap)
        return induction.InductionStage(**{**vars(stage), "words_ok": False})

    monkeypatch.setattr(induction, "induce_step", broken)
    m = build_ar9(reconstruct_triple((Sym.I, Sym.II, Sym.III) * 10))
    with pytest.raises(RuntimeError, match="induction stage 1 disagrees"):
        trajectory(m, m.domain["1"].left, 20_000)
    assert trajectory(m, m.domain["1"].left, 100) == walked(m, m.domain["1"].left, 100)


# the orbit workload's third trajectory (seed 1): order third, adjacent, on
# the (1/(2^127 - 1))Z lattice
TRAJ02 = (triple(1622293859, 858063028, 179823630), OrderTag("third"),
          F(802370547248138622386307553960660354734203144734, 2**127 - 1))


@pytest.mark.parametrize("n,k,kib", [(20_000, 6, 256), (2_000, 2, 64), (1_000, 0, 32)])
def test_long_orbits_keep_no_left_ends(n, k, kib):
    t, order, x = TRAJ02
    m = build_ar9(t, order)
    assert len(jump_stages(m, n)) == k
    tracemalloc.start()
    try:
        word = trajectory(m, x, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(word) == n
    assert peak < kib * 1024, f"{peak // 1024} KiB"


def test_frequencies_keep_nothing_per_jump():
    # (7,4,2) leaves the gasket after one step, so 10^5 steps take about
    # 54,000 jumps through B_1
    m = build_ar9(triple(7, 4, 2))
    assert len(jump_stages(m, 10**5)) == 1
    tracemalloc.start()
    try:
        counts = birkhoff_frequencies(m, F(6), 10**5).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 10**5
    assert peak <= 64 * 1024, f"{peak // 1024} KiB"


def test_birkhoff_on_the_two_measure_regime_at_ten_million_steps():
    # 8 blocks of I with k = 2^n, the regime of acceptance criterion 9
    pq = PartialQuotients(tuple(2**k for k in range(1, 9)), (Sym.I,) * 8)
    m = build_ar9(reconstruct_triple(pq.expand()))
    report = two_measure_experiment(pq, pq.times[-1], 10**4)
    x = report.base_points[0]
    start = time.perf_counter()
    far = birkhoff_frequencies(m, x, 10**7)
    assert time.perf_counter() - start < 1
    assert sum(far.counts.values()) == 10**7
    # the walk, in chunks so that it never holds a million left ends
    lat = m.lattice.refined(x.denominator)
    p, counts = lat.coordinate(x), Counter()
    for _ in range(10):
        letters, lefts = lat.walk(p, p + 1, 10**5 + 1)
        counts.update(letters[:-1])
        p = lefts[-1]
    assert birkhoff_frequencies(m, x, 10**6).counts == dict(counts)
