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

import json
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from ar_iet import analysis, induction
from ar_iet.analysis import birkhoff_frequencies, two_measure_experiment
from ar_iet.cli import main
from ar_iet.errors import NotInGasket, OutOfDomain
from ar_iet.gasket import (
    PartialQuotients,
    Sym,
    Triple,
    ar_step,
    format_prefix,
    reconstruct_triple,
    triple,
)
from ar_iet.iet import ORDER_TAGS, Lattice, OrderTag, _scaled, build_ar9, trajectory
from ar_iet.induction import (
    STAGE_COST,
    StageChain,
    iterate_induction,
    jump_stages,
    orbit_counts,
    orbit_route,
)
from ar_iet.towers import tower_families
from ar_iet.words import A9, Substitution, heights_by_matrix, letter_height, project, sigma9

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
    stages = jump_stages(StageChain(m), LONG[-1])
    K = len(stages)
    assert K >= 3
    assert [s.map for s in stages] == [s.map for s in iterate_induction(StageChain(m), K)]
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
    stages = jump_stages(StageChain(m), LONG[-1])
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


def ref_jump_stage(t, n, held=0):
    """The k of least cost by the cost rule, every k evaluated, stages
    1..held free; ties go to the smallest k."""
    cases, sums = [], [sum(t)]
    try:
        while True:
            t, case = ar_step(t)
            cases.append(case)
            sums.append(sum(t))
    except NotInGasket:
        pass
    costs = [max(k - held, 0) * STAGE_COST + max(hv) + n * sums[k] / sums[0]
             for k, hv in enumerate(heights_by_matrix(cases))]
    return costs.index(min(costs))


def test_jump_stage_minimizes_the_estimated_cost():
    rng = random.Random("jump-stage")
    for _ in range(40):
        prefix = tuple(Sym(rng.randint(1, 3)) for _ in range(rng.randint(1, 40)))
        m = build_ar9(reconstruct_triple(prefix))
        for n in (0, 1, 500, 752, 753, 2_000, 20_000, 10**6, 10**9):
            assert len(jump_stages(StageChain(m), n)) == ref_jump_stage(m.triple, n), (prefix, n)
    # an orbit of at most 752 steps is always walked: one stage costs
    # STAGE_COST plus a height of 2, and |B_1| / |X| = a / (a + b + c) > 1/3
    assert all(ref_jump_stage(reconstruct_triple((s,) * 30), 752) == 0 for s in Sym)


def test_orbits_shorter_than_one_stage_step_no_triple(monkeypatch):
    # the check --coding orbits and the preimage ladders are this short
    def ar_step(t):
        raise AssertionError("the triple was stepped")

    m = build_ar9(reconstruct_triple((Sym.I, Sym.II, Sym.III) * 10))
    monkeypatch.setattr(induction, "ar_step", ar_step)
    for n in (0, 1, 500, STAGE_COST + 1):
        assert jump_stages(StageChain(m), n) == []
    with pytest.raises(AssertionError):
        jump_stages(StageChain(m), STAGE_COST + 2)


def test_jump_stage_is_capped_where_the_triple_leaves_the_gasket():
    m = build_ar9(triple(7, 4, 2))  # (7,4,2) -> (4,2,1), which ties
    assert len(jump_stages(StageChain(m), 10**9)) == 1
    assert trajectory(m, F(6), 10**4) == walked(m, F(6), 10**4)


def test_held_stages_are_reused_and_cost_nothing():
    prefix = (Sym.I, Sym.II, Sym.III) * 10
    m = build_ar9(reconstruct_triple(prefix))
    chain = StageChain(m)
    held = iterate_induction(chain, 20)
    free = jump_stages(chain, 20_000)
    assert len(free) > len(jump_stages(StageChain(m), 20_000))
    assert all(a is b for a, b in zip(free, held))
    assert jump_stages(chain, 0) == []
    chain = StageChain(m)
    held = iterate_induction(chain, 2)
    more = jump_stages(chain, 10**9)
    assert more[:2] == held and len(more) > 2
    assert [s.map for s in more] == [s.map for s in iterate_induction(StageChain(m), len(more))]


def test_a_stage_that_fails_its_checks_stays_a_fault(monkeypatch):
    def swapped(case):
        table = dict(sigma9(case).table)
        table["1"], table["2"] = table["2"], table["1"]
        return Substitution("A9", table)

    # a wrong substitution table makes every stage fail its word check
    monkeypatch.setattr(induction, "sigma9", swapped)
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
    assert len(jump_stages(StageChain(m), n)) == k
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
    assert len(jump_stages(StageChain(m), 10**5)) == 1
    tracemalloc.start()
    try:
        counts = birkhoff_frequencies(m, F(6), 10**5).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 10**5
    assert peak <= 64 * 1024, f"{peak // 1024} KiB"


def test_counts_through_every_stage_compose_only_what_the_orbit_reads():
    # all 510 stages of k = 2^n over 8 I-blocks, handed to orbit_counts
    # unplanned: composed whole, their return words would hold about 10^12
    # letters, but each is composed only as far as the orbit reads
    pq = PartialQuotients(tuple(2**k for k in range(1, 9)), (Sym.I,) * 8)
    m0 = build_ar9(reconstruct_triple(pq.expand()))
    chain = StageChain(m0)
    stages = iterate_induction(chain, pq.times[-1])
    assert len(stages) == 510 and chain.heights[-1][0] == 159_753_764_671
    report = two_measure_experiment(pq, pq.times[-1], 10**4)
    for x, planned in zip(report.base_points, report.vectors):
        tracemalloc.start()
        try:
            counts = orbit_counts(m0, stages, x, 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == planned.counts
        assert peak <= 1024 * 1024, f"{peak // 1024} KiB"


def test_two_measure_refuses_an_empty_orbit_before_inducing(monkeypatch):
    def induce(*args, **kwargs):
        raise AssertionError("a stage was induced")

    # every way to a stage: the additive chain, its single step, and the blocks
    monkeypatch.setattr(analysis, "iterate_induction", induce)
    monkeypatch.setattr(analysis, "block_stage", induce)
    monkeypatch.setattr(induction, "induce_step", induce)
    pq = PartialQuotients(tuple(2**k for k in range(1, 9)), (Sym.I,) * 8)
    for n in (0, -1):
        with pytest.raises(ValueError, match="orbit length must be positive"):
            two_measure_experiment(pq, pq.times[-1], n)


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


@pytest.mark.parametrize("order,gapped", CASES, ids=IDS)
def test_the_chain_holds_each_stage_once(order, gapped):
    m, _ = system(order, gapped)
    D0, K = m.lattice.D, 10
    chain = StageChain(m)
    stages = iterate_induction(chain, K)
    assert chain.cases == [s.case for s in stages]
    maps = [m, *(s.map for s in stages)]
    assert chain.triples == [Triple(*_scaled(D0, each.triple)) for each in maps]
    for k, f in enumerate(tower_families(chain, 0, K)):
        hv = chain.heights[k]
        assert hv == heights_by_matrix(chain.cases[:k])[-1], k
        assert all(f.nine[ch].height == letter_height(ch, hv) for ch in A9), k
    # a chain that already holds stages counts them as free, and hands the
    # same stage objects back
    for held in (0, 2, K):
        for n in (0, 1, 753, 5_000, 50_000, 10**6, 10**9):
            chain = StageChain(m)
            before = iterate_induction(chain, held)
            got = jump_stages(chain, n)
            assert len(got) == ref_jump_stage(m.triple, n, held), (held, n)
            assert all(a is b for a, b in zip(got, before))
            assert chain.stages[:len(got)] == got


DOUBLING = PartialQuotients(tuple(2**n for n in range(1, 9)), (Sym.I,) * 8)
ODD = PartialQuotients((3, 5, 7, 9), (Sym.I,) * 4)


@pytest.mark.parametrize("pq,depth,steps", [
    (DOUBLING, None, 7 + 6),
    (DOUBLING, 0, 7),
    (ODD, None, 8 + 2),
], ids=("depth510", "depth0", "ks3579"))
def test_each_stage_is_stepped_once(monkeypatch, capsys, pq, depth, steps):
    # a two-measure run: jump_stages steps the triples ahead on a fresh chain
    # and then induces the stages it picks from those steps; each block past
    # the deepest multiplicative time it holds then takes its closing step,
    # unless the plan's look-ahead already took it, and no triple inside a
    # block's run of III is stepped
    plan = StageChain(build_ar9(reconstruct_triple(pq.expand())))
    jump_stages(plan, 10_000)
    held = sum(1 for mi in pq.times if mi <= len(plan.stages))
    blocks = sum(1 for mi in pq.times if mi <= (pq.times[-1] if depth is None else depth))
    closings = sum(1 for mi in pq.times[held:blocks] if mi >= len(plan.triples))
    real, stepped, left = induction.ar_step, [], []

    def counting(t):
        try:
            result = real(t)
        except NotInGasket:
            left.append(t)
            raise
        stepped.append(t)
        return result

    monkeypatch.setattr(induction, "ar_step", counting)
    argv = ["experiment", "--two-measure", "--ks", ",".join(map(str, pq.ks)),
            "--rules", format_prefix(pq.rules), "--length", "10000"]
    assert main(argv + ([] if depth is None else ["--depth", str(depth)])) == 0
    capsys.readouterr()
    assert len(stepped) == len(set(stepped))
    assert len(left) <= 1
    # the planned triples and one closing step per block past them, not
    # 510 triples; on the odd blocks the plan holds block 2's closing triple
    assert len(stepped) == len(plan.triples) - 1 + closings == steps


def test_a_chain_steps_out_of_the_gasket_once(monkeypatch):
    # (7,4,2) -> (4,2,1), which ties: the chain holds one step and then
    # remembers that the next one leaves the gasket
    real, calls = induction.ar_step, []

    def counting(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(induction, "ar_step", counting)
    chain = StageChain(build_ar9(triple(7, 4, 2)))
    for _ in range(2):
        assert len(jump_stages(chain, 10**9)) == 1
    assert calls == [(7, 4, 2), (4, 2, 1)]
    # inducing past it steps the stage-1 triple again only to word the
    # error in its Fractions
    with pytest.raises(NotInGasket) as exc:
        iterate_induction(chain, 2)
    assert str(exc.value) == "a-b-c = 1 ties another entry of (4,2,1)"
    assert exc.value.detail == {"reason": "tie", "at_step": 2}
    assert calls[2:] == [triple(4, 2, 1)] and type(calls[2].a) is F


def test_orbits_read_points_as_cells_on_the_maps_own_lattice(monkeypatch, capsys):
    # a point is read as its cell floor(xD) on m0's lattice, which holds every
    # stage: no lattice is refined to hold the point's denominator
    m, points = system(ORDER_TAGS[0], True)
    x = points[2]
    assert x.denominator % (2**127 - 1) == 0
    want = walked(m, x, LONG[0])

    def refuse(self, denominator):
        raise AssertionError(f"a lattice refined to hold 1/{denominator}")

    monkeypatch.setattr(Lattice, "refined", refuse)
    assert len(jump_stages(StageChain(m), LONG[0])) >= 3
    assert trajectory(m, x, LONG[0]) == want
    assert birkhoff_frequencies(m, x, LONG[0]).counts == dict(Counter(want))
    assert main(["check", "--coding", "--prefix", "12131", "--depth", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
