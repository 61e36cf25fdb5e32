"""Ergodicity and eigenvalue probes over directing data and exchanges.

Everything here reports prefix-only evidence: the underlying criteria are
asymptotic (divergence of a series, boundedness of a sequence, convergence
to zero) and cannot be decided from finite data.  Flags therefore carry
explicit thresholds, and reports label themselves as such rather than
claiming verdicts about the infinite system.

Conventions for a partial-quotient sequence (k_1, rule_1), ..., (k_N, rule_N):

* xi_n, defined for n >= 1 while lookahead lasts:
  - 1/k_{n+2} when rule_{n+1} is the doubling rule (I_m) with k_{n+1} >= 2,
  - 1/(3^l k_{n+2} ... k_{n+l+1}) when rule_{n+1} is I_m with k_{n+1} = 1
    or is II_m, and the next I_m rule after position n+1 sits at position
    n+l (so l >= 2); indices without enough lookahead are omitted.
* the n_i are the n >= 1 with rule_n = I_m.
* pattern (i): positions s with rule_{s+2} = I_m and k_{s+2} = 1;
  pattern (ii): positions s with rule_{s+2} = I_m, rule_{s+1} = II_m and
  k_{s+1} = 1.
* the eigenvalue scan follows k_{n+1} * dist(h_{a,m_n} theta, Z) for
  n = 0..N-1, with h_{a,m_0} = 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import NotAFactor
from .gasket import PartialQuotients, Sym, _check_prefix_length, reconstruct_triple
from .iet import Ar9Map, Interval, build_ar9
from .induction import StageChain, block_stage, iterate_induction, jump_stages, orbit_counts
from .words import A3_MEMBERS, A9, multiplicative_heights

DEFAULT_XI_SUM_THRESHOLD = Fraction(2)
DEFAULT_TAIL_EPSILON = Fraction(1, 100)
DEFAULT_PERSISTENCE = 3


# --- the xi series and series-based flags -----------------------------------

def _xi_at(pq: PartialQuotients, n: int) -> Fraction | None:
    """xi_n, or None when the prefix is too short to evaluate it."""
    ks, rules = pq.ks, pq.rules
    N = len(ks)
    if n + 1 > N:
        return None
    rule_next = rules[n]  # rule_{n+1}, 0-based position n
    if rule_next is Sym.I and ks[n] >= 2:
        if n + 2 > N:
            return None
        return Fraction(1, ks[n + 1])
    # second branch: find the next I_m strictly after position n+1
    l = None
    for pos in range(n + 1, N):  # 0-based pos = 1-based position pos+1
        if rules[pos] is Sym.I:
            l = (pos + 1) - n
            break
    if l is None or n + l + 1 > N:
        return None
    denom = 3**l
    for j in range(n + 2, n + l + 2):  # 1-based positions n+2 .. n+l+1
        denom *= ks[j - 1]
    return Fraction(1, denom)


@dataclass(frozen=True)
class ConditionFlags:
    mtours_evidence: bool
    nue_evidence: bool
    twm_pattern: bool
    bqp_bound: int | None  # largest partial quotient seen in the prefix


@dataclass(frozen=True)
class ConditionReport:
    """Series data for one prefix; all flags are prefix-only evidence."""

    xi: dict[int, Fraction]
    xi_partial_sums: tuple[Fraction, ...]
    inv_k_partial_sums: tuple[Fraction, ...]
    flags: ConditionFlags
    evidence_scope: str = field(default="prefix-only")


def _tail(values: Sequence[Fraction]) -> list[Fraction]:
    quarter = max(1, len(values) // 4)
    return list(values[-quarter:])


def xi_sequence(
    pq: PartialQuotients,
    xi_sum_threshold: Fraction = DEFAULT_XI_SUM_THRESHOLD,
    tail_epsilon: Fraction = DEFAULT_TAIL_EPSILON,
) -> ConditionReport:
    """Evaluate the xi series and the reciprocal partial-quotient series.

    mtours_evidence: the xi partial sum clears the threshold and the tail
    quarter still contributes on average at least tail_epsilon per term
    (a divergence, not just a large-start, signature).
    nue_evidence: the increments 1/k_n are nonincreasing over the tail
    quarter and the last one is at most tail_epsilon (a convergence
    signature).  Both are heuristics over the visible prefix.
    """
    xi: dict[int, Fraction] = {}
    for n in range(1, len(pq) + 1):
        value = _xi_at(pq, n)
        if value is not None:
            xi[n] = value
    xi_values = [xi[n] for n in sorted(xi)]
    sums = tuple(accumulate(xi_values))
    inv_k = [Fraction(1, k) for k in pq.ks]
    if xi_values:
        tail = _tail(xi_values)
        mtours = sums[-1] >= xi_sum_threshold and (
            sum(tail, Fraction(0)) / len(tail) >= tail_epsilon
        )
    else:
        mtours = False
    if inv_k:
        tail = _tail(inv_k)
        nue = all(x >= y for x, y in zip(tail, tail[1:])) and tail[-1] <= tail_epsilon
    else:
        nue = False
    twm = twm_pattern(pq, tail_epsilon=tail_epsilon).pattern_present
    flags = ConditionFlags(
        mtours_evidence=mtours,
        nue_evidence=nue,
        twm_pattern=twm,
        bqp_bound=max(pq.ks) if pq.ks else None,
    )
    return ConditionReport(xi, sums, tuple(accumulate(inv_k)), flags)


@dataclass(frozen=True)
class TwmReport:
    """Data for the weak-mixing pattern: the subsequence n_i of I_m rules."""

    n_indices: tuple[int, ...]
    max_k_ni_plus_2: int | None
    sum_inv_k_ni_plus_1: Fraction
    sum_inv_k_ni: Fraction
    pattern_present: bool


def twm_pattern(
    pq: PartialQuotients, tail_epsilon: Fraction = DEFAULT_TAIL_EPSILON
) -> TwmReport:
    """Extract the n_i subsequence and its three prefix statistics.

    pattern_present (heuristic): k_{n_i+2} still grows in the second half
    of the prefix, while both reciprocal series have small tail-quarter
    sums -- the qualitative shape of the weak-mixing condition.
    """
    ks = pq.ks
    N = len(ks)
    n_indices = tuple(n for n in range(1, N + 1) if pq.rules[n - 1] is Sym.I)
    k_plus_2 = [ks[n + 1] for n in n_indices if n + 2 <= N]
    inv_plus_1 = [Fraction(1, ks[n]) for n in n_indices if n + 1 <= N]
    inv_at = [Fraction(1, ks[n - 1]) for n in n_indices]
    if k_plus_2 and len(k_plus_2) >= 2:
        half = len(k_plus_2) // 2
        growing = max(k_plus_2[half:]) > max(k_plus_2[:half])
    else:
        growing = False
    small_tails = bool(inv_at) and (
        sum(_tail(inv_plus_1), Fraction(0)) <= tail_epsilon if inv_plus_1 else False
    ) and sum(_tail(inv_at), Fraction(0)) <= tail_epsilon
    return TwmReport(
        n_indices=n_indices,
        max_k_ni_plus_2=max(k_plus_2) if k_plus_2 else None,
        sum_inv_k_ni_plus_1=sum(inv_plus_1, Fraction(0)),
        sum_inv_k_ni=sum(inv_at, Fraction(0)),
        pattern_present=growing and small_tails,
    )


@dataclass(frozen=True)
class TourabReport:
    pattern_i: tuple[int, ...]
    pattern_ii: tuple[int, ...]


def tourab_patterns(pq: PartialQuotients) -> TourabReport:
    """Positions s >= 0 matching the two c-tower recurrence patterns."""
    ks, rules = pq.ks, pq.rules
    N = len(ks)
    pattern_i = tuple(
        s for s in range(0, N - 1)
        if rules[s + 1] is Sym.I and ks[s + 1] == 1
    )
    pattern_ii = tuple(
        s for s in range(0, N - 1)
        if rules[s + 1] is Sym.I and rules[s] is Sym.II and ks[s] == 1
    )
    return TourabReport(pattern_i, pattern_ii)


# --- eigenvalue scan ---------------------------------------------------------

@dataclass(frozen=True)
class EigenScan:
    theta: Fraction
    values: tuple[Fraction, ...]
    floor: Fraction
    hits: tuple[int, ...]
    verdict: str  # "survives-prefix" | "rejected"
    rejected_at: int | None


def _dist_to_int(x: Fraction) -> Fraction:
    frac = Fraction(x.numerator % x.denominator, x.denominator)
    return min(frac, 1 - frac)


def eigenvalue_scan(
    pq: PartialQuotients,
    theta: Fraction,
    floor: Fraction | None = None,
    persistence: int = DEFAULT_PERSISTENCE,
) -> EigenScan:
    """Track the necessary-condition values k_{n+1} dist(h_{a,m_n} theta, Z).

    An eigenvalue must drive these to zero; a rational theta = p/q can only
    do so through exact zeros, so the default floor 1/(2q) flags every
    nonzero term.  The candidate is rejected once `persistence` terms reach
    the floor, and rejected_at reports the first of them.  The floor must be
    positive, so exact zeros never count and theta = 0 always survives.
    """
    if persistence < 1:
        raise ValueError(f"persistence must be positive, got {persistence}")
    theta = Fraction(theta)
    if floor is None:
        floor = Fraction(1, 2 * theta.denominator)
    elif floor <= 0:
        raise ValueError(f"floor must be positive, got {floor}")
    heights = multiplicative_heights(pq)
    values = tuple(
        pq.ks[n] * _dist_to_int(heights[n][0] * theta) for n in range(len(pq.ks))
    )
    hits = tuple(n for n, v in enumerate(values) if v >= floor)
    rejected = len(hits) >= persistence
    return EigenScan(
        theta=theta,
        values=values,
        floor=floor,
        hits=hits,
        verdict="rejected" if rejected else "survives-prefix",
        rejected_at=hits[0] if rejected else None,
    )


# --- orbit statistics --------------------------------------------------------

@dataclass(frozen=True)
class FrequencyVector:
    """Exact letter statistics of one finite orbit segment."""

    start: Fraction
    length: int
    counts: dict[str, int]

    @property
    def frequencies(self) -> dict[str, Fraction]:
        return {ch: Fraction(self.counts.get(ch, 0), self.length) for ch in A9}


def birkhoff_frequencies(m: Ar9Map, x: Fraction, n: int) -> FrequencyVector:
    """The letter counts of the n-letter coding of x, added jump by jump
    through the stages that jump_stages picks for n."""
    if n < 1:
        raise ValueError("orbit length must be positive")
    jumping = jump_stages(StageChain(m), n)
    return FrequencyVector(x, n, orbit_counts(m, jumping, x, n))


def l1_distance(v1: FrequencyVector, v2: FrequencyVector) -> Fraction:
    f1, f2 = v1.frequencies, v2.frequencies
    return sum((abs(f1[ch] - f2[ch]) for ch in A9), Fraction(0))


@dataclass(frozen=True)
class TwoMeasureReport:
    depth: int
    orbit_length: int
    swapped: bool
    base_points: tuple[Fraction, Fraction]
    vectors: tuple[FrequencyVector, FrequencyVector]
    l1: Fraction


def two_measure_experiment(pq: PartialQuotients, depth: int, n: int) -> TwoMeasureReport:
    """Compare empirical letter frequencies seeded in towers 1-bar and 4-bar.

    The distinguished towers at a multiplicative time are 1 and 4 swapped
    once per preceding I_m rule; `depth` is an additive stage index, and the
    swap count l counts I_m rules among blocks 1..N-1 where N is the number
    of blocks completed by stage `depth`.  Base points are the midpoints of
    the two stage-`depth` bases; both orbits run under the stage-0 map,
    by jumps through the stages that jump_stages plans for them first.  The
    stage-`depth` map is reached from the deepest multiplicative time that
    the plan's chain holds: one checked block stage per partial quotient up
    to m_N, then additive stages on a chain rooted at the last block stage,
    which keeps the stage-0 lattice.  A nonpositive orbit length raises
    ValueError before any stage is induced, and a prefix longer than the
    reconstruction cap raises PrefixTooLong before it is expanded.
    """
    if n < 1:
        raise ValueError("orbit length must be positive")
    length = sum(pq.ks)  # the length of the expanded prefix
    if not 0 <= depth <= length:
        raise ValueError(f"depth {depth} outside 0..{length}")
    _check_prefix_length(length)
    prefix = pq.expand()
    N = sum(1 for mi in pq.times if mi <= depth)
    l = sum(1 for rule in pq.rules[: max(N - 1, 0)] if rule is Sym.I)
    swapped = l % 2 == 1
    lo, hi = ("4", "1") if swapped else ("1", "4")
    m0 = build_ar9(reconstruct_triple(prefix))
    chain = StageChain(m0)
    jumping = jump_stages(chain, n)
    times = (0, *pq.times)
    # the blocks that the chain holds, up to the deepest multiplicative time
    held = sum(1 for mi in pq.times if mi <= len(chain.stages))
    rest = depth  # the additive stages still to induce
    if held < N:
        m = chain.stages[times[held] - 1].map if held else m0
        abc = chain.triples[times[held]]
        for i in range(held, N):
            # a closing step that the plan's look-ahead took is not taken again
            t = times[i + 1]
            closing = (chain.triples[t], chain.cases[t - 1]) if t < len(chain.triples) else None
            m, abc = block_stage(m, abc, pq.ks[i], pq.rules[i], i + 1, closing)
        chain, rest = StageChain(m), depth - times[N]
    stages = iterate_induction(chain, rest)
    stage_map = stages[-1].map if stages else chain.m0
    points = tuple(
        (stage_map.domain[ch].left + stage_map.domain[ch].right) / 2
        for ch in (lo, hi)
    )
    vectors = tuple(FrequencyVector(x, n, orbit_counts(m0, jumping, x, n)) for x in points)
    return TwoMeasureReport(
        depth=depth,
        orbit_length=n,
        swapped=swapped,
        base_points=points,
        vectors=vectors,
        l1=l1_distance(*vectors),
    )


# --- preimage clusters -------------------------------------------------------

Pieces = tuple[Interval, ...]


@dataclass(frozen=True)
class PreimageReport:
    target: str
    depth: int
    count: int
    witnesses: Pieces


def preimage_clusters(m: Ar9Map, target: str) -> PreimageReport:
    """The set of points whose three-letter coding starts with `target`,
    as merged intervals, via exact backward refinement.

    Each step is one ordered sweep on the map's integer lattice: the current
    intervals are cut by the image pieces of the next letter's class, taken in
    the order of their domain pieces, and translated back.  That pulls them
    back under T and restricts them to the letter at once.  Each part lies in
    its piece's domain, so the parts come out sorted and disjoint, and
    touching ones are joined as they are appended.

    Raises NotAFactor as soon as the refinement empties: the word never occurs.
    """
    if not target or set(target) - set("abc"):
        raise ValueError(f"target must be a nonempty word over abc: {target!r}")
    lat = m.lattice
    images = {
        letter: [(left + off, right + off, off) for left, right, ch, off in lat.rows()
                 if ch in members]
        for letter, members in A3_MEMBERS.items()
    }
    current = lat.union(A3_MEMBERS[target[-1]])
    for letter in reversed(target[:-1]):
        parts = []
        for lo, hi, off in images[letter]:
            for left, right in current:
                if left >= hi:
                    break
                if right > lo:
                    left = (lo if left < lo else left) - off
                    if parts and parts[-1][1] == left:
                        left = parts.pop()[0]
                    parts.append((left, (hi if right > hi else right) - off))
        if not parts:
            raise NotAFactor(f"{target!r} is not a factor of the coding language",
                             target=target)
        current = parts
    witnesses = tuple(lat.interval(left, right) for left, right in current)
    return PreimageReport(
        target=target, depth=len(target), count=len(witnesses), witnesses=witnesses
    )


# --- certified series bounds -------------------------------------------------

def reciprocal_sum_upper_bound(
    ks: Iterable[int], resolution: int = 2**64
) -> Fraction:
    """Certified rational upper bound for sum(1/k) over the given integers.

    Each term is rounded up to a multiple of 1/resolution, so the result
    over-counts by less than (number of terms)/resolution while staying a
    true upper bound; exact summation of millions of fractions would be
    hopeless, this runs in integer arithmetic.  A resolution below 1
    raises ValueError.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be a positive integer, got {resolution}")
    D = resolution
    total = 0
    for k in ks:
        if k < 1:
            raise ValueError("terms must be positive integers")
        total += -(-D // k)
    return Fraction(total, D)
