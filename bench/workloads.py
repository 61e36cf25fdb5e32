"""Seeded inputs, job lists and the correctness gate of the three workloads.

Every input comes from `random.Random(f"{workload}/{seed}")`, so one seed
gives one job list.  A job is a zero-argument call into ar_iet whose result
the gate checks after the pass: oracles that hold for any seed, plus exact
digests recorded at the default seed.

The ar_iet names used by jobs are imported into this module on purpose: the
tracer wraps them here, at the names this module looks up.
"""
from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from ar_iet.analysis import preimage_clusters, two_measure_experiment
from ar_iet.cli import main as cli_main
from ar_iet.gasket import (
    PartialQuotients,
    Sym,
    format_prefix,
    partial_quotients,
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
from ar_iet.words import (
    A9,
    factor_complexity,
    heights_by_matrix,
    multiplicative_stage_words,
    stage_words,
)

DEFAULT_SEED = 1
WORD_CAP = 10**7

# Input sizes.  "full" is what the benchmark measures; "tiny" is a seconds-long
# pass over the same job kinds, used by the benchmark's own tests.
PARAMS: dict[str, dict[str, dict[str, Any]]] = {
    "verify": {
        "full": {
            "prefix_len": 16,
            "random_jobs": 22,
            "depths": [8, 9, 10, 11],
            "deep_depth": 12,
            "ones_depth": 10,
            # median of sum over stages 0..depth of the tower level count,
            # over uniform 16-letter prefixes; accepted within +-tolerance
            "level_targets": {"8": 1312, "9": 2197, "10": 3712, "11": 6081, "12": 10028},
            "tolerance": 0.05,
        },
        "tiny": {
            "prefix_len": 6,
            "random_jobs": 3,
            "depths": [2, 3],
            "deep_depth": 4,
            "ones_depth": 3,
            "level_targets": None,
            "tolerance": None,
        },
    },
    "orbit": {
        "full": {
            "trajectories": 12,
            "steps": 20_000,
            "prefix_len": [20, 40],
            "denominators": [997, 2**61 - 1, 2**127 - 1],
            "circle_systems": 8,
            "circle_points": 1000,
            "two_measure_blocks": 8,
            "two_measure_length": 10_000,
        },
        "tiny": {
            "trajectories": 3,
            "steps": 300,
            "prefix_len": [20, 40],
            "denominators": [997, 2**61 - 1, 2**127 - 1],
            "circle_systems": 1,
            "circle_points": 20,
            "two_measure_blocks": 3,
            "two_measure_length": 200,
        },
    },
    "language": {
        "full": {
            "word_jobs": 12,
            "word_prefix_len": [16, 20],
            "letters_band": [16_000, 24_000],
            "max_n": 20,
            "preimage_jobs": 10,
            "system_prefix_len": 10,
            "coding_length": 500,
            "ladder": [25, 50, 100, 200, 350, 500],
        },
        "tiny": {
            "word_jobs": 2,
            "word_prefix_len": [8, 10],
            "letters_band": None,
            "max_n": 4,
            "preimage_jobs": 2,
            "system_prefix_len": 6,
            "coding_length": 40,
            "ladder": [10, 40],
        },
    },
}

@dataclass
class Job:
    """One timed call; `check` returns the gate's problems with its result."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], str]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _random_prefix(rng: random.Random, length: int) -> tuple[Sym, ...]:
    return tuple(Sym(rng.randint(1, 3)) for _ in range(length))


def _interior_point(rng: random.Random, m, denominator: int) -> Fraction:
    piece = m.domain[rng.choice(A9)]
    return piece.left + piece.length * Fraction(rng.randrange(1, denominator), denominator)


# --- verify: `ar-iet check --all` in-process ---------------------------------

def _tower_levels(prefix, depth: int) -> int:
    """Tower levels summed over stages 0..depth, the work `check --all` does."""
    return sum(4 * a + 3 * b + 2 * c for a, b, c in heights_by_matrix(prefix[:depth]))


def _banded_prefix(rng, length: int, depth: int, p: dict) -> tuple[Sym, ...]:
    """A uniform prefix, redrawn until its level count is near the target, so
    that every seed asks for about the same work at each depth."""
    while True:
        prefix = _random_prefix(rng, length)
        if p["level_targets"] is None:
            return prefix
        target = p["level_targets"][str(depth)]
        if abs(_tower_levels(prefix, depth) - target) <= p["tolerance"] * target:
            return prefix


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str


def run_cli(argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return CliRun(code, out.getvalue())


def _check_problems(result: CliRun, depth: int) -> list[str]:
    if result.code != 0:
        return [f"exit code {result.code}"]
    payload = json.loads(result.stdout)
    problems = []
    if payload.get("ok") is not True:
        problems.append('"ok" is not true')
    for target in payload["targets"]:
        if target["depth"] != depth:
            problems.append(f"checked depth {target['depth']}, asked {depth}")
        if len(target["checks"]) != 5:
            problems.append(f"ran checks {sorted(target['checks'])}, not all five")
    return problems


def _verify_jobs(rng, p) -> list[Job]:
    specs = []
    for i in range(p["random_jobs"]):
        depth = p["depths"][i % len(p["depths"])]
        specs.append((_banded_prefix(rng, p["prefix_len"], depth, p), depth))
    specs.append((_banded_prefix(rng, p["prefix_len"], p["deep_depth"], p), p["deep_depth"]))
    specs.append(((Sym.I,) * p["prefix_len"], p["ones_depth"]))
    jobs = []
    for i, (prefix, depth) in enumerate(specs):
        order = ORDER_TAGS[i % len(ORDER_TAGS)]
        argv = ["check", "--all", "--prefix", format_prefix(prefix),
                "--depth", str(depth), "--order", str(order)]
        jobs.append(Job(
            id=f"check{i:02d}-{format_prefix(prefix)}-d{depth}-{order}",
            run=lambda argv=argv: run_cli(argv),
            check=lambda r, depth=depth: _check_problems(r, depth),
            digest=lambda r: _sha(r.stdout),
        ))
    return jobs


# --- orbit: forward orbits, two-measure experiment, glued circle ---------------

def reference_coding(m, x: Fraction, n: int) -> str | None:
    """Independent nine-letter coding of n steps: the map's pieces and
    offsets scaled to integers, pieces found by bisection.  None when the
    orbit leaves the domain."""
    pieces = sorted((m.domain[ch].left, m.domain[ch].right, ch) for ch in A9)
    values = [v for left, right, _ in pieces for v in (left, right)]
    values += [m.offsets[ch] for ch in A9] + [x]
    scale = math.lcm(*(v.denominator for v in values))

    def scaled(v: Fraction) -> int:
        return v.numerator * (scale // v.denominator)

    lefts = [scaled(left) for left, _, _ in pieces]
    rights = [scaled(right) for _, right, _ in pieces]
    letters = [ch for _, _, ch in pieces]
    offsets = [scaled(m.offsets[ch]) for ch in letters]
    point = scaled(x)
    out = []
    for _ in range(n):
        i = bisect.bisect_right(lefts, point) - 1
        if i < 0 or point >= rights[i]:
            return None
        out.append(letters[i])
        point += offsets[i]
    return "".join(out)


def _trajectory_problems(word: str, m, x, n: int) -> list[str]:
    if len(word) != n:
        return [f"coding has {len(word)} letters, asked {n}"]
    expected = reference_coding(m, x, n)
    if word != expected:
        return ["coding differs from the integer reference orbit"]
    return []


def _two_measure_problems(report, bound: Fraction, above: bool, n: int) -> list[str]:
    problems = []
    for v in report.vectors:
        if sum(v.counts.values()) != n:
            problems.append(f"counts sum to {sum(v.counts.values())}, not {n}")
    if above and report.l1 < bound:
        problems.append(f"l1 = {report.l1} < {bound}")
    if not above and report.l1 > bound:
        problems.append(f"l1 = {report.l1} > {bound}")
    return problems


def _two_measure_digest(report) -> str:
    return _sha(json.dumps({
        "base_points": [str(x) for x in report.base_points],
        "frequencies": [{ch: str(f) for ch, f in v.frequencies.items()} for v in report.vectors],
        "l1": str(report.l1),
        "swapped": report.swapped,
    }, sort_keys=True))


def circle_conjugacy(m, glued, canonical, points):
    """Both routes around the gluing square for every point, and the rotation
    taking the canonical circle exchange onto the glued one."""
    line_then_glue = [glue_point(m, ar9_apply(m, x)[0]) for x in points]
    glue_then_circle = [ar6_apply(glued, glue_point(m, x))[0] for x in points]
    return line_then_glue, glue_then_circle, ar6_rotation_match(glued, canonical)


def _circle_problems(result, t) -> list[str]:
    lhs, rhs, rho = result
    problems = []
    bad = sum(1 for u, v in zip(lhs, rhs) if u != v)
    if bad or len(lhs) != len(rhs):
        problems.append(f"{bad} of {len(lhs)} points break the conjugacy")
    if rho != t.b + t.c:
        problems.append(f"rotation {rho}, expected b + c = {t.b + t.c}")
    return problems


def _orbit_jobs(rng, p) -> list[Job]:
    jobs = []
    n = p["steps"]
    for i in range(p["trajectories"]):
        prefix = _random_prefix(rng, rng.randint(*p["prefix_len"]))
        t = reconstruct_triple(prefix)
        order = ORDER_TAGS[i % len(ORDER_TAGS)]
        gapped = (i // len(ORDER_TAGS)) % 2 == 1
        gaps = (tuple(Fraction(rng.randint(1, 9), rng.randint(2, 12)) for _ in range(2))
                if gapped else (Fraction(0), Fraction(0)))
        m = build_ar9(t, order, gaps)
        den = p["denominators"][i % len(p["denominators"])]
        x = _interior_point(rng, m, den)
        layout = "gapped" if gapped else "adjacent"
        jobs.append(Job(
            id=f"traj{i:02d}-L{len(prefix)}-{order}-{layout}-den{den.bit_length()}b",
            run=lambda m=m, x=x: trajectory(m, x, n),
            check=lambda w, m=m, x=x: _trajectory_problems(w, m, x, n),
            digest=_sha,
        ))
    blocks, length = p["two_measure_blocks"], p["two_measure_length"]
    regimes = (
        ("main", PartialQuotients(tuple(2**k for k in range(1, blocks + 1)), (Sym.I,) * blocks),
         Fraction(1, 10), True),
        ("control", PartialQuotients((1,) * blocks, (Sym.I,) * blocks), Fraction(1, 50), False),
    )
    for name, pq, bound, above in regimes:
        jobs.append(Job(
            id=f"twomeasure-{name}-depth{pq.times[-1]}",
            run=lambda pq=pq: two_measure_experiment(pq, pq.times[-1], length),
            check=lambda r, bound=bound, above=above:
                _two_measure_problems(r, bound, above, length),
            digest=_two_measure_digest,
        ))
    for j in range(p["circle_systems"]):
        prefix = _random_prefix(rng, rng.randint(*p["prefix_len"]))
        t = reconstruct_triple(prefix)
        m = build_ar9(t)
        glued, canonical = glue_to_ar6(m), build_ar6_canonical(t)
        points = [_interior_point(rng, m, 997) for _ in range(p["circle_points"])]
        jobs.append(Job(
            id=f"circle{j:02d}-L{len(prefix)}",
            run=lambda m=m, g=glued, c=canonical, pts=points: circle_conjugacy(m, g, c, pts),
            check=lambda r, t=t: _circle_problems(r, t),
            digest=lambda r: _sha(",".join(map(str, r[0])) + f"|{r[2]}"),
        ))
    return jobs


# --- language: stage words, factor complexity, preimage ladders ---------------

def _mixing_prefix(rng, p) -> tuple[Sym, ...]:
    """A complete prefix with a I in every three consecutive symbols.

    Runs of II and III keep one letter rare in the stage words, which then
    miss some factors of the language and undercount p(n) (5 of 59 uniform
    prefixes of length 16-20 did, at some n <= 20); with a I at least every
    third stage, none of the 828 prefixes of seeds 1-59 did.  A symbol is I
    whenever the two before it are not, and the last is I or II so the
    prefix is complete.  The letter band evens the work across seeds.
    """
    while True:
        prefix: list[Sym] = []
        for k in range(rng.randint(*p["word_prefix_len"]), 0, -1):
            forced = len(prefix) >= 2 and Sym.I not in prefix[-2:]
            prefix.append(Sym.I if forced else Sym(rng.randint(1, 3 if k > 1 else 2)))
        band = p["letters_band"]
        if band is None or band[0] <= sum(heights_by_matrix(prefix)[-1]) <= band[1]:
            return tuple(prefix)


def words_and_complexity(prefix, max_n: int) -> dict:
    pq = partial_quotients(prefix)
    out = {}
    for alphabet in ("A3", "A9"):
        out[alphabet] = stage_words(prefix, alphabet, WORD_CAP)
        out[alphabet + "-mult"] = multiplicative_stage_words(pq, alphabet, len(pq), WORD_CAP)
    previous = stage_words(prefix[:-1], "A3", WORD_CAP)
    out["p"] = [factor_complexity(out["A3"].values(), n) for n in range(1, max_n + 1)]
    out["p_previous"] = [factor_complexity(previous.values(), n) for n in range(1, max_n + 1)]
    return out


def _words_problems(r, max_n: int) -> list[str]:
    problems = []
    for alphabet in ("A3", "A9"):
        if r[alphabet] != r[alphabet + "-mult"]:
            problems.append(f"additive and multiplicative {alphabet} words differ")
    expected = [2 * n + 1 for n in range(1, max_n + 1)]
    if r["p_previous"] != r["p"]:
        problems.append("p(n) not stable across the last two stages")
    if r["p"] != expected:
        problems.append(f"p(n) = {r['p']}, expected 2n+1")
    return problems


def preimage_ladder(m, x: Fraction, length: int, ladder: list[int]):
    word = trajectory(m, x, length, "three")
    return word, [preimage_clusters(m, word[:n]) for n in ladder]


def _preimage_problems(result, x: Fraction, length: int, ladder) -> list[str]:
    word, reports = result
    if len(word) != length or set(word) - set("abc"):
        return [f"coding {word[:20]}... is not a {length}-letter word over abc"]
    problems = []
    for n, rep in zip(ladder, reports):
        if rep.target != word[:n]:
            problems.append(f"ladder step {n} refined the wrong target")
        if rep.count != len(rep.witnesses) or rep.count < 1:
            problems.append(f"target of length {n} has {rep.count} clusters")
        if not any(w.contains(x) for w in rep.witnesses):
            problems.append(f"start point not in the clusters of its length-{n} coding")
    return problems


def _preimage_digest(result) -> str:
    word, reports = result
    return _sha(word + json.dumps([[r.count, [str(w) for w in r.witnesses]] for r in reports]))


def _language_jobs(rng, p) -> list[Job]:
    jobs = []
    max_n = p["max_n"]
    for i in range(p["word_jobs"]):
        prefix = _mixing_prefix(rng, p)
        jobs.append(Job(
            id=f"words{i:02d}-{format_prefix(prefix)}",
            run=lambda prefix=prefix: words_and_complexity(prefix, max_n),
            check=lambda r: _words_problems(r, max_n),
            digest=lambda r: _sha(json.dumps(r, sort_keys=True)),
        ))
    length, ladder = p["coding_length"], p["ladder"]
    for j in range(p["preimage_jobs"]):
        prefix = _random_prefix(rng, p["system_prefix_len"])
        m = build_ar9(reconstruct_triple(prefix))
        x = _interior_point(rng, m, 997)
        jobs.append(Job(
            id=f"preimage{j:02d}-{format_prefix(prefix)}",
            run=lambda m=m, x=x: preimage_ladder(m, x, length, ladder),
            check=lambda r, x=x: _preimage_problems(r, x, length, ladder),
            digest=_preimage_digest,
        ))
    return jobs


_JOB_LISTS = {"verify": _verify_jobs, "orbit": _orbit_jobs, "language": _language_jobs}


def build_jobs(workload: str, seed: int, size: str = "full") -> list[Job]:
    """Generate the inputs and build every system the pass uses."""
    rng = random.Random(f"{workload}/{seed}")
    return _JOB_LISTS[workload](rng, PARAMS[workload][size])


def gate(job: Job, result: Any, expected: str | None) -> list[str]:
    """The problems with one job's result; empty when it is correct."""
    problems = job.check(result)
    if expected is not None and job.digest(result) != expected:
        problems.append("output digest differs from the one recorded at the default seed")
    return problems
