"""Renormalization dynamics on ordered length triples.

An admissible triple (a, b, c), a > b > c > 0, is renormalized by replacing
the largest entry with d = a - b - c and reordering.  The branch taken is
recorded as a directing symbol: d landed smallest -> I, middle -> II,
largest -> III.  Rational triples always leave the admissible region after
finitely many steps; triples staying admissible forever are exactly the
points the directing sequences parametrize.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from .errors import IncompletePrefix, Inadmissible, InvalidSeed, NotInGasket, PrefixTooLong

RECONSTRUCT_CAP = 10_000
DEFAULT_MAX_STEPS = 64


class Sym(IntEnum):
    """Directing symbol; serialized as 1, 2, 3."""

    I = 1
    II = 2
    III = 3

    def __str__(self) -> str:
        return self.name


Prefix = tuple[Sym, ...]


class Triple(NamedTuple):
    a: Fraction
    b: Fraction
    c: Fraction

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def triple(a, b, c) -> Triple:
    """Build a Triple, coercing entries to exact Fractions."""
    return Triple(Fraction(a), Fraction(b), Fraction(c))


DEFAULT_SEED = triple(4, 2, 1)


def is_admissible(t: Triple) -> bool:
    return t.a > t.b > t.c > 0


def require_admissible(t: Triple) -> None:
    if not is_admissible(t):
        raise Inadmissible(f"triple {t} violates a > b > c > 0", triple=t)


def ar_step(t: Triple) -> tuple[Triple, Sym]:
    """One renormalization step: subtract, reorder, record the branch.

    Raises NotInGasket when d = a-b-c is nonpositive or equals b or c;
    ties are errors because the dynamics needs strict order to continue.
    """
    require_admissible(t)
    a, b, c = t
    d = a - b - c
    if d <= 0:
        raise NotInGasket(f"a-b-c = {d} is not positive for {t}", reason="nonpositive")
    if d == b or d == c:
        raise NotInGasket(f"a-b-c = {d} ties another entry of {t}", reason="tie")
    if d < c:
        return Triple(b, c, d), Sym.I
    if d < b:
        return Triple(b, d, c), Sym.II
    return Triple(d, b, c), Sym.III


@dataclass(frozen=True)
class GasketExit:
    """Why directing_prefix stopped: "exhausted" after max_steps, or "not-in-gasket"."""

    kind: str
    step: int | None = None
    reason: str | None = None


def directing_prefix(
    t: Triple, max_steps: int = DEFAULT_MAX_STEPS
) -> tuple[Prefix, GasketExit]:
    """Iterate ar_step up to max_steps, recording the symbols.

    Steps are numbered from 1; a NotInGasket exit at step s means symbols
    1..s-1 were produced.
    """
    require_admissible(t)
    symbols: list[Sym] = []
    exit_ = GasketExit("exhausted")
    cur = t
    for step in range(1, max_steps + 1):
        try:
            cur, sym = ar_step(cur)
        except NotInGasket as e:
            exit_ = GasketExit("not-in-gasket", step=step, reason=e.detail.get("reason"))
            break
        symbols.append(sym)
    return tuple(symbols), exit_


def reconstruct_triple(prefix: Sequence[Sym], seed: Triple = DEFAULT_SEED) -> Triple:
    """Invert the renormalization: the triple replaying `prefix` and landing on `seed`.

    Inverse steps, applied for the symbols in reverse order:
      III: (a+b+c, b, c)    II: (a+b+c, a, c)    I: (a+b+c, a, b)
    Each inverse lands strictly admissible, so the forward replay is exact.
    An inverse step only adds, so the replay runs on the seed's integers
    times the lcm of its denominators, and the three Fractions are built
    once, at the end.  The seed may hold Fractions or plain ints.
    """
    if not is_admissible(seed):
        raise InvalidSeed(f"seed {seed} violates a > b > c > 0", triple=seed)
    if len(prefix) > RECONSTRUCT_CAP:
        raise PrefixTooLong(f"prefix length {len(prefix)} exceeds cap {RECONSTRUCT_CAP}",
                            length=len(prefix), cap=RECONSTRUCT_CAP)
    D = math.lcm(*(v.denominator for v in seed))
    a, b, c = (v.numerator * (D // v.denominator) for v in seed)
    for sym in reversed(prefix):
        s = a + b + c
        if sym is Sym.III:
            a, b, c = s, b, c
        elif sym is Sym.II:
            a, b, c = s, a, c
        else:
            a, b, c = s, a, b
    return Triple(Fraction(a, D), Fraction(b, D), Fraction(c, D))


RULE_SYMS = (Sym.I, Sym.II)


@dataclass(frozen=True)
class PartialQuotients:
    """Multiplicative reading of a directing prefix.

    Block n is kₙ-1 copies of III closed by one I or II (the rule); the
    multiplicative times are mₙ = k₁+...+kₙ.
    """

    ks: tuple[int, ...]
    rules: tuple[Sym, ...]

    def __post_init__(self):
        if len(self.ks) != len(self.rules):
            raise ValueError("ks and rules must have equal length")
        if any(k < 1 for k in self.ks):
            raise ValueError("partial quotients must be positive")
        if any(r not in RULE_SYMS for r in self.rules):
            raise ValueError("rules must be I or II")

    def __len__(self) -> int:
        return len(self.ks)

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(accumulate(self.ks))

    def expand(self) -> Prefix:
        out: list[Sym] = []
        for k, rule in zip(self.ks, self.rules):
            out.extend([Sym.III] * (k - 1))
            out.append(rule)
        return tuple(out)


def partial_quotients(prefix: Sequence[Sym]) -> PartialQuotients:
    """Decompose a prefix into III-run lengths and their closing I/II rules."""
    ks: list[int] = []
    rules: list[Sym] = []
    run = 0
    for sym in prefix:
        if sym is Sym.III:
            run += 1
        else:
            ks.append(run + 1)
            rules.append(sym)
            run = 0
    if run:
        raise IncompletePrefix(
            f"trailing run of {run} III not closed by I or II", trailing=run
        )
    return PartialQuotients(tuple(ks), tuple(rules))


def omega_lengths(t: Triple) -> tuple[Fraction, Fraction, Fraction]:
    """The three pairwise sums (a+b, b+c, a+c).

    Across one ar_step these follow the fully subtractive algorithm: the
    smallest of the three is subtracted from the other two.
    """
    require_admissible(t)
    a, b, c = t
    return (a + b, b + c, a + c)


def parse_prefix(text: str) -> Prefix:
    """Parse "1121" (digit form) or "I,II,I" (name form) into symbols."""
    text = text.strip()
    if not text:
        return ()
    if set(text) <= set("123"):
        return tuple(Sym(int(ch)) for ch in text)
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        return tuple(Sym[p.upper()] for p in parts)
    except KeyError as e:
        raise ValueError(f"unrecognized directing symbol {e.args[0]!r} in {text!r}") from None


def format_prefix(prefix: Iterable[Sym]) -> str:
    return "".join(str(int(s)) for s in prefix)


def parse_triple(text: str) -> Triple:
    """Parse "7/1,4/1,2/1" (or bare integers "7,4,2")."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated rationals, got {text!r}")
    try:
        return triple(*(Fraction(p) for p in parts))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
