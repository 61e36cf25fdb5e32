"""Substitution engine on three- and nine-letter alphabets.

Stage words are generated by iterated substitution along a directing prefix:
stage k maps each letter i to the concatenation of the stage-(k-1) words of
the letters of sigma_{r_k}(i).  Lengths grow exponentially (Tribonacci
heights roughly double every step and a half), so every materializing
operation takes a mandatory letter cap; per-letter lengths are always
available cheaply through the incidence-matrix recurrence.

Words are plain strings over "abc" (three letters) or "123456789" (nine
letters).  The six-letter alphabet {a-, a+, b-, b+, c-, c+} is encoded as
integers 0..5 and produced only by projection from nine letters: the
six-letter system has no substitutive presentation of its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Literal, Sequence

from .errors import WordOverflow
from .gasket import PartialQuotients, Sym

A3 = "abc"
A9 = "123456789"

AlphabetTag = Literal["A3", "A9"]

# letter-to-letter projections
_PHI6 = {
    "1": 0, "2": 0,          # a-
    "3": 1, "4": 1,          # a+
    "5": 2,                  # b-
    "6": 3, "7": 3,          # b+
    "8": 4,                  # c-
    "9": 5,                  # c+
}

# nine-letter class structure: 1-4 behave like a, 5-7 like b, 8-9 like c;
# forgetting the sign of the six-letter projection gives it
A9_CLASS = {ch: A3[arc // 2] for ch, arc in _PHI6.items()}
_PHI3 = str.maketrans(A9_CLASS)

# the pieces of each three-letter class, in nine-letter order
A3_MEMBERS = {x: "".join(ch for ch in A9 if A9_CLASS[ch] == x) for x in A3}


@dataclass(frozen=True)
class Substitution:
    """Total letter-to-word map over one alphabet, extended to a morphism."""

    alphabet: AlphabetTag
    table: dict[str, str]

    def __post_init__(self):
        letters = A3 if self.alphabet == "A3" else A9
        if set(self.table) != set(letters):
            raise ValueError(f"substitution table keys {sorted(self.table)} "
                             f"are not the letters of {self.alphabet}")
        for letter, w in self.table.items():
            if not w or set(w) - set(letters):
                raise ValueError(f"image {w!r} of {letter!r} is not a nonempty "
                                 f"word over {self.alphabet}")

    def __call__(self, word: str) -> str:
        return "".join(self.table[ch] for ch in word)


_SIGMA3 = {
    Sym.I: Substitution("A3", {"a": "ab", "b": "ac", "c": "a"}),
    Sym.II: Substitution("A3", {"a": "ab", "b": "a", "c": "ac"}),
    Sym.III: Substitution("A3", {"a": "a", "b": "ab", "c": "ac"}),
}

_SIGMA9 = {
    Sym.I: Substitution("A9", {
        "1": "35", "2": "45", "3": "46", "4": "17",
        "5": "18", "6": "19", "7": "29",
        "8": "2", "9": "3",
    }),
    Sym.II: Substitution("A9", {
        "1": "17", "2": "46", "3": "45", "4": "35",
        "5": "3", "6": "2", "7": "1",
        "8": "19", "9": "18",
    }),
    Sym.III: Substitution("A9", {
        "1": "1", "2": "2", "3": "3", "4": "4",
        "5": "45", "6": "46", "7": "17",
        "8": "18", "9": "19",
    }),
}


def sigma3(s: Sym) -> Substitution:
    return _SIGMA3[s]


def sigma9(s: Sym) -> Substitution:
    return _SIGMA9[s]


def _tables(alphabet: AlphabetTag) -> tuple[str, dict[Sym, Substitution]]:
    if alphabet == "A3":
        return A3, _SIGMA3
    if alphabet == "A9":
        return A9, _SIGMA9
    raise ValueError(f"unknown alphabet tag {alphabet!r}")


def _next_heights(h: tuple[int, int, int], sym: Sym) -> tuple[int, int, int]:
    """The class heights one stage on, after the rule sym."""
    a, b, c = h
    if sym is Sym.I:
        return a + b, a + c, a
    if sym is Sym.II:
        return a + b, a, a + c
    return a, a + b, a + c


def heights_by_matrix(prefix: Sequence[Sym]) -> list[tuple[int, int, int]]:
    """Per-class word lengths (h_a, h_b, h_c) at stages 0..len(prefix).

    The nine-letter classes follow the same recurrence as the three letters
    (1-4 share h_a, 5-7 share h_b, 8-9 share h_c), so one triple per stage
    covers both alphabets.
    """
    return list(accumulate(prefix, _next_heights, initial=(1, 1, 1)))


def letter_height(letter: str, hv: tuple[int, int, int]) -> int:
    """Length of the stage word for one letter, from a class height triple."""
    cls = A9_CLASS.get(letter, letter)
    if len(cls) != 1 or cls not in A3:
        raise ValueError(f"letter {letter!r} is not a three- or nine-letter symbol")
    return hv[A3.index(cls)]


def _require_cap(kind: str, k: int, length: int, cap: int) -> None:
    if length > cap:
        raise WordOverflow(
            f"{kind} {k} word length {length} exceeds cap {cap}",
            stage=k,
            length=length,
            cap=cap,
        )


def stage_words(
    prefix: Sequence[Sym], alphabet: AlphabetTag, max_total_letters: int
) -> dict[str, str]:
    """Materialize the stage-K words for every letter of the alphabet.

    Raises WordOverflow before building any word longer than
    max_total_letters; the stage that would overflow is reported so callers
    can fall back to heights_by_matrix.
    """
    letters, sigmas = _tables(alphabet)
    words = {ch: ch for ch in letters}
    for k, hv in enumerate(heights_by_matrix(prefix)):
        _require_cap("stage", k, max(hv), max_total_letters)
        if k:
            table = sigmas[prefix[k - 1]].table
            words = {i: "".join(words[j] for j in table[i]) for i in letters}
    return words


# multiplicative rules: new word for each letter as (source letter, exponent)
# factors, with k the partial quotient of the block being closed
def _mult_factors_a3(rule: Sym, k: int) -> dict[str, list[tuple[str, int]]]:
    if rule is Sym.I:
        return {"a": [("a", k), ("b", 1)], "b": [("a", k), ("c", 1)], "c": [("a", 1)]}
    return {"a": [("a", k), ("b", 1)], "b": [("a", 1)], "c": [("a", k), ("c", 1)]}


def _mult_factors_a9(rule: Sym, k: int) -> dict[str, list[tuple[str, int]]]:
    if rule is Sym.I:
        return {
            "1": [("3", 1), ("4", k - 1), ("5", 1)],
            "2": [("4", k), ("5", 1)],
            "3": [("4", k), ("6", 1)],
            "4": [("1", k), ("7", 1)],
            "5": [("1", k), ("8", 1)],
            "6": [("1", k), ("9", 1)],
            "7": [("2", 1), ("1", k - 1), ("9", 1)],
            "8": [("2", 1)],
            "9": [("3", 1)],
        }
    return {
        "1": [("1", k), ("7", 1)],
        "2": [("4", k), ("6", 1)],
        "3": [("4", k), ("5", 1)],
        "4": [("3", 1), ("4", k - 1), ("5", 1)],
        "5": [("3", 1)],
        "6": [("2", 1)],
        "7": [("1", 1)],
        "8": [("1", k), ("9", 1)],
        "9": [("1", k), ("8", 1)],
    }


def multiplicative_heights(pq: PartialQuotients) -> list[tuple[int, int, int]]:
    """Class height triples at multiplicative times m_0..m_N, matrix-only."""
    h = (1, 1, 1)
    out = [h]
    for k, rule in zip(pq.ks, pq.rules):
        a, b, c = h
        if rule is Sym.I:
            h = (k * a + b, k * a + c, a)
        else:
            h = (k * a + b, a, k * a + c)
        out.append(h)
    return out


def multiplicative_stage_words(
    pq: PartialQuotients, alphabet: AlphabetTag, n: int, cap: int
) -> dict[str, str]:
    """Words at multiplicative time m_n, built blockwise by the k-step rules.

    Equals stage_words(expansion up to m_n) letter for letter; n = 0 gives
    the single-letter stage-0 words.
    """
    if not 0 <= n <= len(pq):
        raise ValueError(f"n = {n} out of range for {len(pq)} blocks")
    letters, _ = _tables(alphabet)
    for j, hv in enumerate(multiplicative_heights(pq)[: n + 1]):
        _require_cap("block", j, max(hv), cap)
    factors_of = _mult_factors_a3 if alphabet == "A3" else _mult_factors_a9
    words = {ch: ch for ch in letters}
    for k, rule in zip(pq.ks[:n], pq.rules[:n]):
        rules = factors_of(rule, k)
        words = {
            i: "".join(words[src] * e for src, e in rules[i]) for i in letters
        }
    return words


def project(word: str, target: Literal["A3", "A6"]) -> str | tuple[int, ...]:
    """Letterwise projection of a nine-letter word.

    Three-letter target: classes 1-4 -> a, 5-7 -> b, 8-9 -> c (a string).
    Six-letter target: sign-refined classes as integers 0..5 in the order
    a-, a+, b-, b+, c-, c+ (a tuple).  Composing the six-letter projection
    with the sign-forgetting map gives the three-letter one.
    """
    if target == "A3":
        return word.translate(_PHI3)
    if target == "A6":
        return tuple(_PHI6[ch] for ch in word)
    raise ValueError(f"unknown projection target {target!r}")


# windows per block in the first pass of _factors
_FACTOR_STRIDE = 64
# shortest factor length that _factors is asked for
_FACTOR_MIN_LENGTH = 32


@lru_cache(maxsize=2)
def _factors(words: tuple[str, ...], m: int) -> frozenset[str]:
    """The distinct length-m factors of words.

    Every window starting in [j, j + stride) lies in the block
    w[j : j + stride - 1 + m].  The distinct blocks at stride 64 are cut
    into blocks at half the stride, deduplicated again, and so on down to
    stride 1, where the blocks are the factors.
    """
    stride = _FACTOR_STRIDE
    blocks = {
        w[j : j + stride - 1 + m]
        for w in words
        for j in range(0, len(w) - m + 1, stride)
    }
    while stride > 1:
        stride //= 2
        # a block of width at most 2 * stride - 1 + m splits at 0 and stride
        width = stride - 1 + m
        blocks = {b[:width] for b in blocks} | {
            b[stride:] for b in blocks if len(b) >= stride + m
        }
    return frozenset(blocks)


def factor_complexity(words: Iterable[str], n: int) -> int:
    """Number of distinct length-n factors across the supplied words.

    The caller is responsible for supplying words deep enough that all
    factors of the limiting language appear; compare two consecutive stages
    and accept the count only when it has stabilized.

    The length-m factors F_m, for m the least power of two >= max(n, 32),
    come from _factors: distinct blocks at stride 64, halved and
    deduplicated down to stride 1.  Stage words repeat long blocks (their
    complexity is linear), so most blocks are read once however long the
    words grow.  The length-n factors are then the length-n prefixes of F_m
    together with the windows that start in the last m - 1 letters of each
    word.  This is exact: a window w[i : i + n] with i + m <= len(w) is a
    prefix of w[i : i + m], which is in F_m, and every other window starts
    after len(w) - m.

    F_m is cached for the last two (word set, m) pairs, so a sweep over n
    reads each word set once, and two stages queried alternately for each
    n (the stability check above) share it too.  The cache keys on the
    words' content and holds references to at most two word sets.
    """
    if n < 0:
        raise ValueError(f"factor length must be nonnegative, got {n}")
    if n == 0:
        return 1
    words = tuple(words)
    m = max(_FACTOR_MIN_LENGTH, 1 << (n - 1).bit_length())
    seen = {f[:n] for f in _factors(words, m)}
    for w in words:
        seen.update(w[i : i + n] for i in range(max(0, len(w) - m + 1), len(w) - n + 1))
    return len(seen)
