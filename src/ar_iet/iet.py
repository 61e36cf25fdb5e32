"""Exact geometric models: nine-piece line exchanges and six-arc circle exchanges.

The nine-letter map T lives on three disjoint intervals Omega, Omega',
Omega'' of lengths a+b, b+c, a+c.  Each carries a fixed split into domain
pieces I_i and image pieces TI_i; T translates I_i onto TI_i.  The three
intervals can sit on the line in any of six arrangements (three cyclic
orders, each with a mirrored variant); the arrangement is recoverable from
the block positions, so builders only need the triple and the placements.

Gluing the three intervals end to end in first order turns T into an
exchange of six arcs on a circle of length 2(a+b+c), labeled
a-, a+, b-, b+, c-, c+ (encoded 0..5).  The same circle exchange also has a
direct construction; the two agree up to a rotation of the origin.

All coordinates are exact rationals.  Intervals are half-open [left, right):
closed on the left, open on the right, so interval endpoints are legal orbit
points and the maps are total on their domains.

Every piece end and offset lies on one lattice (1/D)Z, and so does every
coordinate of the induced maps, since an Arnoux-Rauzy step only subtracts:
a map and all the stages induced from it share its lattice.  Both maps are
therefore stored as integers times D (`Lattice`), and their triples and
Fraction tables are views of them, built on first read.  Pushing an
interval is a bisection over integer left ends, and one integer routine
lays out the pieces of the built and the induced maps alike, in one pass
over the blocks, checking the triple on its integers and building Fractions
only for the errors it raises.  A rational point x is read as its cell
floor(xD) on the map's own lattice, which lies in the piece that holds x,
and is moved by one integer lookup: its piece found by one bisection, and
its image built, reduced by one gcd, by `_fraction`, the one constructor of
every point and interval a lattice hands out.  The glued layout's support
is one interval [0, end), so `glue_point` checks a point with one integer
bound.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import Literal, NamedTuple, Sequence

from .errors import OutOfDomain
from .gasket import Triple, omega_lengths, require_admissible
from .words import A9, project


class Interval(NamedTuple):
    """Half-open [left, right)."""

    left: Fraction
    right: Fraction

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def contains(self, x: Fraction) -> bool:
        return self.left <= x < self.right

    def translate(self, d: Fraction) -> "Interval":
        return Interval(self.left + d, self.right + d)

    def __str__(self) -> str:
        return f"[{self.left},{self.right})"


@dataclass(frozen=True)
class OrderTag:
    """Arrangement of the three intervals on the line.

    base names which interval leads in the cyclic order (first: Omega,
    Omega', Omega''; second: Omega', Omega'', Omega; third: Omega'', Omega,
    Omega'); reversed mirrors the whole picture, reversing both the block
    order and the piece order inside each block.
    """

    base: Literal["first", "second", "third"]
    reversed: bool = False

    def __str__(self) -> str:
        return f"reversed-{self.base}" if self.reversed else self.base


_BASE_SEQ = {"first": (0, 1, 2), "second": (1, 2, 0), "third": (2, 0, 1)}

ORDER_TAGS = tuple(
    OrderTag(base, rev) for rev in (False, True) for base in ("first", "second", "third")
)

FIRST_ORDER = OrderTag("first", False)


def screen_roles(order: OrderTag) -> tuple[int, int, int]:
    """Left-to-right role indices (0=Omega, 1=Omega', 2=Omega'')."""
    seq = _BASE_SEQ[order.base]
    return tuple(reversed(seq)) if order.reversed else seq


_ORDER_OF_ROLES = {screen_roles(tag): tag for tag in ORDER_TAGS}


def parse_order(text: str) -> OrderTag:
    t = text.strip().lower().replace("_", "-")
    rev = t.startswith("reversed-")
    base = t.removeprefix("reversed-")
    if base not in _BASE_SEQ:
        raise ValueError(f"unknown order {text!r}")
    return OrderTag(base, rev)


# per-role piece layouts, left to right in non-reversed orientation:
# (letter, length) with lengths in the units of the given (a, b, c)
def _piece_layout(t: Triple):
    a, b, c = t
    domain = (
        (("7", b - c), ("8", c), ("9", c), ("1", a - c)),
        (("2", c), ("3", b)),
        (("4", a - b), ("5", b), ("6", c)),
    )
    image = (
        (("1", a - c), ("2", c), ("6", c), ("7", b - c)),
        (("5", b), ("9", c)),
        (("8", c), ("3", b), ("4", a - b)),
    )
    return domain, image


def _merge(pairs) -> tuple[tuple[int, int], ...]:
    """Sort intervals, drop empty ones and join touching ones; the ends are
    integers on a lattice, or the Fractions of its views."""
    merged: list[tuple[int, int]] = []
    end = None  # of the open piece [start, end), appended when the next one opens
    for left, right in sorted(pairs):
        if right <= left:
            continue
        if left == end:
            end = right
        else:
            if end is not None:
                merged.append((start, end))
            start, end = left, right
    if end is not None:
        merged.append((start, end))
    return tuple(merged)


def _fraction(n: int, d: int) -> Fraction:
    """n / d, for integers n and d > 0, reduced by one gcd.

    `Fraction(n, d)` checks its arguments' types and signs in Python before
    it reduces them, and that costs about as much again as the gcd on a
    path that builds one Fraction per point step.  Here the reduced pair is
    written straight into the two slots, `_numerator` and `_denominator`,
    that `fractions.Fraction` keeps in CPython 3.10 to 3.13; this is the one
    function that relies on that private layout.
    """
    g = math.gcd(n, d)
    f = object.__new__(Fraction)
    f._numerator = n // g
    f._denominator = d // g
    return f


def _outside(x: Fraction) -> OutOfDomain:
    """The error for the rational x, which lies in a gap or outside the domain."""
    return OutOfDomain(f"{x} lies in a gap or outside the domain", point=str(x))


@dataclass(frozen=True)
class Lattice:
    """A piecewise translation scaled by D: its pieces' integer ends, labels
    and offsets, sorted by left end.  The labels are the letters 1..9 of a
    nine-piece map or the arc labels 0..5 of a circle exchange."""

    D: int
    lefts: tuple[int, ...]
    rights: tuple[int, ...]
    letters: tuple[str | int, ...]
    offsets: tuple[int, ...]

    @classmethod
    def sorted_from(cls, D: int, rows) -> "Lattice":
        """The lattice of (left, right, label, offset) rows, sorted by left end."""
        lefts, rights, labels, offsets = zip(*sorted(rows))
        return cls(D, lefts, rights, labels, offsets)

    def refined(self, denominator: int) -> "Lattice":
        """The same map on the coarsest refinement of this lattice that holds
        the rationals of the given denominator."""
        s = denominator // math.gcd(self.D, denominator)
        if s == 1:
            return self
        return Lattice(self.D * s, tuple(v * s for v in self.lefts),
                       tuple(v * s for v in self.rights), self.letters,
                       tuple(v * s for v in self.offsets))

    def rows(self):
        """(left, right, label, offset) per piece, by left end."""
        return zip(self.lefts, self.rights, self.letters, self.offsets)

    def by_label(self) -> dict[str | int, tuple[int, int, int]]:
        """label -> (left, right, offset)"""
        return dict(zip(self.letters, zip(self.lefts, self.rights, self.offsets)))

    def coordinate(self, x: Fraction) -> int:
        """x times D; x must lie on the lattice."""
        q, r = divmod(self.D, x.denominator)
        if r:
            raise RuntimeError(f"{x} is not on the lattice (1/{self.D})Z")
        return x.numerator * q

    def union(self, letters: str) -> tuple[tuple[int, int], ...]:
        """The merged union of the named pieces."""
        return _merge((left, right) for left, right, ch
                      in zip(self.lefts, self.rights, self.letters) if ch in letters)

    def interval(self, left: int, right: int) -> Interval:
        return Interval(_fraction(left, self.D), _fraction(right, self.D))

    def find(self, k: int) -> int | None:
        """The index of the piece that holds k; None when k lies in a gap or
        outside the domain."""
        i = bisect_right(self.lefts, k) - 1
        return i if i >= 0 and k < self.rights[i] else None

    def cell(self, x: Fraction) -> int:
        """floor(xD), the cell of the rational x, which is how a point is read:
        the piece ends are integers, so it lies in the piece that holds xD."""
        p, q = x.as_integer_ratio()
        return p * self.D // q

    def step(self, x: Fraction, period: int | None = None) -> tuple[Fraction, str | int] | None:
        """x moved by the offset of the piece that holds it, reduced mod
        period / D on a circle of integer period, and the piece's label;
        None when x lies in a gap or outside the domain.  x is read as its
        cell and its piece found, inline, as p D is reused for its image."""
        p, q = x.as_integer_ratio()
        n = p * self.D
        k = n // q
        if period is not None:
            k %= period
        i = bisect_right(self.lefts, k) - 1
        if i < 0 or k >= self.rights[i]:
            return None
        n += self.offsets[i] * q
        return _fraction(n if period is None else n % (period * q), q * self.D), self.letters[i]

    def push(self, left: int, right: int) -> tuple[str, int]:
        """Letter and offset of the piece that holds [left, right).

        Raises OutOfDomain when left lies in a gap or outside the domain and
        RuntimeError when the interval straddles the end of its piece.
        """
        i = self.find(left)
        if i is None:
            raise _outside(Fraction(left, self.D))
        if right > self.rights[i]:
            raise RuntimeError(
                f"interval {self.interval(left, right)} straddles the boundary "
                f"of piece {self.letters[i]}"
            )
        return self.letters[i], self.offsets[i]

    def walk(self, left: int, right: int, n: int) -> tuple[list[str | int], list[int]]:
        """The letters and left ends of the first n images of [left, right).

        Image j lies in one piece, whose label is its letter and whose offset
        carries it to image j + 1.  An image that push refuses raises what
        push raises there, with the image's index j as the error's `level`.
        """
        starts, ends, labels, offsets = self.lefts, self.rights, self.letters, self.offsets
        letters: list[str | int] = []
        lefts: list[int] = []
        for j in range(n):
            i = bisect_right(starts, left) - 1
            if i < 0 or not left < ends[i] >= right:
                try:
                    self.push(left, right)
                except (OutOfDomain, RuntimeError) as e:
                    e.level = j
                    raise
            letters.append(labels[i])
            lefts.append(left)
            offset = offsets[i]
            left += offset
            right += offset
        return letters, lefts


# the domain letters of each role block: Omega, Omega', Omega''
_ROLE_LETTERS = ("1789", "23", "456")


@dataclass(frozen=True)
class Ar9Map:
    """Nine-piece translation map on three disjoint intervals.

    The map is its arrangement and its integer lattice: the nine domain
    pieces, scaled by D, with their letters and offsets.  The triple and the
    Fraction tables below are views of it, built on first read and keyed in
    A9 order; no inner loop reads them.
    """

    order: OrderTag
    lattice: Lattice

    @cached_property
    def triple(self) -> Triple:
        """(a, b, c), read off the pieces: |I_4| + |I_5|, |I_5|, |I_2|"""
        D = self.lattice.D
        length = {ch: right - left for ch, (left, right, _) in self.lattice.by_label().items()}
        return Triple(Fraction(length["4"] + length["5"], D), Fraction(length["5"], D),
                      Fraction(length["2"], D))

    @cached_property
    def domain(self) -> dict[str, Interval]:
        """letter -> I_i"""
        pieces = self.lattice.by_label()
        return {ch: self.lattice.interval(*pieces[ch][:2]) for ch in A9}

    @cached_property
    def offsets(self) -> dict[str, Fraction]:
        """letter -> translation I_i -> TI_i"""
        pieces = self.lattice.by_label()
        return {ch: Fraction(pieces[ch][2], self.lattice.D) for ch in A9}

    @cached_property
    def image(self) -> dict[str, Interval]:
        """letter -> TI_i"""
        return {ch: piece.translate(self.offsets[ch]) for ch, piece in self.domain.items()}

    @cached_property
    def role_blocks(self) -> tuple[Interval, Interval, Interval]:
        """Omega, Omega', Omega'' on the line."""
        lat = self.lattice
        return tuple(lat.interval(*lat.union(letters)[0]) for letters in _ROLE_LETTERS)

    @cached_property
    def support(self) -> tuple[tuple[int, int], ...]:
        """The merged union of the pieces, as integers on the lattice: the
        blocks, joined where they touch."""
        return self.lattice.union(A9)

    @cached_property
    def _glued_end(self) -> int | None:
        """The right end of the support [0, end) on the lattice when the
        blocks sit in first order, origin 0, with no gaps: the layout the
        gluing leaves in place; None in any other layout."""
        support = self.support
        if self.order == FIRST_ORDER and len(support) == 1 and support[0][0] == 0:
            return support[0][1]
        return None


def _scaled(D: int, values: Sequence[Fraction]) -> list[int]:
    """The values times D, each on (1/D)Z."""
    return [v.numerator * (D // v.denominator) for v in values]


def _lay_out(D: int, abc: Triple, starts: Sequence[int], reversed_: bool) -> Ar9Map:
    """Lay a map out on (1/D)Z from abc, its triple times D as a Triple of
    integers, and starts, the block left ends times D by role; the triple
    must be admissible, which is checked on abc.  The builders and
    induction, which lays every stage on its chain's stage-0 lattice, share
    it.

    One pass over the blocks, left to right, lays out the domain and the
    image pieces of each; the role order is read off three comparisons.
    Fractions are built only for the error raised."""
    a, b, c = abc
    if not a > b > c > 0:  # is_admissible, on the integers
        require_admissible(Triple(*(Fraction(v, D) for v in abc)))  # raises, in Fractions
    ends = (starts[0] + a + b, starts[1] + b + c, starts[2] + a + c)  # as omega_lengths
    # the role order by comparisons; the blocks are nonempty, so they are
    # apart exactly when each, left to right, ends where or before the next starts
    s0, s1, s2 = starts
    if s0 < s1:
        roles = (0, 1, 2) if s1 < s2 else (0, 2, 1) if s0 < s2 else (2, 0, 1)
    else:
        roles = (1, 0, 2) if s0 < s2 else (1, 2, 0) if s1 < s2 else (2, 1, 0)
    first, middle, last = roles
    if ends[first] > starts[middle] or ends[middle] > starts[last]:
        for r, s in ((0, 1), (0, 2), (1, 2)):
            if starts[r] < ends[s] and starts[s] < ends[r]:
                block_r, block_s = (Interval(Fraction(starts[i], D), Fraction(ends[i], D))
                                    for i in (r, s))
                raise ValueError(f"role blocks {r} and {s} overlap: {block_r} {block_s}")
    order = _ORDER_OF_ROLES[roles]
    if order.reversed != reversed_:
        raise ValueError(
            f"block arrangement {roles} implies reversed={order.reversed}, got {reversed_}"
        )
    dom_layout, img_layout = _piece_layout(abc)
    # the blocks, laid left to right, are apart and tiled by nonempty pieces,
    # so the domain pieces come in the order of their left ends
    letters, lefts, rights = [], [], []  # of the domain pieces
    lengths, image, image_lengths = {}, {}, {}  # image: letter -> left end of TI_i
    for role in roles:
        dom, img = dom_layout[role], img_layout[role]
        if reversed_:
            dom, img = dom[::-1], img[::-1]
        x = y = starts[role]
        for ch, length in dom:
            letters.append(ch)
            lefts.append(x)
            lengths[ch] = length
            x += length
            rights.append(x)
        for ch, length in img:
            image[ch] = y
            image_lengths[ch] = length
            y += length
        for end in (x, y):
            if end != ends[role]:
                raise RuntimeError(f"pieces of block {role} end at {Fraction(end, D)}, "
                                   f"not at {Fraction(ends[role], D)}")
    if image_lengths != lengths:
        ch = next(ch for ch in A9 if image_lengths[ch] != lengths[ch])
        raise RuntimeError(f"piece {ch} and its image differ in length")
    return Ar9Map(order, Lattice(D, tuple(lefts), tuple(rights), tuple(letters),
                                    tuple(map(sub, map(image.__getitem__, letters), lefts))))


def ar9_from_placements(
    t: Triple, placements: Sequence[Fraction], reversed_: bool
) -> Ar9Map:
    """Assemble the map from the triple and the three block left ends.

    The block arrangement determines the order tag: the role permutation
    read off the line is cyclic exactly when the layout is non-reversed, so
    only the mirror flag needs to be supplied.
    """
    placements = tuple(Fraction(p) for p in placements)
    # lay the pieces out on the lattice that holds the triple and the
    # placements; every piece end and offset lies on it
    D = math.lcm(*(v.denominator for v in (*t, *placements)))
    return _lay_out(D, Triple(*_scaled(D, t)), _scaled(D, placements), reversed_)


def build_ar9(
    t: Triple,
    order: OrderTag = FIRST_ORDER,
    gaps: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0)),
    origin: Fraction = Fraction(0),
) -> Ar9Map:
    """Lay the three blocks on the line in the given arrangement.

    gaps are inserted between consecutive blocks (left gap, right gap);
    adjacency (zero gaps) is allowed and is the default.
    """
    require_admissible(t)
    g1, g2 = (Fraction(g) for g in gaps)
    if g1 < 0 or g2 < 0:
        raise ValueError("gaps must be nonnegative")
    lens = omega_lengths(t)
    roles = screen_roles(order)
    placements = [Fraction(0)] * 3
    x = Fraction(origin)
    for role, gap in zip(roles, (g1, g2, 0)):
        placements[role] = x
        x += lens[role] + gap
    return ar9_from_placements(t, placements, order.reversed)


def ar9_apply(m: Ar9Map, x: Fraction) -> tuple[Fraction, str]:
    """One step: translate x by the offset of its piece; returns (Tx, letter)."""
    step = m.lattice.step(x)
    if step is None:
        raise _outside(x)
    return step


def trajectory(
    m: Ar9Map, x: Fraction, n: int, partition: Literal["nine", "three"] = "nine"
) -> str:
    """Length-n coding of the forward orbit of x.

    nine: letters 1..9 by domain piece; three: the same word projected
    letterwise onto a, b, c.  The orbit is coded by first-return jumps
    through the checked induction stages that `jump_stages` picks for n;
    it picks none, the plain walk under the map, for short orbits.  n = 0
    codes as the empty word; a negative n raises ValueError (jump_stages).
    """
    if partition not in ("nine", "three"):
        raise ValueError(f"unknown partition {partition!r}")
    # imported here because induction imports this module at load time
    from .induction import StageChain, jump_stages, orbit_route

    word = "".join(orbit_route(m, jump_stages(StageChain(m), n), x, n))
    return project(word, "A3") if partition == "three" else word


# six-letter circle exchanges ------------------------------------------------

# constituent nine-letter domain pieces of each circle arc, by A6 label: the
# letters that the six-letter projection sends to the label
ARC_LETTERS = tuple("".join(ch for ch in A9 if project(ch, "A6") == (arc,))
                    for arc in range(6))


@dataclass(frozen=True)
class Ar6Map:
    """Exchange of six labeled arcs on a circle of length 2(a+b+c).

    The map is its integer lattice: the arc pieces scaled by D, cut at 0
    when an arc wraps, with their labels 0..5 and their offsets, which are
    translations mod its period LD.  length is a Fraction view of it.
    """

    triple: Triple
    lattice: Lattice

    @cached_property
    def length(self) -> Fraction:
        a, b, c = self.triple
        return 2 * (a + b + c)

    @cached_property
    def period(self) -> int:
        """The circle's length on the lattice, LD."""
        return self.lattice.coordinate(self.length)


def _circle(t: Triple, D: int, rows) -> Ar6Map:
    """The circle exchange of t with the (left, right, label, offset) rows on
    (1/D)Z: ends reduced mod LD and cut at 0, each arc's pieces merged,
    offsets reduced mod LD.  The pieces of one arc must share its offset."""
    span = 2 * sum(_scaled(D, t))
    pieces: dict[int, list[tuple[int, int]]] = {}
    offsets: dict[int, int] = {}
    for left, right, label, offset in rows:
        left, right = left % span, left % span + right - left
        # _merge drops the empty second piece of an arc that does not wrap
        pieces.setdefault(label, []).extend(((left, min(right, span)), (0, right - span)))
        if offsets.setdefault(label, offset % span) != offset % span:
            raise RuntimeError(f"pieces of arc {label} disagree on the circle offset")
    return Ar6Map(t, Lattice.sorted_from(D, (
        (left, right, label, offsets[label])
        for label, arc in pieces.items() for left, right in _merge(arc))))


def ar6_apply(m: Ar6Map, x: Fraction) -> tuple[Fraction, int]:
    """One step on the circle; returns (Tx mod L, arc label 0..5)."""
    step = m.lattice.step(x, m.period)
    if step is None:
        x = x % m.length
        raise OutOfDomain(f"{x} not covered by any arc", point=str(x))
    return step


def build_ar6_canonical(t: Triple) -> Ar6Map:
    """Direct circle exchange: arcs a-, a+, b-, b+, c-, c+ in that order
    from the origin, with lengths a, a, b, b, c, c.

    The two a-arcs swap as a block with the rest (a block exchange by a),
    and everything is then rotated by the half circle a+b+c; the listed
    offsets are the composition.
    """
    require_admissible(t)
    D = math.lcm(*(v.denominator for v in t))
    a, b, c = _scaled(D, t)
    bounds = (0, a, 2 * a, 2 * a + b, 2 * a + 2 * b, 2 * a + 2 * b + c, 2 * (a + b + c))
    offsets = (2 * a + b + c, b + c, a + 2 * b + c, a + c, a + b + 2 * c, a + b)
    return _circle(t, D, (
        (bounds[label], bounds[label + 1], label, offsets[label]) for label in range(6)))


def first_order_adjacent(m: Ar9Map) -> bool:
    """True when the blocks sit in first order, origin 0, with no gaps."""
    return m._glued_end is not None


def glue_point(m: Ar9Map, x: Fraction) -> Fraction:
    """Circle coordinate of a line point under the end-to-end gluing.

    Defined for first-order adjacent maps, where the gluing is the identity;
    kept explicit so conjugacy checks read as two genuine routes.
    """
    end = m._glued_end
    if end is None:
        raise ValueError("gluing requires the first-order adjacent layout")
    # the pieces tile [0, end), so x lies in one exactly when 0 <= xD < end
    p, q = x.as_integer_ratio()
    if not 0 <= p * m.lattice.D < end * q:
        raise _outside(x)
    return x


def glue_to_ar6(m: Ar9Map) -> Ar6Map:
    """Glue the three intervals into a circle exchange of six arcs.

    Non-first-order or gapped maps are first rebuilt in the first-order
    adjacent layout (the arrangement on the line never changes the system),
    where the gluing is the identity.  Each circle arc is the union of the
    domain pieces listed in ARC_LETTERS; the constituent pieces of one arc
    share a single circle translation, which becomes the arc's offset.
    """
    if not first_order_adjacent(m):
        m = build_ar9(m.triple, FIRST_ORDER)
    pieces = m.lattice.by_label()
    return _circle(m.triple, m.lattice.D, (
        (left, right, label, offset) for label, letters in enumerate(ARC_LETTERS)
        for left, right, offset in (pieces[ch] for ch in letters)))


def ar6_rotation_match(m1: Ar6Map, m2: Ar6Map) -> Fraction | None:
    """The rotation rho with m1 = rotate(m2, rho) (same labels, same
    offsets, arc tables shifted by rho); None when no such rotation exists.
    """
    if m1.length != m2.length:
        return None
    D = math.lcm(m1.lattice.D, m2.lattice.D)
    lat1, lat2 = m1.lattice.refined(D), m2.lattice.refined(D)
    # the rotated lattice holds m2's offsets, so equal lattices mean equal offsets
    span = lat1.coordinate(m1.length)
    candidates = {(l1 - l2) % span for l1, _, label1, _ in lat1.rows() if label1 == 0
                  for l2, _, label2, _ in lat2.rows() if label2 == 0}
    for rho in sorted(candidates):
        rotated = _circle(m2.triple, D, (
            (left + rho, right + rho, label, offset)
            for left, right, label, offset in lat2.rows()))
        if rotated.lattice == lat1:
            return Fraction(rho, D)
    return None
