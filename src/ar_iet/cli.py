"""Command-line front end: `ar-iet`.

Subcommands wrap the library one-to-one and emit deterministic JSON on
stdout (sorted keys, library values turned into JSON by one encoder,
`_encoded`), optional CSV and SVG files under the configured output
directory.  Exit codes: 0 success, 1 domain error (a structured JSON
object goes to stderr), 2 usage error, 3 internal fault (the same object,
with code internal-fault).

A plain-text config file (`--config`) holds `key=value` lines with `#`
comments; keys mirror RunConfig fields.  With a fixed config and fixed
arguments every byte of output is reproducible; the only intentional
variation is the version comment line inside SVG files.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import random
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import get_type_hints

from . import __version__, svg
from .analysis import (
    DEFAULT_PERSISTENCE,
    DEFAULT_TAIL_EPSILON,
    DEFAULT_XI_SUM_THRESHOLD,
    birkhoff_frequencies,
    eigenvalue_scan,
    tourab_patterns,
    twm_pattern,
    two_measure_experiment,
    xi_sequence,
)
from .errors import DomainError, WordOverflow
from .gasket import (
    DEFAULT_MAX_STEPS,
    DEFAULT_SEED,
    PartialQuotients,
    Sym,
    Triple,
    directing_prefix,
    format_prefix,
    omega_lengths,
    parse_prefix,
    parse_triple,
    partial_quotients,
    reconstruct_triple,
)
from .iet import FIRST_ORDER, Ar9Map, OrderTag, _merge, build_ar9, parse_order, trajectory
from .induction import StageChain, induce_step, iterate_induction, jump_stages, orbit_routes
from .towers import (
    adjacency_check,
    level_component_counts,
    partition_check,
    tower_families,
)
from .words import (
    A3_MEMBERS,
    A9,
    heights_by_matrix,
    letter_height,
    multiplicative_stage_words,
    sigma9,
    stage_words,
)


class ConfigError(Exception):
    """Malformed or invalid configuration; reported as a usage error."""


@dataclass(frozen=True)
class RunConfig:
    """Tunable defaults shared by all subcommands."""

    seed_triple: Triple = DEFAULT_SEED
    max_steps: int = DEFAULT_MAX_STEPS
    word_cap: int = 200_000
    refinement_depth: int = 6
    l1_threshold: Fraction = Fraction(1, 10)
    xi_sum_threshold: Fraction = DEFAULT_XI_SUM_THRESHOLD
    tail_epsilon: Fraction = DEFAULT_TAIL_EPSILON
    output_dir: str = "."
    random_seed: int = 0

    def validate(self) -> None:
        for name in ("max_steps", "word_cap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.refinement_depth < 0:
            raise ConfigError("refinement_depth must be nonnegative")


# the parser of a config value, by the type of its RunConfig field
_PARSERS = {Triple: parse_triple, int: int, Fraction: Fraction, str: str}


def _commented_lines(path: str, name: str) -> list[tuple[int, str]]:
    """The numbered lines of a text file with `#` comments cut, stripped,
    blank ones left out; name is the file as a read error calls it."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read {name}: {e}") from e
    lines = ((n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(text.splitlines(), 1))
    return [(n, line) for n, line in lines if line]


def load_config(path: str | None) -> RunConfig:
    config = RunConfig()
    if path is None:
        config.validate()
        return config
    types = get_type_hints(RunConfig)
    overrides = {}
    for lineno, line in _commented_lines(path, f"config {path}"):
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            overrides[key] = _PARSERS[types[key]](value)
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}") from e
    config = replace(config, **overrides)
    config.validate()
    return config


# --- serialization helpers ---------------------------------------------------

def _encoded(value):
    """A library value as JSON data; the one place the payload format is
    decided.  Fractions and order tags become their strings ("11/3",
    "reversed-second"), a Sym its digit ("1"), tuples (Interval and Triple
    among them) lists, dict keys strings, and other dataclasses dicts of
    their fields; str, int, bool and None stay as they are."""
    if isinstance(value, (Fraction, OrderTag)):
        return str(value)
    if isinstance(value, Sym):
        return str(int(value))
    if isinstance(value, (tuple, list)):
        return [_encoded(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encoded(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: _encoded(getattr(value, f.name)) for f in fields(value)}
    return value


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _every_digit():
    """Lift the interpreter's limit on the digits of an int turned into a
    string (CPython 3.10.7 on), so that exact values print; restored after."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _emit_json(payload: dict, args, config: RunConfig) -> None:
    """Print the payload after its --emit copy: a failed write prints nothing."""
    text = _json_text(_encoded(payload))
    name = getattr(args, "emit", None)
    if name:
        _write_file(name, text, config)
    sys.stdout.write(text)


def _write_file(name: str, text: str, config: RunConfig) -> Path:
    path = Path(config.output_dir) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e
    return path


def _write_frequency_csv(name: str | None, counts: dict[str, int], length: int,
                         config: RunConfig) -> None:
    """The letter counts of an orbit of the given length and their exact and
    decimal frequencies, as CSV, when a file name is given."""
    if not name:
        return
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["letter", "count", "frequency", "decimal"])
    for letter in sorted(counts):
        freq = Fraction(counts[letter], length)
        writer.writerow([letter, counts[letter], freq, f"{float(freq):.12g}"])
    _write_file(name, buffer.getvalue(), config)


# --- shared argument plumbing -------------------------------------------------

def _refuse_both(args, flag: str, other: str, what: str) -> None:
    """Two flags that each give the same input are a usage error naming both."""
    if getattr(args, flag, None) is not None and getattr(args, other, None) is not None:
        raise ConfigError(f"--{flag} and --{other} both give the {what}; give one of them")


def _resolve_triple(args, config: RunConfig) -> Triple:
    """The system of --triple, or of --prefix reconstructed from the seed;
    exactly one of the two is required."""
    _refuse_both(args, "triple", "prefix", "system")
    if getattr(args, "triple", None) is not None:
        return args.triple
    if getattr(args, "prefix", None) is not None:
        return reconstruct_triple(args.prefix, seed=config.seed_triple)
    raise ConfigError("one of --triple or --prefix is required")


def _resolve_pq(args) -> PartialQuotients:
    """The partial quotients of --ks and --rules, or of --prefix; a prefix
    given with either of the others is a usage error."""
    _refuse_both(args, "prefix", "ks", "partial quotients")
    _refuse_both(args, "prefix", "rules", "partial quotients")
    if getattr(args, "ks", None) is not None:
        if getattr(args, "rules", None) is None:
            raise ConfigError("--ks requires --rules")
        if len(args.ks) != len(args.rules):
            raise ConfigError("--ks and --rules must have equal length")
        return PartialQuotients(ks=args.ks, rules=args.rules)
    if getattr(args, "prefix", None) is not None:
        return partial_quotients(args.prefix)
    raise ConfigError("one of --prefix or --ks/--rules is required")


def _start_point(args, m: Ar9Map, config: RunConfig) -> Fraction:
    """--point, or a point of a random piece drawn from random_seed."""
    if args.point is not None:
        return args.point
    rng = random.Random(config.random_seed)
    piece = m.domain[rng.choice(A9)]
    return piece.left + piece.length * Fraction(rng.randrange(1, 997), 997)


def _count(value: int | None, default: int, flag: str, least: int = 1) -> int:
    """A count flag's value, or the config default when the flag is absent;
    a value below least is a usage error."""
    if value is None:
        return default
    if value < least:
        raise ConfigError(f"{flag} must be {'positive' if least else 'nonnegative'}")
    return value


def _ks_arg(text: str) -> tuple[int, ...]:
    ks = tuple(int(part) for part in text.split(","))
    if any(k < 1 for k in ks):
        raise ValueError("partial quotients must be positive")
    return ks


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _rules_arg(text: str) -> tuple[Sym, ...]:
    if set(text) - {"1", "2"}:
        raise ValueError("rules must be digits over {1,2}")
    return tuple(Sym(int(ch)) for ch in text)


# --- subcommands ---------------------------------------------------------------

def cmd_gasket(args, config: RunConfig) -> int:
    t = _resolve_triple(args, config)
    steps = _count(args.steps, config.max_steps, "--steps")
    # a printed prefix longer than word_cap is refused, and word_cap + 1
    # steps tell whether the orbit makes one
    prefix, exit_ = directing_prefix(t, max_steps=min(steps, config.word_cap + 1))
    if len(prefix) > config.word_cap:
        raise WordOverflow(f"gasket prefix of {steps} steps exceeds cap {config.word_cap}",
                           steps=steps, cap=config.word_cap)
    payload = {
        "schema": "ar-iet/gasket/1",
        "triple": t,
        "steps": steps,
        "prefix": format_prefix(prefix),
        "exit": exit_,
        "omega_lengths": omega_lengths(t),
    }
    try:
        pq = partial_quotients(prefix)
        payload["partial_quotients"] = {
            "ks": pq.ks,
            "rules": format_prefix(pq.rules),
            "times": pq.times,
        }
    except DomainError:
        payload["partial_quotients"] = None
    _emit_json(payload, args, config)
    return 0


def cmd_words(args, config: RunConfig) -> int:
    alphabet = args.alphabet.upper()
    cap = _count(args.cap, config.word_cap, "--cap")
    if args.multiplicative:
        pq = partial_quotients(args.prefix)
        words = multiplicative_stage_words(pq, alphabet, len(pq), cap)
        stage = pq.times[-1] if pq.ks else 0
    else:
        words = stage_words(args.prefix, alphabet, cap)
        stage = len(args.prefix)
    heights = heights_by_matrix(args.prefix)[-1]
    payload = {
        "schema": "ar-iet/words/1",
        "prefix": format_prefix(args.prefix),
        "alphabet": args.alphabet,
        "stage": stage,
        "multiplicative": bool(args.multiplicative),
        "words": words,
        "heights": dict(zip("abc", heights)),
    }
    _emit_json(payload, args, config)
    return 0


def cmd_orbit(args, config: RunConfig) -> int:
    if args.length < 0:
        raise ConfigError("--length must be nonnegative")
    if args.length > config.word_cap:
        raise WordOverflow(f"orbit length {args.length} exceeds cap {config.word_cap}",
                           length=args.length, cap=config.word_cap)
    t = _resolve_triple(args, config)
    m = build_ar9(t, order=args.order)
    x = _start_point(args, m, config)
    coding = trajectory(m, x, args.length, args.partition)
    counts = {ch: coding.count(ch) for ch in set(coding)}
    payload = {
        "schema": "ar-iet/orbit/1",
        "triple": t,
        "order": args.order,
        "point": x,
        "length": args.length,
        "partition": args.partition,
        "coding": coding,
        "counts": counts,
    }
    _write_frequency_csv(args.csv, counts, args.length, config)
    _emit_json(payload, args, config)
    return 0


def cmd_induct(args, config: RunConfig) -> int:
    t = _resolve_triple(args, config)
    m = build_ar9(t, order=args.order)
    steps = _count(args.steps, config.refinement_depth, "--steps", 0)
    # the printed return words, the sigma9 images of each stage's case, are
    # bounded by word_cap: the triples are stepped first, as integers
    chain, letters = StageChain(m), 0
    while len(chain.cases) < steps and chain.step():
        letters += len("".join(sigma9(chain.cases[-1]).table.values()))
        if letters > config.word_cap:
            raise WordOverflow(f"induct return words of {steps} steps exceed cap "
                               f"{config.word_cap}", steps=steps, cap=config.word_cap)
    # a stage that fails its checks raises, so every printed stage is verified
    items = [
        {
            "index": stage.index,
            "case": stage.case,
            "triple": stage.map.triple,
            "order": stage.map.order,
            "return_times": stage.return_times,
            "return_words": stage.return_words,
            "verified": True,
        }
        for stage in iterate_induction(chain, steps)
    ]
    payload = {
        "schema": "ar-iet/induct/1",
        "triple": t,
        "order": args.order,
        "steps": steps,
        "stages": items,
    }
    _emit_json(payload, args, config)
    return 0


def _towers(chain: StageChain, first: int, depth: int, config: RunConfig):
    """The tower families of stages first..depth of the chain, built one at
    a time, each from the one below, after stages 1..depth are induced and
    the level cap is checked at depth, which bounds every earlier stage, on
    the chain's heights."""
    iterate_induction(chain, depth)
    levels = sum(letter_height(ch, chain.heights[depth]) for ch in A9)
    if levels > config.word_cap:
        raise WordOverflow(
            f"stage {depth} towers have {levels} levels, exceeding cap {config.word_cap}",
            stage=depth,
            levels=levels,
            cap=config.word_cap,
        )
    yield from tower_families(chain, first, depth)


def cmd_towers(args, config: RunConfig) -> int:
    stage = _count(args.stage, config.refinement_depth, "--stage", 0)
    t = _resolve_triple(args, config)
    m = build_ar9(t, order=args.order)
    chain = StageChain(m)
    [family] = _towers(chain, stage, stage, config)
    nine = {
        ch: {"height": tower.height, "word": tower.word, "base": family.base(ch)}
        for ch, tower in family.nine.items()
    }
    # a three-letter tower is the union of its member towers, whose heights
    # tower_families has checked equal
    three = {
        letter: {"height": family.nine[members[0]].height,
                 "base": _merge(map(family.base, members))}
        for letter, members in A3_MEMBERS.items()
    }
    payload = {
        "schema": "ar-iet/towers/1",
        "triple": t,
        "order": args.order,
        "stage": stage,
        "nine": nine,
        "three": three,
        "checks": {
            "partition": partition_check(family).ok,
            "adjacency": adjacency_check(family).ok,
            "component_counts": level_component_counts(family),
        },
    }
    _emit_json(payload, args, config)
    return 0


_CHECK_NAMES = ("partition", "adjacency", "components", "induction", "coding")


def _check_one(prefix, depth: int, order, config: RunConfig, selected: tuple[str, ...]) -> dict:
    t = reconstruct_triple(prefix, seed=config.seed_triple)
    chain = StageChain(build_ar9(t, order=order))
    depth = min(depth, len(prefix))
    # each check that reads every stage holds true until a stage refutes it
    results: dict[str, bool] = {
        n: True for n in ("partition", "adjacency", "components") if n in selected}
    if set(selected) - {"induction"}:  # every other check reads the towers
        # coding reads only the deepest family, laid out from the ones below
        # it; the others read every stage.  One family is built, checked and
        # dropped at a time.
        bounds = {"a": 3, "b": 2, "c": 1}
        for family in _towers(chain, 0 if results else depth, depth, config):
            if results.get("partition"):
                results["partition"] = partition_check(family).ok
            if results.get("adjacency"):
                results["adjacency"] = adjacency_check(family).ok
            if results.get("components"):
                results["components"] = all(
                    count <= bounds[letter]
                    for letter, count in level_component_counts(family).items()
                )
    else:  # induction alone builds no tower
        iterate_induction(chain, depth)
    if tuple(chain.cases[:depth]) != prefix[:depth]:  # every check read this chain
        raise RuntimeError(f"the chain of prefix {format_prefix(prefix[:depth])} steps by "
                           f"{format_prefix(chain.cases[:depth])}")
    if "induction" in selected:
        # every stage is checked as it is induced, and a failed check raises;
        # at depth 0 there is no stage yet, so induce once to have one checked
        if not chain.stages:
            induce_step(chain, 1)
        results["induction"] = True
    if "coding" in selected:
        expected = stage_words(chain.cases[:depth], "A9", config.word_cap)
        towers = family.nine
        # every base lies in B_depth, inside B_k for each k <= depth, so one
        # jump plan, for the tallest tower's orbit (which never pays for a
        # stage past depth), codes the orbit of each base's midpoint as long
        # as its tower
        plan = jump_stages(chain, max(tower.height for tower in towers.values()))
        orbits = ((Fraction(2 * t.lefts[0] + t.width, 2 * chain.m0.lattice.D), t.height)
                  for t in towers.values())
        routes = orbit_routes(chain.m0, plan, orbits)
        results["coding"] = all(tower.word == expected[ch] == "".join(route)
                                for (ch, tower), route in zip(towers.items(), routes))
    return {
        "prefix": format_prefix(prefix),
        "triple": t,
        "depth": depth,
        "checks": results,
        "ok": all(results.values()),
    }


def cmd_check(args, config: RunConfig) -> int:
    selected = tuple(n for n in _CHECK_NAMES if getattr(args, n))
    if args.all or not selected:
        selected = _CHECK_NAMES
    prefixes = list(args.prefix or [])
    if args.prefix_file:
        for lineno, line in _commented_lines(args.prefix_file, args.prefix_file):
            try:
                prefixes.append(parse_prefix(line))
            except ValueError as e:
                raise ConfigError(f"{args.prefix_file}:{lineno}: {e}") from e
    if not prefixes:
        raise ConfigError("no prefixes given (--prefix or --prefix-file)")
    depth = _count(args.depth, config.refinement_depth, "--depth", 0)
    targets = [_check_one(p, depth, args.order, config, selected) for p in prefixes]
    payload = {
        "schema": "ar-iet/check/1",
        "selected": selected,
        "order": args.order,
        "targets": targets,
        "ok": all(item["ok"] for item in targets),
    }
    _emit_json(payload, args, config)
    return 0


# the orbit length of the frequency experiments when --length is absent
_DEFAULT_LENGTH = 10_000

# the experiment kinds that read each of the flags that not all of them read;
# these flags default to None, and one given to any other kind is a usage error
_EXPERIMENT_FLAGS = {
    "ks": ("xi", "twm", "eigen", "two-measure"),
    "rules": ("xi", "twm", "eigen", "two-measure"),
    "triple": ("birkhoff",),
    "order": ("birkhoff",),
    "theta": ("eigen",),
    "floor": ("eigen",),
    "persistence": ("eigen",),
    "depth": ("two-measure",),
    "length": ("two-measure", "birkhoff"),
    "point": ("birkhoff",),
    "csv": ("birkhoff",),
}


def cmd_experiment(args, config: RunConfig) -> int:
    for flag, kinds in _EXPERIMENT_FLAGS.items():
        if getattr(args, flag) is not None and args.kind not in kinds:
            readers = ", ".join(f"--{kind}" for kind in kinds)
            raise ConfigError(f"--{flag} is read only by experiment {readers}, "
                              f"not by --{args.kind}")
    if args.kind in ("two-measure", "birkhoff"):
        length = _count(args.length, _DEFAULT_LENGTH, "--length")
    if args.kind == "eigen":
        persistence = _count(args.persistence, DEFAULT_PERSISTENCE, "--persistence")
        if args.floor is not None and args.floor <= 0:
            raise ConfigError("--floor must be positive")
    if args.kind in ("xi", "twm", "eigen", "two-measure"):
        pq = _resolve_pq(args)
    if args.kind == "xi":
        report = xi_sequence(pq, xi_sum_threshold=config.xi_sum_threshold,
                             tail_epsilon=config.tail_epsilon)
        payload = {
            "schema": "ar-iet/experiment-xi/1",
            "ks": pq.ks,
            "rules": format_prefix(pq.rules),
            **asdict(report),
        }
    elif args.kind == "twm":
        report = twm_pattern(pq, tail_epsilon=config.tail_epsilon)
        patterns = tourab_patterns(pq)
        payload = {
            "schema": "ar-iet/experiment-twm/1",
            **asdict(report),
            "tourab_i": patterns.pattern_i,
            "tourab_ii": patterns.pattern_ii,
            "evidence_scope": "prefix-only",
        }
    elif args.kind == "eigen":
        theta = args.theta if args.theta is not None else Fraction(0)
        scan = eigenvalue_scan(pq, theta, floor=args.floor, persistence=persistence)
        payload = {"schema": "ar-iet/experiment-eigen/1", **asdict(scan)}
    elif args.kind == "two-measure":
        top = pq.times[-1] if pq.ks else 0
        depth = args.depth if args.depth is not None else top
        if not 0 <= depth <= top:
            raise ConfigError(f"--depth must lie in 0..{top}")
        report = two_measure_experiment(pq, depth, length)
        payload = {
            "schema": "ar-iet/experiment-two-measure/1",
            "depth": report.depth,
            "orbit_length": report.orbit_length,
            "swapped": report.swapped,
            "base_points": report.base_points,
            "frequencies": [v.frequencies for v in report.vectors],
            "l1": report.l1,
            "l1_decimal": f"{float(report.l1):.12g}",
            "l1_threshold": config.l1_threshold,
            "exceeds_threshold": report.l1 >= config.l1_threshold,
        }
    else:  # birkhoff
        t = _resolve_triple(args, config)
        order = args.order if args.order is not None else FIRST_ORDER
        m = build_ar9(t, order=order)
        x = _start_point(args, m, config)
        vector = birkhoff_frequencies(m, x, length)
        payload = {
            "schema": "ar-iet/experiment-birkhoff/1",
            "triple": t,
            "order": order,
            "point": x,
            "length": length,
            "counts": vector.counts,
            "frequencies": vector.frequencies,
        }
        _write_frequency_csv(args.csv, vector.counts, length, config)
    _emit_json(payload, args, config)
    return 0


def cmd_render(args, config: RunConfig) -> int:
    stage = _count(args.stage, 1 if args.induction else config.refinement_depth,
                   "--stage", 0)
    m = build_ar9(_resolve_triple(args, config), order=args.order)
    chain = StageChain(m)
    if args.layout:
        text = svg.render_layout(m)
    elif args.induction:
        text = svg.render_induction(m, iterate_induction(chain, stage))
    else:
        text = svg.render_towers(*_towers(chain, stage, stage, config))
    if args.out:
        path = _write_file(args.out, text, config)
        sys.stdout.write(f"{path}\n")
    else:
        sys.stdout.write(text)
    return 0


# --- parser ---------------------------------------------------------------------

def _add_system_args(p: argparse.ArgumentParser, with_order: bool = True) -> None:
    p.add_argument("--triple", type=parse_triple, default=None,
                   help="lengths a,b,c as rationals, e.g. 7/1,4/1,2/1")
    p.add_argument("--prefix", type=parse_prefix, default=None,
                   help="directing prefix, digits over {1,2,3} or names I,II,III")
    if with_order:
        p.add_argument("--order", type=parse_order, default=FIRST_ORDER,
                       help="block order: first|second|third, optionally reversed-")


def _add_pq_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prefix", type=parse_prefix, default=None,
                   help="complete directing prefix to read quotients from")
    p.add_argument("--ks", type=_ks_arg, default=None,
                   help="partial quotients, comma-separated positive integers")
    p.add_argument("--rules", type=_rules_arg, default=None,
                   help="closing rules as digits over {1,2}, one per quotient")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ar-iet` parser, built on the first call and shared after it;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ar-iet",
        description="Exact-arithmetic toolkit for three-letter substitutive "
                    "systems, their nine-interval exchanges, and six-arc "
                    "circle forms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--output-dir", default=None,
                        help="directory for emitted files (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gasket", help="run the subtractive renormalization")
    _add_system_args(p, with_order=False)
    p.add_argument("--steps", type=int, default=None)

    p = sub.add_parser("words", help="materialize stage words")
    p.add_argument("--prefix", type=parse_prefix, required=True)
    p.add_argument("--alphabet", choices=("a3", "a9"), default="a3")
    p.add_argument("--multiplicative", action="store_true",
                   help="use the block-multiplicative rules (needs a complete prefix)")
    p.add_argument("--cap", type=int, default=None, help="total letter cap")

    p = sub.add_parser("orbit", help="code an exact orbit")
    _add_system_args(p)
    p.add_argument("--point", type=_fraction_arg, default=None,
                   help="starting point (rational); sampled from random_seed if absent")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--partition", choices=("nine", "three"), default="nine")
    p.add_argument("--csv", default=None, help="write letter frequencies as CSV")

    p = sub.add_parser("induct", help="iterate verified induction steps")
    _add_system_args(p)
    p.add_argument("--steps", type=int, default=None)

    p = sub.add_parser("towers", help="build stage towers and their checks")
    _add_system_args(p)
    p.add_argument("--stage", type=int, default=None)

    p = sub.add_parser("check", help="aggregated structural checks")
    p.add_argument("--all", action="store_true", help="run every check")
    for name in _CHECK_NAMES:
        p.add_argument(f"--{name}", action="store_true")
    p.add_argument("--prefix", type=parse_prefix, action="append", default=None,
                   help="directing prefix (repeatable)")
    p.add_argument("--prefix-file", default=None,
                   help="file with one directing prefix per line")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--order", type=parse_order, default=FIRST_ORDER)

    p = sub.add_parser("experiment", help="ergodicity and eigenvalue probes")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--xi", dest="kind", action="store_const", const="xi")
    kind.add_argument("--twm", dest="kind", action="store_const", const="twm")
    kind.add_argument("--eigen", dest="kind", action="store_const", const="eigen")
    kind.add_argument("--two-measure", dest="kind", action="store_const",
                      const="two-measure")
    kind.add_argument("--birkhoff", dest="kind", action="store_const",
                      const="birkhoff")
    _add_pq_args(p)
    p.add_argument("--triple", type=parse_triple, default=None,
                   help="birkhoff only: system lengths")
    p.add_argument("--order", type=parse_order, default=None,
                   help="birkhoff only: block order (default first)")
    p.add_argument("--theta", type=_fraction_arg, default=None,
                   help="eigen only: candidate eigenvalue exponent (default 0)")
    p.add_argument("--floor", type=_fraction_arg, default=None,
                   help="eigen only: rejection floor (default 1/(2 denominator))")
    p.add_argument("--persistence", type=int, default=None,
                   help=f"eigen only: hits needed to reject (default {DEFAULT_PERSISTENCE})")
    p.add_argument("--depth", type=int, default=None,
                   help="two-measure only: additive stage of the tower bases")
    p.add_argument("--length", type=int, default=None,
                   help=f"two-measure and birkhoff only: orbit length "
                        f"(default {_DEFAULT_LENGTH})")
    p.add_argument("--point", type=_fraction_arg, default=None, help="birkhoff only")
    p.add_argument("--csv", default=None, help="birkhoff only: write letter frequencies")

    p = sub.add_parser("render", help="emit SVG figures")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--layout", action="store_true")
    what.add_argument("--induction", action="store_true")
    what.add_argument("--towers", action="store_true")
    _add_system_args(p)
    p.add_argument("--stage", type=int, default=None)
    p.add_argument("--out", default=None, help="SVG file name (default: stdout)")

    for name, p in sub.choices.items():
        if name != "render":  # the one subcommand that writes SVG, not JSON
            p.add_argument("--emit", default=None, help="also write the JSON to this file")
    return parser


_HANDLERS = {
    "gasket": cmd_gasket,
    "words": cmd_words,
    "orbit": cmd_orbit,
    "induct": cmd_induct,
    "towers": cmd_towers,
    "check": cmd_check,
    "experiment": cmd_experiment,
    "render": cmd_render,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as lifted:
        try:
            config = load_config(args.config)
            if args.output_dir is not None:
                config = replace(config, output_dir=args.output_dir)
            # argv and config are parsed: from here on every digit prints
            lifted.enter_context(_every_digit())
            return _HANDLERS[args.command](args, config)
        except ConfigError as e:
            sys.stderr.write(f"ar-iet: {e}\n")
            return 2
        except DomainError as e:
            return _report(e.code, e, e.detail, 1)
        except RuntimeError as e:
            # an internal consistency check failed: a fault of the program, not of the input
            return _report("internal-fault", e, {"type": type(e).__name__}, 3)


def _report(code: str, e: Exception, detail: dict, status: int) -> int:
    """Write the ar-iet/error/1 object for e to stderr; return the exit status."""
    error = {
        "schema": "ar-iet/error/1",
        "code": code,
        "message": str(e),
        "detail": {k: str(v) for k, v in sorted(detail.items())},
    }
    sys.stderr.write(_json_text(error))
    return status


if __name__ == "__main__":
    sys.exit(main())
