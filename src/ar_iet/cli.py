"""Command-line front end: `ar-iet`.

Subcommands wrap the library one-to-one and emit deterministic JSON on
stdout (sorted keys, exact rationals as "p/q" strings), optional CSV and
SVG files under the configured output directory.  Exit codes: 0 success,
1 domain error (a structured JSON object goes to stderr), 2 usage error.

A plain-text config file (`--config`) holds `key=value` lines with `#`
comments; keys mirror RunConfig fields.  With a fixed config and fixed
arguments every byte of output is reproducible; the only intentional
variation is the version comment line inside SVG files.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import __version__, svg
from .analysis import (
    birkhoff_frequencies,
    eigenvalue_scan,
    tourab_patterns,
    twm_pattern,
    two_measure_experiment,
    xi_sequence,
)
from .errors import DomainError
from .gasket import (
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
from .iet import FIRST_ORDER, build_ar9, parse_order, trajectory
from .induction import induce_step, iterate_induction
from .towers import (
    adjacency_check,
    level_component_counts,
    partition_check,
    towers_at_stage,
)
from .words import A9, heights_by_matrix, multiplicative_stage_words, stage_words


class ConfigError(Exception):
    """Malformed or invalid configuration; reported as a usage error."""


@dataclass(frozen=True)
class RunConfig:
    """Tunable defaults shared by all subcommands."""

    seed_triple: Triple = DEFAULT_SEED
    max_steps: int = 64
    word_cap: int = 200_000
    return_time_cap: int = 8
    refinement_depth: int = 6
    l1_threshold: Fraction = Fraction(1, 10)
    xi_sum_threshold: Fraction = Fraction(2)
    tail_epsilon: Fraction = Fraction(1, 100)
    output_dir: str = "."
    random_seed: int = 0

    def validate(self) -> None:
        for name in ("max_steps", "word_cap", "return_time_cap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.refinement_depth < 0:
            raise ConfigError("refinement_depth must be nonnegative")


_INT_KEYS = ("max_steps", "word_cap", "return_time_cap", "refinement_depth",
             "random_seed")
_FRACTION_KEYS = ("l1_threshold", "xi_sum_threshold", "tail_epsilon")


def load_config(path: str | None) -> RunConfig:
    config = RunConfig()
    if path is None:
        config.validate()
        return config
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = key.strip(), value.strip()
        try:
            if key == "seed_triple":
                overrides[key] = parse_triple(value)
            elif key in _INT_KEYS:
                overrides[key] = int(value)
            elif key in _FRACTION_KEYS:
                overrides[key] = Fraction(value)
            elif key == "output_dir":
                overrides[key] = value
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}") from e
    config = replace(config, **overrides)
    config.validate()
    return config


# --- serialization helpers ---------------------------------------------------

def _iv(piece) -> list[str]:
    return [str(piece.left), str(piece.right)]


def _emit_json(payload: dict, args, config: RunConfig) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    name = getattr(args, "emit", None)
    if name:
        _write_file(name, text, config)


def _write_file(name: str, text: str, config: RunConfig) -> Path:
    path = Path(config.output_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _frequency_rows(counts: dict[str, int], length: int) -> list[list[str]]:
    rows = []
    for letter in sorted(counts):
        freq = Fraction(counts[letter], length)
        rows.append([letter, str(counts[letter]), str(freq), f"{float(freq):.12g}"])
    return rows


def _write_csv(name: str, header: list[str], rows: list[list[str]],
               config: RunConfig) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_file(name, buffer.getvalue(), config)


# --- shared argument plumbing -------------------------------------------------

def _resolve_triple(args, config: RunConfig) -> Triple:
    """--triple takes priority; otherwise reconstruct --prefix from the seed."""
    if getattr(args, "triple", None) is not None:
        return args.triple
    if getattr(args, "prefix", None) is not None:
        return reconstruct_triple(args.prefix, seed=config.seed_triple)
    raise ConfigError("one of --triple or --prefix is required")


def _resolve_pq(args) -> PartialQuotients:
    if getattr(args, "ks", None) is not None:
        if getattr(args, "rules", None) is None:
            raise ConfigError("--ks requires --rules")
        if len(args.ks) != len(args.rules):
            raise ConfigError("--ks and --rules must have equal length")
        return PartialQuotients(ks=args.ks, rules=args.rules)
    if getattr(args, "prefix", None) is not None:
        return partial_quotients(args.prefix)
    raise ConfigError("one of --prefix or --ks/--rules is required")


def _sample_point(m, rng: random.Random) -> Fraction:
    piece = m.domain[rng.choice(A9)]
    return piece.left + piece.length * Fraction(rng.randrange(1, 997), 997)


def _ks_arg(text: str) -> tuple[int, ...]:
    ks = tuple(int(part) for part in text.split(","))
    if any(k < 1 for k in ks):
        raise ValueError("partial quotients must be positive")
    return ks


def _rules_arg(text: str) -> tuple[Sym, ...]:
    if set(text) - {"1", "2"}:
        raise ValueError("rules must be digits over {1,2}")
    return tuple(Sym(int(ch)) for ch in text)


# --- subcommands ---------------------------------------------------------------

def cmd_gasket(args, config: RunConfig) -> int:
    t = _resolve_triple(args, config)
    steps = args.steps if args.steps is not None else config.max_steps
    prefix, exit_ = directing_prefix(t, max_steps=steps)
    payload = {
        "schema": "ar-iet/gasket/1",
        "triple": [str(v) for v in t],
        "steps": steps,
        "prefix": format_prefix(prefix),
        "exit": {"kind": exit_.kind, "step": exit_.step, "reason": exit_.reason},
        "omega_lengths": [str(v) for v in omega_lengths(t)],
    }
    try:
        pq = partial_quotients(prefix)
        payload["partial_quotients"] = {
            "ks": list(pq.ks),
            "rules": "".join(str(int(r)) for r in pq.rules),
            "times": list(pq.times),
        }
    except DomainError:
        payload["partial_quotients"] = None
    _emit_json(payload, args, config)
    return 0


def cmd_words(args, config: RunConfig) -> int:
    alphabet = args.alphabet.upper()
    cap = args.cap if args.cap is not None else config.word_cap
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
        "words": dict(sorted(words.items())),
        "heights": {"a": heights[0], "b": heights[1], "c": heights[2]},
    }
    _emit_json(payload, args, config)
    return 0


def cmd_orbit(args, config: RunConfig) -> int:
    if args.length < 0:
        raise ConfigError("--length must be nonnegative")
    t = _resolve_triple(args, config)
    m = build_ar9(t, order=args.order)
    x = args.point
    if x is None:
        x = _sample_point(m, random.Random(config.random_seed))
    coding = trajectory(m, x, args.length, args.partition)
    counts = {ch: coding.count(ch) for ch in sorted(set(coding))}
    payload = {
        "schema": "ar-iet/orbit/1",
        "triple": [str(v) for v in t],
        "order": str(args.order),
        "point": str(x),
        "length": args.length,
        "partition": args.partition,
        "coding": coding,
        "counts": counts,
    }
    _emit_json(payload, args, config)
    if args.csv:
        _write_csv(args.csv, ["letter", "count", "frequency", "decimal"],
                   _frequency_rows(counts, args.length), config)
    return 0


def cmd_induct(args, config: RunConfig) -> int:
    t = _resolve_triple(args, config)
    m = build_ar9(t, order=args.order)
    steps = args.steps if args.steps is not None else config.refinement_depth
    if steps < 0:
        raise ConfigError("--steps must be nonnegative")
    cap = args.cap if args.cap is not None else config.return_time_cap
    items = [
        {
            "index": stage.index,
            "case": str(int(stage.case)),
            "triple": [str(v) for v in stage.map.triple],
            "order": str(stage.map.order),
            "return_times": stage.return_times,
            "return_words": stage.return_words,
            "verified": stage.ok,
        }
        for stage in iterate_induction(m, steps, cap=cap)
    ]
    payload = {
        "schema": "ar-iet/induct/1",
        "triple": [str(v) for v in t],
        "order": str(args.order),
        "steps": steps,
        "stages": items,
    }
    _emit_json(payload, args, config)
    return 0


def _require_stage(args) -> None:
    if args.stage is not None and args.stage < 0:
        raise ConfigError("--stage must be nonnegative")


def cmd_towers(args, config: RunConfig) -> int:
    _require_stage(args)
    t = _resolve_triple(args, config)
    m = build_ar9(t, order=args.order)
    cap = args.cap if args.cap is not None else config.return_time_cap
    stage = args.stage if args.stage is not None else config.refinement_depth
    stages = iterate_induction(m, stage, cap=cap)
    family = towers_at_stage(m, stages, stage)
    nine = {
        ch: {
            "height": tower.height,
            "word": tower.word,
            "base": _iv(tower.base[0]),
        }
        for ch, tower in family.nine.items()
    }
    three = {
        ch: {
            "height": tower.height,
            "base": [_iv(p) for p in tower.base],
        }
        for ch, tower in family.three.items()
    }
    payload = {
        "schema": "ar-iet/towers/1",
        "triple": [str(v) for v in t],
        "order": str(args.order),
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


def _check_one(prefix, depth: int, order, cap: int, config: RunConfig,
               selected: tuple[str, ...]) -> dict:
    t = reconstruct_triple(prefix, seed=config.seed_triple)
    m = build_ar9(t, order=order)
    depth = min(depth, len(prefix))
    stages = iterate_induction(m, depth, cap=cap)
    results: dict[str, bool] = {}
    families = [towers_at_stage(m, stages, k) for k in range(depth + 1)]
    if "partition" in selected:
        results["partition"] = all(partition_check(f).ok for f in families)
    if "adjacency" in selected:
        results["adjacency"] = all(adjacency_check(f).ok for f in families)
    if "components" in selected:
        bounds = {"a": 3, "b": 2, "c": 1}
        results["components"] = all(
            count <= bounds[letter]
            for f in families
            for letter, count in level_component_counts(f).items()
        )
    if "induction" in selected:
        # at depth 0 there is no stage yet, so induce once to have one to check
        checked = stages or [induce_step(m, cap=cap)]
        results["induction"] = all(s.ok for s in checked)
    if "coding" in selected:
        expected = stage_words(tuple(s.case for s in stages), "A9", config.word_cap)
        family = families[-1]
        words_ok = all(family.nine[ch].word == expected[ch] for ch in A9)
        orbit_ok = True
        for ch in A9:
            tower = family.nine[ch]
            base = tower.base[0]
            mid = (base.left + base.right) / 2
            orbit_ok = orbit_ok and trajectory(m, mid, tower.height) == tower.word
        results["coding"] = words_ok and orbit_ok
    return {
        "prefix": format_prefix(prefix),
        "triple": [str(v) for v in t],
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
        try:
            lines = Path(args.prefix_file).read_text().splitlines()
        except OSError as e:
            raise ConfigError(f"cannot read {args.prefix_file}: {e}") from e
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                prefixes.append(parse_prefix(line))
            except ValueError as e:
                raise ConfigError(f"{args.prefix_file}:{lineno}: {e}") from e
    if not prefixes:
        raise ConfigError("no prefixes given (--prefix or --prefix-file)")
    depth = args.depth if args.depth is not None else config.refinement_depth
    if depth < 0:
        raise ConfigError("--depth must be nonnegative")
    cap = args.cap if args.cap is not None else config.return_time_cap
    targets = [
        _check_one(p, depth, args.order, cap, config, selected) for p in prefixes
    ]
    payload = {
        "schema": "ar-iet/check/1",
        "selected": list(selected),
        "order": str(args.order),
        "targets": targets,
        "ok": all(item["ok"] for item in targets),
    }
    _emit_json(payload, args, config)
    return 0


def cmd_experiment(args, config: RunConfig) -> int:
    if args.kind in ("two-measure", "birkhoff") and args.length < 1:
        raise ConfigError("--length must be positive")
    if args.kind == "eigen" and args.persistence < 1:
        raise ConfigError("--persistence must be positive")
    if args.kind in ("xi", "twm", "eigen", "two-measure"):
        pq = _resolve_pq(args)
    if args.kind == "xi":
        report = xi_sequence(pq, xi_sum_threshold=config.xi_sum_threshold,
                             tail_epsilon=config.tail_epsilon)
        payload = {
            "schema": "ar-iet/experiment-xi/1",
            "ks": list(pq.ks),
            "rules": "".join(str(int(r)) for r in pq.rules),
            "xi": {str(n): str(v) for n, v in sorted(report.xi.items())},
            "xi_partial_sums": [str(v) for v in report.xi_partial_sums],
            "inv_k_partial_sums": [str(v) for v in report.inv_k_partial_sums],
            "flags": {
                "mtours_evidence": report.flags.mtours_evidence,
                "nue_evidence": report.flags.nue_evidence,
                "twm_pattern": report.flags.twm_pattern,
                "bqp_bound": report.flags.bqp_bound,
            },
            "evidence_scope": report.evidence_scope,
        }
    elif args.kind == "twm":
        report = twm_pattern(pq, tail_epsilon=config.tail_epsilon)
        patterns = tourab_patterns(pq)
        payload = {
            "schema": "ar-iet/experiment-twm/1",
            "n_indices": list(report.n_indices),
            "max_k_ni_plus_2": report.max_k_ni_plus_2,
            "sum_inv_k_ni_plus_1": str(report.sum_inv_k_ni_plus_1),
            "sum_inv_k_ni": str(report.sum_inv_k_ni),
            "pattern_present": report.pattern_present,
            "tourab_i": list(patterns.pattern_i),
            "tourab_ii": list(patterns.pattern_ii),
            "evidence_scope": "prefix-only",
        }
    elif args.kind == "eigen":
        scan = eigenvalue_scan(pq, args.theta, floor=args.floor,
                               persistence=args.persistence)
        payload = {
            "schema": "ar-iet/experiment-eigen/1",
            "theta": str(scan.theta),
            "floor": str(scan.floor),
            "values": [str(v) for v in scan.values],
            "hits": list(scan.hits),
            "verdict": scan.verdict,
            "rejected_at": scan.rejected_at,
        }
    elif args.kind == "two-measure":
        top = pq.times[-1] if pq.ks else 0
        depth = args.depth if args.depth is not None else top
        if not 0 <= depth <= top:
            raise ConfigError(f"--depth must lie in 0..{top}")
        report = two_measure_experiment(pq, depth, args.length,
                                        return_cap=config.return_time_cap)
        payload = {
            "schema": "ar-iet/experiment-two-measure/1",
            "depth": report.depth,
            "orbit_length": report.orbit_length,
            "swapped": report.swapped,
            "base_points": [str(x) for x in report.base_points],
            "frequencies": [
                {ch: str(f) for ch, f in v.frequencies.items()}
                for v in report.vectors
            ],
            "l1": str(report.l1),
            "l1_decimal": f"{float(report.l1):.12g}",
            "l1_threshold": str(config.l1_threshold),
            "exceeds_threshold": report.l1 >= config.l1_threshold,
        }
    else:  # birkhoff
        t = _resolve_triple(args, config)
        m = build_ar9(t, order=args.order)
        x = args.point
        if x is None:
            x = _sample_point(m, random.Random(config.random_seed))
        vector = birkhoff_frequencies(m, x, args.length)
        payload = {
            "schema": "ar-iet/experiment-birkhoff/1",
            "triple": [str(v) for v in t],
            "order": str(args.order),
            "point": str(x),
            "length": args.length,
            "counts": dict(sorted(vector.counts.items())),
            "frequencies": {ch: str(f) for ch, f in sorted(vector.frequencies.items())},
        }
        if args.csv:
            _write_csv(args.csv, ["letter", "count", "frequency", "decimal"],
                       _frequency_rows(vector.counts, args.length), config)
    _emit_json(payload, args, config)
    return 0


def cmd_render(args, config: RunConfig) -> int:
    _require_stage(args)
    t = _resolve_triple(args, config)
    m = build_ar9(t, order=args.order)
    cap = args.cap if args.cap is not None else config.return_time_cap
    if args.layout:
        text = svg.render_layout(m)
    elif args.induction:
        stage = args.stage if args.stage is not None else 1
        text = svg.render_induction(m, iterate_induction(m, stage, cap=cap))
    else:
        stage = args.stage if args.stage is not None else config.refinement_depth
        stages = iterate_induction(m, stage, cap=cap)
        text = svg.render_towers(towers_at_stage(m, stages, stage))
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--emit", default=None, help="also write the JSON to this file")

    p = sub.add_parser("words", help="materialize stage words")
    p.add_argument("--prefix", type=parse_prefix, required=True)
    p.add_argument("--alphabet", choices=("a3", "a9"), default="a3")
    p.add_argument("--multiplicative", action="store_true",
                   help="use the block-multiplicative rules (needs a complete prefix)")
    p.add_argument("--cap", type=int, default=None, help="total letter cap")
    p.add_argument("--emit", default=None)

    p = sub.add_parser("orbit", help="code an exact orbit")
    _add_system_args(p)
    p.add_argument("--point", type=Fraction, default=None,
                   help="starting point (rational); sampled from random_seed if absent")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--partition", choices=("nine", "three"), default="nine")
    p.add_argument("--csv", default=None, help="write letter frequencies as CSV")
    p.add_argument("--emit", default=None)

    p = sub.add_parser("induct", help="iterate verified induction steps")
    _add_system_args(p)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--cap", type=int, default=None, help="return-time cap")
    p.add_argument("--emit", default=None)

    p = sub.add_parser("towers", help="build stage towers and their checks")
    _add_system_args(p)
    p.add_argument("--stage", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--emit", default=None)

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
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--emit", default=None)

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
    p.add_argument("--order", type=parse_order, default=FIRST_ORDER)
    p.add_argument("--theta", type=Fraction, default=Fraction(0),
                   help="eigen only: candidate eigenvalue exponent")
    p.add_argument("--floor", type=Fraction, default=None,
                   help="eigen only: rejection floor (default 1/(2 denominator))")
    p.add_argument("--persistence", type=int, default=3,
                   help="eigen only: hits needed to reject")
    p.add_argument("--depth", type=int, default=None,
                   help="two-measure only: additive stage of the tower bases")
    p.add_argument("--length", type=int, default=10_000,
                   help="orbit length for the frequency experiments")
    p.add_argument("--point", type=Fraction, default=None, help="birkhoff only")
    p.add_argument("--csv", default=None)
    p.add_argument("--emit", default=None)

    p = sub.add_parser("render", help="emit SVG figures")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--layout", action="store_true")
    what.add_argument("--induction", action="store_true")
    what.add_argument("--towers", action="store_true")
    _add_system_args(p)
    p.add_argument("--stage", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", default=None, help="SVG file name (default: stdout)")

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
    try:
        config = load_config(args.config)
        if args.output_dir is not None:
            config = replace(config, output_dir=args.output_dir)
        return _HANDLERS[args.command](args, config)
    except ConfigError as e:
        sys.stderr.write(f"ar-iet: {e}\n")
        return 2
    except DomainError as e:
        error = {
            "schema": "ar-iet/error/1",
            "code": e.code,
            "message": str(e),
            "detail": {k: str(v) for k, v in sorted(e.detail.items())},
        }
        sys.stderr.write(json.dumps(error, indent=2, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
