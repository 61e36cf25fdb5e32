"""End-to-end tests of the ar-iet command line."""
import argparse
import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import pytest

import ar_iet
from ar_iet.cli import (
    RunConfig,
    _fraction_arg,
    _ks_arg,
    _rules_arg,
    build_parser,
    load_config,
    main,
)
from ar_iet.gasket import parse_prefix, parse_triple
from ar_iet.iet import ORDER_TAGS, parse_order
from ar_iet.words import heights_by_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_process(*argv):
    """Run the CLI in a child process, cut by a 60 s timeout."""
    env = {**os.environ, "PYTHONPATH": str(Path(ar_iet.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "ar_iet.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60)


# --- config ------------------------------------------------------------------

def test_config_defaults_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "seed_triple = 4,2,1\n"
        "word_cap = 500   # inline comment\n"
        "l1_threshold = 2/10\n"
        "output_dir = out\n"
        "random_seed = 7\n"
    )
    config = load_config(str(path))
    assert config.word_cap == 500
    assert str(config.l1_threshold) == "1/5"
    assert config.output_dir == "out"
    assert config.random_seed == 7
    assert config.max_steps == 64  # untouched default


def test_readme_config_keys_are_the_runconfig_fields():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("* **Config.**")
    keys = readme[readme.index("allowed):", start):readme.index("Flags override", start)]
    assert re.findall(r"`(\w+)`", keys) == [f.name for f in fields(RunConfig)]


# a value other than the default for every RunConfig field, in config syntax
CONFIG_SAMPLES = {
    "seed_triple": "7,4,2",
    "max_steps": "9",
    "word_cap": "99",
    "refinement_depth": "0",
    "l1_threshold": "3/7",
    "xi_sum_threshold": "5/2",
    "tail_epsilon": "1/3",
    "output_dir": "out",
    "random_seed": "-4",
}


def test_every_config_field_round_trips(tmp_path):
    assert list(CONFIG_SAMPLES) == [f.name for f in fields(RunConfig)]
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {text}\n" for key, text in CONFIG_SAMPLES.items()))
    config = load_config(str(path))
    types = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        assert isinstance(value, types[f.name]) and value != f.default, f.name
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        assert text == CONFIG_SAMPLES[f.name]


def test_shared_defaults_are_the_library_constants(capsys, monkeypatch):
    from ar_iet import analysis, cli, gasket

    config = RunConfig()
    assert config.max_steps == gasket.DEFAULT_MAX_STEPS
    assert config.xi_sum_threshold == analysis.DEFAULT_XI_SUM_THRESHOLD
    assert config.tail_epsilon == analysis.DEFAULT_TAIL_EPSILON
    # --persistence defaults to None, so that other kinds can refuse it, and
    # eigen then scans with the library's default
    args = build_parser().parse_args(["experiment", "--eigen", "--ks", "1"])
    assert args.persistence is None
    seen = []

    def scan(*args, persistence, **kwargs):
        seen.append(persistence)
        return analysis.eigenvalue_scan(*args, persistence=persistence, **kwargs)

    monkeypatch.setattr(cli, "eigenvalue_scan", scan)
    run_json(capsys, "experiment", "--eigen", "--ks", "1", "--rules", "1")
    assert seen == [analysis.DEFAULT_PERSISTENCE]


def test_config_errors_are_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text in ("word_cap = -3\n", "no_such_key = 1\n", "word_cap: 3\n",
                 "word_cap = x\n"):
        bad.write_text(text)
        code, _, err = run(capsys, "--config", str(bad), "gasket",
                           "--triple", "7,4,2")
        assert code == 2
        assert "ar-iet:" in err


def test_a_config_key_given_twice_is_a_usage_error(tmp_path, capsys, monkeypatch):
    import ar_iet.cli as cli

    def trajectory(*args):
        raise AssertionError("the orbit was walked")

    # the second word_cap would let the orbit run; neither value is kept
    monkeypatch.setattr(cli, "trajectory", trajectory)
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("word_cap = 5\n# a comment\nmax_steps = 9\nword_cap = 100\n")
    code, out, err = run(capsys, "--config", str(cfg), "orbit", "--triple", "7,4,2",
                         "--point", "6", "--length", "50")
    assert (code, out) == (2, "")
    assert err == (f"ar-iet: {cfg}:4: key 'word_cap' is given again, first on line 1; "
                   "give it once\n")


# --- gasket ------------------------------------------------------------------

def test_gasket_two_steps_with_tie_exit(capsys):
    payload = run_json(capsys, "gasket", "--triple", "13/1,7/1,4/1",
                       "--steps", "10")
    assert payload["schema"] == "ar-iet/gasket/1"
    assert payload["prefix"] == "11"
    assert payload["exit"] == {"kind": "not-in-gasket", "step": 3, "reason": "tie"}
    assert payload["omega_lengths"] == ["20", "11", "17"]
    assert payload["partial_quotients"]["ks"] == [1, 1]


def test_gasket_steps_past_word_cap_are_refused(capsys, tmp_path):
    # (10^12, 2, 1) steps by case III for about 3.3 * 10^11 steps
    cfg = tmp_path / "run.cfg"
    cfg.write_text("word_cap = 5\n")
    argv = ("--config", str(cfg), "gasket", "--triple", "1000000000000,2,1", "--steps")
    payload = run_json(capsys, *argv, "5")
    assert (payload["prefix"], payload["exit"]["kind"]) == ("33333", "exhausted")
    code, out, err = run(capsys, *argv, "6")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "schema": "ar-iet/error/1",
        "code": "word-overflow",
        "message": "gasket prefix of 6 steps exceeds cap 5",
        "detail": {"cap": "5", "steps": "6"},
    }
    # an orbit that leaves the gasket within the cap prints what it did
    # under the default cap
    short = ("gasket", "--triple", "13,7,4", "--steps", "6")
    payload = run_json(capsys, "--config", str(cfg), *short)
    assert payload == run_json(capsys, *short)
    assert (payload["prefix"], payload["exit"]["step"]) == ("11", 3)


def test_gasket_steps_are_bounded_by_word_cap_in_time():
    # stepped one by one, this orbit would take about 3.3 * 10^11 steps
    done = run_process("gasket", "--triple", "1000000000000,2,1", "--steps", "1000000000000")
    assert done.returncode == 1 and done.stdout == ""
    error = json.loads(done.stderr)
    assert error["code"] == "word-overflow"
    assert error["detail"] == {"cap": "200000", "steps": "1000000000000"}


def test_induct_steps_past_word_cap_are_refused(capsys, tmp_path):
    # (10^12, 2, 1) steps by case III, whose sigma9 images hold 14 letters
    cfg = tmp_path / "run.cfg"
    cfg.write_text("word_cap = 28\n")
    argv = ("--config", str(cfg), "induct", "--triple", "1000000000000,2,1", "--steps")
    payload = run_json(capsys, *argv, "2")
    assert [stage["case"] for stage in payload["stages"]] == ["3", "3"]
    assert all(stage["verified"] for stage in payload["stages"])
    code, out, err = run(capsys, *argv, "3")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "schema": "ar-iet/error/1",
        "code": "word-overflow",
        "message": "induct return words of 3 steps exceed cap 28",
        "detail": {"cap": "28", "steps": "3"},
    }
    # a triple that leaves the gasket within the cap is reported where it leaves
    code, out, err = run(capsys, "--config", str(cfg), "induct", "--triple", "7,4,2",
                         "--steps", "5")
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["code"] == "not-in-gasket" and error["detail"]["at_step"] == "2"


def test_induct_steps_are_bounded_by_word_cap_in_time():
    # about 3.3 * 10^11 case-III stages before the triple leaves the gasket
    done = run_process("induct", "--triple", "1000000000000,2,1", "--steps", "100000000")
    assert done.returncode == 1 and done.stdout == ""
    error = json.loads(done.stderr)
    assert error["code"] == "word-overflow"
    assert error["detail"] == {"cap": "200000", "steps": "100000000"}


def test_gasket_from_prefix_reconstructs(capsys):
    payload = run_json(capsys, "gasket", "--prefix", "112")
    assert payload["prefix"].startswith("112")
    assert payload["triple"] == [str(v) for v in payload["triple"]]


def test_gasket_inadmissible_triple_is_domain_error(capsys):
    code, out, err = run(capsys, "gasket", "--triple", "2,4,7")
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["schema"] == "ar-iet/error/1"
    assert error["code"] == "inadmissible"


@pytest.mark.parametrize("argv,length", [
    (("gasket", "--prefix", "1" * 10_001), 10_001),
    (("check", "--induction", "--prefix", "1" * 10_001, "--depth", "0"), 10_001),
    (("experiment", "--birkhoff", "--prefix", "12" * 5_001), 10_002),
    (("experiment", "--two-measure", "--ks", "20000", "--rules", "1"), 20_000),
], ids=["gasket", "check", "birkhoff", "two-measure"])
def test_prefix_over_the_reconstruction_cap_is_domain_error(capsys, argv, length):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "schema": "ar-iet/error/1",
        "code": "prefix-too-long",
        "message": f"prefix length {length} exceeds cap 10000",
        "detail": {"cap": "10000", "length": str(length)},
    }


def test_readme_lists_every_error_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("* **Exit codes.**")
    listed = readme[start:readme.index("\n* **", start + 1)]
    codes = {error.code for error in ar_iet.DomainError.__subclasses__()}
    assert set(re.findall(r"`([a-z-]+)`", listed)) >= codes


# --- words -------------------------------------------------------------------

def test_words_tribonacci_stage3(capsys):
    payload = run_json(capsys, "words", "--prefix", "111", "--alphabet", "a3")
    assert payload["words"] == {"a": "abacaba", "b": "abacab", "c": "abac"}
    assert payload["heights"] == {"a": 7, "b": 6, "c": 4}
    assert payload["stage"] == 3


def test_words_multiplicative_matches_additive(capsys):
    additive = run_json(capsys, "words", "--prefix", "331", "--alphabet", "a9")
    mult = run_json(capsys, "words", "--prefix", "331", "--alphabet", "a9",
                    "--multiplicative")
    assert additive["words"] == mult["words"]
    assert mult["multiplicative"] is True


def test_words_overflow_is_domain_error(capsys):
    code, _, err = run(capsys, "words", "--prefix", "1" * 30, "--cap", "100")
    assert code == 1
    assert json.loads(err)["code"] == "word-overflow"


# --- orbit -------------------------------------------------------------------

def test_orbit_frozen_coding_and_csv(capsys, tmp_path):
    payload = run_json(capsys, "--output-dir", str(tmp_path), "orbit",
                       "--triple", "7,4,2", "--point", "6", "--length", "5",
                       "--csv", "freq.csv")
    assert payload["coding"] == "17184"
    assert payload["counts"] == {"1": 2, "4": 1, "7": 1, "8": 1}
    text = (tmp_path / "freq.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "letter,count,frequency,decimal"
    assert lines[1] == "1,2,2/5,0.4"
    assert len(lines) == 5


def test_orbit_sampled_point_is_deterministic(capsys):
    first = run_json(capsys, "orbit", "--triple", "7,4,2", "--length", "40")
    second = run_json(capsys, "orbit", "--triple", "7,4,2", "--length", "40")
    assert first == second
    assert first["point"]  # a sampled rational was recorded


def test_orbit_three_letter_partition(capsys):
    payload = run_json(capsys, "orbit", "--triple", "7,4,2", "--point", "6",
                       "--length", "5", "--partition", "three")
    assert payload["coding"] == "abaca"


def test_orbit_length_cap_is_word_cap(capsys, tmp_path, monkeypatch):
    import ar_iet.cli as cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text("word_cap = 40\n")
    argv = ("--config", str(cfg), "orbit", "--triple", "7,4,2", "--point", "6", "--length")
    assert len(run_json(capsys, *argv, "40")["coding"]) == 40

    def trajectory(*args):
        raise AssertionError("the orbit was walked")

    monkeypatch.setattr(cli, "trajectory", trajectory)
    code, out, err = run(capsys, *argv, "41")
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["code"] == "word-overflow"
    assert error["message"] == "orbit length 41 exceeds cap 40"
    assert error["detail"] == {"length": "41", "cap": "40"}


# --- induct and towers -------------------------------------------------------

def test_induct_tribonacci_three_stages(capsys):
    payload = run_json(capsys, "induct", "--prefix", "111111", "--steps", "3")
    assert [s["case"] for s in payload["stages"]] == ["1", "1", "1"]
    assert all(s["verified"] for s in payload["stages"])
    assert payload["stages"][0]["return_words"]["1"] == "35"


def test_induct_not_in_gasket_is_domain_error(capsys):
    code, _, err = run(capsys, "induct", "--triple", "7,4,2", "--steps", "5")
    assert code == 1
    error = json.loads(err)
    assert error["code"] == "not-in-gasket"
    assert error["detail"]["at_step"] == "2"


@pytest.mark.parametrize("argv", [
    ("induct", "--prefix", "1111", "--steps", "2"),
    ("check", "--induction", "--prefix", "1111", "--depth", "2"),
    ("check", "--induction", "--prefix", "1111", "--depth", "0"),
], ids=["induct", "check", "check-depth0"])
def test_internal_fault_is_exit_3(capsys, monkeypatch, argv):
    import ar_iet.induction as induction
    from ar_iet.words import Substitution, sigma9

    def swapped(case):
        table = dict(sigma9(case).table)
        table["1"], table["2"] = table["2"], table["1"]
        return Substitution("A9", table)

    # a wrong substitution table makes the stage check fail: a bug, not bad input
    monkeypatch.setattr(induction, "sigma9", swapped)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "Traceback" not in err
    assert json.loads(err) == {
        "schema": "ar-iet/error/1",
        "code": "internal-fault",
        "message": "induction stage 1 disagrees with the prediction: words_ok",
        "detail": {"type": "RuntimeError"},
    }


@pytest.mark.parametrize("selected", ["--all", "--partition", "--coding"])
def test_tower_fault_is_an_internal_fault(capsys, monkeypatch, selected):
    import ar_iet.towers as towers

    # every stage-4 tower of 121311 one level past its first return: the
    # layout from stage 3 is a fault of the program, not a false verdict
    real = towers.letter_height
    hv = heights_by_matrix(parse_prefix("1213"))[-1]
    monkeypatch.setattr(towers, "letter_height",
                        lambda ch, heights: real(ch, heights) + (heights == hv))
    code, out, err = run(capsys, "check", selected, "--prefix", "121311", "--depth", "4")
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "schema": "ar-iet/error/1",
        "code": "internal-fault",
        "message": "level 6 of stage-4 tower 1: [112,121) starts stage-3 tower 1, "
                   "6 levels tall, with 1 left to lay",
        "detail": {"type": "RuntimeError"},
    }


def test_towers_stage2_heights_and_checks(capsys):
    payload = run_json(capsys, "towers", "--prefix", "111111", "--stage", "2")
    assert payload["nine"]["1"]["height"] == 4
    assert payload["nine"]["5"]["height"] == 3
    assert payload["nine"]["9"]["height"] == 2
    assert payload["checks"]["partition"] is True
    assert payload["checks"]["adjacency"] is True
    assert payload["checks"]["component_counts"]["c"] == 1


# --- check -------------------------------------------------------------------

def test_check_all_from_prefix_file(capsys, tmp_path):
    listing = tmp_path / "p.txt"
    listing.write_text("111111\n# a comment\n12312\n")
    payload = run_json(capsys, "check", "--all", "--prefix-file", str(listing),
                       "--depth", "3")
    assert payload["ok"] is True
    assert len(payload["targets"]) == 2
    for target in payload["targets"]:
        assert set(target["checks"]) == {
            "partition", "adjacency", "components", "induction", "coding"
        }
        assert all(target["checks"].values())


def test_check_single_kind_and_repeatable_prefix(capsys):
    payload = run_json(capsys, "check", "--partition", "--prefix", "1212",
                       "--prefix", "111", "--depth", "2")
    assert payload["selected"] == ["partition"]
    assert len(payload["targets"]) == 2


@pytest.mark.parametrize("kinds", [("--all",), ("--induction",), ("--coding",)])
def test_check_refuses_a_chain_of_another_prefix(capsys, monkeypatch, kinds):
    import ar_iet.cli as cli

    # a reconstruction that hands back the triple of another prefix of the
    # same length: every check would pass on that prefix's chain
    real = cli.reconstruct_triple
    monkeypatch.setattr(cli, "reconstruct_triple",
                        lambda prefix, seed: real(parse_prefix("1111"), seed=seed))
    code, out, err = run(capsys, "check", *kinds, "--prefix", "1213", "--depth", "4")
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "schema": "ar-iet/error/1",
        "code": "internal-fault",
        "message": "the chain of prefix 1213 steps by 1111",
        "detail": {"type": "RuntimeError"},
    }
    # the first depth symbols are the ones compared
    assert run_json(capsys, "check", *kinds, "--prefix", "1113", "--depth", "3")["ok"]


def test_check_without_prefixes_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--all")
    assert code == 2
    assert "no prefixes" in err


@pytest.mark.parametrize("argv", [
    ("check", "--partition", "--prefix", "111", "--depth", "-1"),
    ("check", "--coding", "--prefix", "111", "--depth", "-1"),
    ("orbit", "--triple", "7,4,2", "--point", "6", "--length", "-3"),
    ("experiment", "--birkhoff", "--triple", "7,4,2", "--length", "0"),
    ("experiment", "--two-measure", "--ks", "1,1", "--rules", "11", "--length", "0"),
])
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("ar-iet: ") and err.count("\n") == 1


# --- parser ------------------------------------------------------------------

def test_parser_is_built_once_and_not_at_import():
    assert build_parser() is build_parser()
    probe = "import ar_iet.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(ar_iet.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout == "0\n"


def test_parser_reuse_leaks_no_state_between_calls(capsys):
    two = run_json(capsys, "check", "--prefix", "11", "--prefix", "12")
    assert [t["prefix"] for t in two["targets"]] == ["11", "12"]
    one = run_json(capsys, "check", "--prefix", "13")
    assert [t["prefix"] for t in one["targets"]] == ["13"]
    # a usage error leaves the next call as it was before it
    before = run(capsys, "check", "--partition", "--prefix", "1111", "--depth", "3")
    with pytest.raises(SystemExit) as exc:
        main(["check", "--all", "--prefix", "1^12", "--depth", "8"])
    assert exc.value.code == 2
    assert "invalid parse_prefix value" in capsys.readouterr().err
    assert run(capsys, "check", "--partition", "--prefix", "1111", "--depth", "3") == before
    # the experiment kinds are one mutually exclusive group
    xi = run_json(capsys, "experiment", "--xi", "--ks", "1,2,1", "--rules", "121")
    twm = run_json(capsys, "experiment", "--twm", "--prefix", "1" * 10)
    assert xi["schema"] != twm["schema"]
    assert run_json(capsys, "experiment", "--xi", "--ks", "1,2,1", "--rules", "121") == xi


# --- experiment --------------------------------------------------------------

def test_experiment_xi_tribonacci(capsys):
    payload = run_json(capsys, "experiment", "--xi", "--ks", "1,1,1,1,1",
                       "--rules", "11111")
    assert payload["xi"] == {"1": "1/9", "2": "1/9"}
    assert payload["flags"]["bqp_bound"] == 1
    assert payload["evidence_scope"] == "prefix-only"


def test_encoder_turns_library_values_into_json_data():
    from fractions import Fraction as F

    from ar_iet import Interval, PartialQuotients, Sym, parse_order, triple, twm_pattern
    from ar_iet.cli import _encoded

    pq = PartialQuotients((1, 2, 1), (Sym.I, Sym.I, Sym.II))
    value = {
        1: Interval(F(1, 3), F(1, 2)),
        "order": parse_order("reversed-second"),
        "case": Sym.III,
        "triple": triple(7, 4, 2),
        "report": twm_pattern(pq),  # a dataclass inside a dict: one walk
        "kept": ("word", 3, True, None),
    }
    assert _encoded(value) == {
        "1": ["1/3", "1/2"],
        "order": "reversed-second",
        "case": "3",
        "triple": ["7", "4", "2"],
        "report": {
            "n_indices": [1, 2],
            "max_k_ni_plus_2": 1,
            "sum_inv_k_ni_plus_1": "3/2",
            "sum_inv_k_ni": "3/2",
            "pattern_present": False,
        },
        "kept": ["word", 3, True, None],
    }


def test_integer_keys_are_sorted_as_strings(capsys):
    # json.loads keeps the order of the text, which sort_keys fixed
    payload = run_json(capsys, "experiment", "--xi", "--prefix", "1" * 14)
    assert list(payload["xi"]) == sorted(payload["xi"]) != sorted(payload["xi"], key=int)


def test_experiment_twm_includes_recurrence_patterns(capsys):
    payload = run_json(capsys, "experiment", "--twm", "--prefix", "1" * 10)
    assert payload["n_indices"] == list(range(1, 11))
    assert payload["tourab_i"] == list(range(0, 9))
    assert payload["tourab_ii"] == []


# 12,000 blocks k_n = n: the reciprocal sums are the harmonic number H_12000,
# whose numerator and denominator have more than 5,000 digits each
_HARMONIC = ("--ks", ",".join(map(str, range(1, 12_001))), "--rules", "1" * 12_000)


@pytest.mark.parametrize("kind, read", [
    ("--twm", lambda payload: payload["sum_inv_k_ni"]),
    ("--xi", lambda payload: payload["inv_k_partial_sums"][-1]),
], ids=["twm", "xi"])
def test_exact_output_past_the_int_digit_limit(kind, read):
    from fractions import Fraction as F

    from ar_iet.cli import _every_digit

    # CPython 3.10.7 on refuses str() of an int over 4,300 digits; the CLI
    # lifts that limit only while it prints, and prints the exact sum
    proc = run_process("experiment", kind, *_HARMONIC)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    with _every_digit():
        assert F(read(json.loads(proc.stdout))) == sum(F(1, k) for k in range(1, 12_001))
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


@pytest.mark.parametrize("argv", [
    ("render", "--layout"),
    ("render", "--towers", "--stage", "1"),
    ("towers", "--stage", "1"),
], ids=["render-layout", "render-towers", "towers"])
def test_piece_ends_print_past_the_int_digit_limit(capsys, argv):
    # pairwise coprime denominators of 3,001 digits: the sums of the block
    # lengths that place the pieces have denominators of about 6,000 digits
    d = 10**3000
    t = f"{4 * (d + 1) + 1}/{d + 1},{2 * (d + 3) + 1}/{d + 3},{d + 8}/{d + 7}"
    code, out, err = run(capsys, *argv, "--triple", t)
    assert (code, err) == (0, "")
    assert max(map(len, re.findall(r"\d+", out))) > 4300


def test_argv_parsing_keeps_the_int_digit_limit(capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on int digits")
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--twm", "--ks", "9" * (limit + 1), "--rules", "1"])
    assert exc.value.code == 2
    assert "argument --ks" in capsys.readouterr().err
    assert run_json(capsys, "experiment", "--twm", *_HARMONIC)["n_indices"][-1] == 12_000
    assert sys.get_int_max_str_digits() == limit


_NINES = "9" * 4300  # the most digits the interpreter parses into an int


@pytest.mark.parametrize("argv,status,want", [
    (("--depth", "-1"), 2, "ar-iet: --depth must lie in 0..1999"),
    (("--length", "3"), 1, '"code": "prefix-too-long"'),
], ids=["depth", "prefix-too-long"])
def test_two_measure_errors_print_past_the_int_digit_limit(capsys, argv, status, want):
    # both messages hold sums of the two quotients, which pass 4,300 digits;
    # they are built while the command runs, with the limit lifted
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(capsys, "experiment", "--two-measure", "--ks", f"{_NINES},{_NINES}",
                         "--rules", "11", *argv)
    assert (code, out) == (status, "")
    assert want in err
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


@pytest.mark.parametrize("argv", [
    ("--layout",), ("--induction",), ("--towers", "--stage", "1"),
], ids=["layout", "induction", "towers"])
def test_render_draws_a_triple_past_float_range(capsys, argv):
    # a 400-digit length overflows a float; each position is drawn from its
    # share of the span, which does not
    code, out, err = run(capsys, "render", *argv, "--triple", f"{'9' * 400},2,1")
    assert (code, err) == (0, "")
    assert out.startswith("<svg") and out.endswith("</svg>\n")


def test_experiment_eigen_verdicts(capsys):
    rejected = run_json(capsys, "experiment", "--eigen", "--prefix", "1" * 30,
                        "--theta", "1/2")
    assert rejected["verdict"] == "rejected"
    assert rejected["rejected_at"] == 0
    surviving = run_json(capsys, "experiment", "--eigen", "--prefix", "1" * 30,
                         "--theta", "0")
    assert surviving["verdict"] == "survives-prefix"
    assert surviving["rejected_at"] is None


def test_experiment_two_measure_smoke(capsys):
    payload = run_json(capsys, "experiment", "--two-measure", "--ks", "1,1,1",
                       "--rules", "111", "--length", "300")
    assert payload["depth"] == 3
    # two I rules precede the third block, so the towers come back unswapped
    assert payload["swapped"] is False
    assert "l1" in payload and "exceeds_threshold" in payload


@pytest.mark.parametrize("depth", ["0", "1"])
def test_two_measure_applies_the_return_cap_to_every_stage(capsys, monkeypatch, depth):
    # at depth 0 every stage is one that jump_stages induces for the orbits
    args = ("experiment", "--two-measure", "--ks", "2,4,8", "--rules", "111",
            "--length", "10000", "--depth", depth)
    with monkeypatch.context() as patch:
        patch.setattr(ar_iet.induction, "RETURN_CAP", 1)
        code, out, err = run(capsys, *args)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["code"] == "return-time-cap-exceeded"
    assert error["detail"]["cap"] == "1"
    # the real cap induces them
    assert run_json(capsys, *args)["depth"] == int(depth)


@pytest.mark.parametrize("command", (["orbit"], ["experiment", "--birkhoff"]),
                         ids=("orbit", "birkhoff"))
def test_orbits_apply_the_return_cap(capsys, monkeypatch, command):
    # a 20,000-step orbit jumps through five stages, each induced under the cap
    args = (*command, "--prefix", "1213121312131213", "--point", "1/3", "--length", "20000")
    with monkeypatch.context() as patch:
        patch.setattr(ar_iet.induction, "RETURN_CAP", 1)
        code, out, err = run(capsys, *args)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["code"] == "return-time-cap-exceeded"
    assert error["detail"]["cap"] == "1"
    # the real cap induces them
    assert run_json(capsys, *args)["length"] == 20000


def test_experiment_birkhoff_with_csv(capsys, tmp_path):
    payload = run_json(capsys, "--output-dir", str(tmp_path), "experiment",
                       "--birkhoff", "--triple", "7,4,2", "--point", "6",
                       "--length", "100", "--csv", "b.csv")
    assert sum(payload["counts"].values()) == 100
    lines = (tmp_path / "b.csv").read_text().splitlines()
    assert lines[0] == "letter,count,frequency,decimal"
    assert len(lines) == len(payload["counts"]) + 1


@pytest.mark.parametrize("argv,flag,readers", [
    (("--two-measure", "--ks", "2,4", "--rules", "11", "--csv", "x.csv"), "csv", "--birkhoff"),
    (("--two-measure", "--ks", "1,1", "--rules", "11", "--order", "reversed-third"),
     "order", "--birkhoff"),
    (("--two-measure", "--ks", "1,1", "--rules", "11", "--theta", "1/2"), "theta", "--eigen"),
    (("--two-measure", "--ks", "1,1", "--rules", "11", "--point", "1/3"),
     "point", "--birkhoff"),
    (("--two-measure", "--ks", "1,1", "--rules", "11", "--triple", "7,4,2"),
     "triple", "--birkhoff"),
    (("--birkhoff", "--triple", "7,4,2", "--depth", "3"), "depth", "--two-measure"),
    (("--birkhoff", "--triple", "7,4,2", "--ks", "1,1"),
     "ks", "--xi, --twm, --eigen, --two-measure"),
    (("--birkhoff", "--triple", "7,4,2", "--theta", "1/2"), "theta", "--eigen"),
    (("--xi", "--ks", "1,1", "--rules", "11", "--order", "second"), "order", "--birkhoff"),
    (("--xi", "--ks", "1,1", "--rules", "11", "--depth", "1"), "depth", "--two-measure"),
    (("--xi", "--ks", "1,1", "--rules", "11", "--length", "5"),
     "length", "--two-measure, --birkhoff"),
    (("--twm", "--prefix", "111", "--persistence", "3"), "persistence", "--eigen"),
    (("--eigen", "--prefix", "111", "--floor", "1/2", "--csv", "e.csv"),
     "csv", "--birkhoff"),
])
def test_experiment_refuses_a_flag_its_kind_does_not_read(capsys, tmp_path, argv, flag,
                                                          readers):
    # each of these argvs used to exit 0, the flag silently ignored
    code, out, err = run(capsys, "--output-dir", str(tmp_path), "experiment", *argv)
    assert (code, out) == (2, "")
    assert err == (f"ar-iet: --{flag} is read only by experiment {readers}, "
                   f"not by {argv[0]}\n")
    assert not any(tmp_path.iterdir())


SYSTEM = ("--triple", "7,4,2", "--prefix", "1111")


@pytest.mark.parametrize("argv,first,second,what", [
    pytest.param(("gasket", *SYSTEM), "triple", "prefix", "system", id="gasket"),
    pytest.param(("orbit", *SYSTEM, "--length", "5", "--csv", "o.csv"),
                 "triple", "prefix", "system", id="orbit"),
    pytest.param(("induct", *SYSTEM, "--steps", "1"), "triple", "prefix", "system",
                 id="induct"),
    pytest.param(("towers", *SYSTEM, "--stage", "1"), "triple", "prefix", "system",
                 id="towers"),
    pytest.param(("render", "--layout", *SYSTEM, "--out", "r.svg"),
                 "triple", "prefix", "system", id="render"),
    pytest.param(("experiment", "--birkhoff", *SYSTEM, "--length", "5", "--csv", "b.csv"),
                 "triple", "prefix", "system", id="birkhoff"),
    *(
        pytest.param(("experiment", f"--{kind}", "--prefix", "111", *given), "prefix",
                     flag, "partial quotients", id=f"{kind}-{flag}")
        for kind in ("xi", "twm", "eigen", "two-measure")
        for flag, given in (("ks", ("--ks", "1,1", "--rules", "11")),
                            ("rules", ("--rules", "22")))
    ),
])
def test_two_sources_of_one_input_are_refused(capsys, tmp_path, argv, first, second, what):
    # each of these argvs used to exit 0, reading one flag and ignoring the other
    code, out, err = run(capsys, "--output-dir", str(tmp_path), *argv)
    assert (code, out) == (2, "")
    assert err == f"ar-iet: --{first} and --{second} both give the {what}; give one of them\n"
    assert not any(tmp_path.iterdir())
    # either source alone is read (--rules is one only with --ks)
    for dropped in (first, second):
        at = argv.index(f"--{dropped}")
        alone = argv[:at] + argv[at + 2:]
        if "--rules" not in alone or "--ks" in alone:
            code, _, err = run(capsys, "--output-dir", str(tmp_path), *alone)
            assert code == 0, (alone, err)


def test_experiment_requires_quotient_source(capsys):
    code, _, err = run(capsys, "experiment", "--xi")
    assert code == 2
    assert "required" in err


# --- render ------------------------------------------------------------------

def test_render_layout_is_deterministic_svg(capsys):
    code, first, _ = run(capsys, "render", "--layout", "--triple", "7/1,4/1,2/1")
    assert code == 0
    assert first.startswith("<svg ")
    assert "<!-- ar-iet " in first
    assert ">11<" in first  # exact tick label for the breakpoint at 11
    code, second, _ = run(capsys, "render", "--layout", "--triple", "7/1,4/1,2/1")
    assert first == second


def test_render_induction_and_towers_to_files(capsys, tmp_path):
    code, out, _ = run(capsys, "--output-dir", str(tmp_path), "render",
                       "--induction", "--prefix", "1111", "--stage", "2",
                       "--out", "ind.svg")
    assert code == 0
    text = (tmp_path / "ind.svg").read_text()
    assert "stage 2" in text and text.rstrip().endswith("</svg>")
    code, _, _ = run(capsys, "--output-dir", str(tmp_path), "render",
                     "--towers", "--prefix", "1111", "--stage", "3",
                     "--out", "tow.svg")
    assert code == 0
    assert (tmp_path / "tow.svg").exists()


# --- emission and usage ------------------------------------------------------

def test_emit_writes_stdout_copy(capsys, tmp_path):
    payload = run_json(capsys, "--output-dir", str(tmp_path), "gasket",
                       "--triple", "13,7,4", "--emit", "g.json")
    on_disk = json.loads((tmp_path / "g.json").read_text())
    assert on_disk == payload


class CountingSink:
    """A stdout that keeps only the count and the digest of what is written
    to it, so the printed text is never held."""

    def __init__(self):
        self.size, self.digest = 0, hashlib.sha256()

    def write(self, text):
        self.size += len(text)
        self.digest.update(text.encode())
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


# 3,000 blocks k_n = n: --xi prints every partial sum, about 8 MB
_XI_3000 = ("experiment", "--xi", "--ks", ",".join(map(str, range(1, 3_001))),
            "--rules", "1" * 3_000)


def test_json_output_is_streamed_not_held(monkeypatch, tmp_path):
    printed = CountingSink()
    monkeypatch.setattr(sys, "stdout", printed)
    tracemalloc.start()
    try:
        code = main(list(_XI_3000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and printed.size > 7_000_000
    # the payload and its encoded values are held, the indented text is not:
    # held whole, it alone would add one more printed size
    assert peak < 2.5 * printed.size
    # with --emit the file is written first, then copied to stdout
    emitted = CountingSink()
    monkeypatch.setattr(sys, "stdout", emitted)
    assert main(["--output-dir", str(tmp_path), *_XI_3000, "--emit", "xi.json"]) == 0
    on_disk = (tmp_path / "xi.json").read_bytes()
    assert (emitted.size, emitted.digest.digest()) == (printed.size, printed.digest.digest())
    assert (len(on_disk), hashlib.sha256(on_disk).digest()) == (printed.size,
                                                                 printed.digest.digest())


@pytest.mark.parametrize("argv, name", [
    (("gasket", "--triple", "7,4,2", "--emit", "a.json"), "a.json"),
    (("orbit", "--triple", "7,4,2", "--point", "6", "--length", "5", "--csv", "f.csv"),
     "f.csv"),
    (("render", "--layout", "--triple", "7,4,2", "--out", "l.svg"), "l.svg"),
    (("experiment", "--birkhoff", "--triple", "7,4,2", "--point", "6", "--length", "5",
      "--csv", "b.csv"), "b.csv"),
], ids=["emit", "csv", "out", "birkhoff-csv"])
def test_failed_write_is_usage_error(capsys, tmp_path, argv, name):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "--output-dir", str(blocker), *argv)
    # every file is written before stdout, so a failed write prints nothing there
    assert out == ""
    assert code == 2
    assert err.startswith(f"ar-iet: cannot write {blocker / name}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_malformed_rational_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gasket", "--triple", "7,x,2"])
    assert exc.value.code == 2
    # every --prefix, the repeatable one of check included, is parsed by argparse
    with pytest.raises(SystemExit) as exc:
        main(["check", "--all", "--prefix", "1^12", "--depth", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --prefix" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("gasket", "--triple", "1/0,1,1"),
    ("orbit", "--prefix", "11", "--length", "3", "--point", "1/0"),
    ("experiment", "--eigen", "--ks", "1,2", "--rules", "11", "--theta", "1/0"),
    ("experiment", "--eigen", "--ks", "1,2", "--rules", "11", "--floor", "1/0"),
    ("experiment", "--birkhoff", "--triple", "7,4,2", "--point", "1/0"),
])
def test_zero_denominator_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("ar-iet ")]
    assert "error: argument --" in line and "'1/0" in line


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("towers", "--prefix", "1111", "--stage", "-1"),
    ("render", "--towers", "--prefix", "1111", "--stage", "-1"),
    ("render", "--induction", "--prefix", "1111", "--stage", "-1"),
    ("induct", "--prefix", "1111", "--steps", "-1"),
    ("experiment", "--two-measure", "--ks", "1,1", "--rules", "11", "--depth", "-1"),
    ("experiment", "--two-measure", "--ks", "1,1", "--rules", "11", "--depth", "3"),
    ("experiment", "--eigen", "--prefix", "111", "--theta", "0", "--persistence", "0"),
    ("experiment", "--eigen", "--ks", "1,2,3", "--rules", "111", "--floor", "0"),
    ("experiment", "--eigen", "--ks", "1,2,3", "--rules", "111", "--floor=-1/2"),
    ("gasket", "--prefix", "111", "--steps", "0"),
    ("gasket", "--prefix", "111", "--steps", "-1"),
    ("words", "--prefix", "111", "--cap", "0"),
    ("check", "--all", "--prefix", "111", "--depth", "-1"),
    ("orbit", "--prefix", "111", "--length", "-1"),
    ("experiment", "--birkhoff", "--prefix", "111", "--length", "-1"),
    ("experiment", "--eigen", "--prefix", "111", "--theta", "0", "--persistence", "-1"),
    ("words", "--prefix", "111", "--cap", "-1"),
])
def test_negative_stages_and_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("ar-iet: ") and err.count("\n") == 1


_INDUCING = {
    "induct": ("induct", "--prefix", "111"),
    "towers": ("towers", "--prefix", "111"),
    "check": ("check", "--all", "--prefix", "111"),
    "render": ("render", "--towers", "--prefix", "111"),
}


@pytest.mark.parametrize("name,cap", [(name, cap) for cap in ("0", "-1") for name in _INDUCING],
                         ids=lambda value: value)
def test_return_cap_is_no_flag_and_no_config_key(capsys, tmp_path, name, cap):
    # the first-return search is bounded by induction.RETURN_CAP alone
    argv = _INDUCING[name]
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--cap", cap])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"ar-iet: error: unrecognized arguments: --cap {cap}"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("return_time_cap = 3\n")
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert (code, out) == (2, "")
    assert err == f"ar-iet: {cfg}:1: unknown key 'return_time_cap'\n"


# --- tower level cap ------------------------------------------------------------

_THIRTY = "123" * 10


@pytest.mark.parametrize("argv", [
    ("towers", "--prefix", _THIRTY, "--stage", "24"),
    ("render", "--towers", "--prefix", _THIRTY, "--stage", "24"),
    ("check", "--all", "--prefix", _THIRTY, "--depth", "24"),
    ("check", "--coding", "--prefix", _THIRTY, "--depth", "24"),
])
def test_tower_stage_over_the_level_cap_is_refused_unbuilt(capsys, monkeypatch, argv):
    import ar_iet.cli as cli

    def never(*args):
        raise AssertionError("a tower stage over the cap was built")

    monkeypatch.setattr(cli, "tower_families", never)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["schema"] == "ar-iet/error/1"
    assert error["code"] == "word-overflow"
    assert error["detail"]["stage"] == "24"
    assert int(error["detail"]["levels"]) > int(error["detail"]["cap"]) == 200_000


@pytest.mark.parametrize("argv", [
    ("towers", "--prefix", _THIRTY, "--stage", "24"),
    ("render", "--towers", "--prefix", _THIRTY, "--stage", "24"),
    ("check", "--all", "--prefix", _THIRTY, "--depth", "24"),
])
def test_stages_are_induced_before_the_level_cap(capsys, monkeypatch, argv):
    # stage 24 is over the level cap, and stage 1 already over a return cap of 1
    monkeypatch.setattr(ar_iet.induction, "RETURN_CAP", 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["code"] == "return-time-cap-exceeded"


def test_induction_check_builds_no_tower(capsys, monkeypatch):
    import ar_iet.cli as cli

    def never(*args):
        raise AssertionError("the induction check built a tower")

    monkeypatch.setattr(cli, "tower_families", never)
    # stage 24 of 1^28 has 19,437,141 tower levels, far over the default cap
    payload = run_json(capsys, "check", "--induction", "--prefix", "1" * 28, "--depth", "24")
    assert payload["selected"] == ["induction"]
    assert payload["targets"][0]["checks"] == {"induction": True}
    assert payload["ok"]


@pytest.mark.parametrize("kinds", [(), ("--all",), ("--induction", "--coding")])
def test_every_check_holds_at_depth_zero(capsys, kinds):
    # the induction check steps the chain to stage 1; coding still reads stage 0
    payload = run_json(capsys, "check", *kinds, "--prefix", "1111", "--depth", "0")
    checks = payload["targets"][0]["checks"]
    assert set(checks) == set(payload["selected"])
    assert all(checks.values()), checks
    assert payload["ok"]


def test_coding_check_induces_only_its_depth(capsys, monkeypatch):
    from ar_iet import induction

    induced = []
    real = induction.induce_step

    def counting(chain, k):
        induced.append(k)
        return real(chain, k)

    monkeypatch.setattr(induction, "induce_step", counting)
    payload = run_json(capsys, "check", "--coding", "--prefix", "1" * 16, "--depth", "14")
    assert payload["ok"]
    # the orbits jump through the chain's stages instead of inducing their own
    assert induced == list(range(1, 15))


@pytest.mark.parametrize("kinds, built", [
    (("--coding",), [8]),
    (("--coding", "--partition"), list(range(9))),
    (("--components",), list(range(9))),
])
def test_check_builds_only_the_tower_stages_it_reads(capsys, monkeypatch, kinds, built):
    import ar_iet.cli as cli
    import ar_iet.towers as towers

    laid, read = [], []
    real_family, real_families = towers.TowerFamily, cli.tower_families

    def laying(stage, *args):
        laid.append(stage)
        return real_family(stage, *args)

    def reading(chain, first, last):
        for family in real_families(chain, first, last):
            read.append(family.stage)
            yield family

    monkeypatch.setattr(towers, "TowerFamily", laying)
    monkeypatch.setattr(cli, "tower_families", reading)
    payload = run_json(capsys, "check", *kinds, "--prefix", "1" * 12, "--depth", "8")
    assert payload["ok"]
    # built, the stages the checks are handed; each family is laid out from
    # the one below it, so every stage from 0 is built once
    assert read == built
    assert laid == list(range(9))


@pytest.mark.parametrize("kind, name", [
    ("partition", "partition_check"), ("adjacency", "adjacency_check"),
    ("components", "level_component_counts"),
])
def test_check_is_false_from_the_first_refuting_stage(capsys, monkeypatch, kind, name):
    import ar_iet.cli as cli

    called = []
    real = getattr(cli, name)

    def refuting_stage_1(f):
        called.append(f.stage)
        result = real(f)
        if f.stage != 1:
            return result
        return {**result, "c": 2} if kind == "components" else replace(result, ok=False)

    monkeypatch.setattr(cli, name, refuting_stage_1)
    payload = run_json(capsys, "check", f"--{kind}", "--prefix", "1213", "--depth", "3")
    assert payload["targets"][0]["checks"] == {kind: False}
    assert not payload["ok"]
    # a refuted check is not run on the later stages
    assert called == [0, 1]


def test_check_holds_one_tower_family_at_a_time(capsys, monkeypatch):
    import ar_iet.towers as towers

    built = []
    real = towers.TowerFamily

    def tracking(stage, *args):
        # the family below, which the checks may still hold, is the only
        # one left while the next is built
        assert sum(ref() is not None for ref in built) <= 1
        family = real(stage, *args)
        built.append(weakref.ref(family))
        return family

    monkeypatch.setattr(towers, "TowerFamily", tracking)
    assert run_json(capsys, "check", "--all", "--prefix", "1" * 12, "--depth", "8")["ok"]
    assert len(built) == 9


def test_coding_check_plans_its_jumps_once_per_target(capsys, monkeypatch):
    import ar_iet.cli as cli

    planned = []
    real = cli.jump_stages

    def counting(chain, n):
        planned.append(n)
        return real(chain, n)

    monkeypatch.setattr(cli, "jump_stages", counting)
    prefixes = ("1" * 16, "1213223322112322")
    payload = run_json(capsys, "check", "--coding", "--prefix", prefixes[0],
                       "--prefix", prefixes[1], "--depth", "12")
    assert [t["checks"] for t in payload["targets"]] == [{"coding": True}] * 2
    # one plan for the nine orbits of a target, as long as its tallest tower
    assert planned == [max(heights_by_matrix(parse_prefix(p)[:12])[-1]) for p in prefixes]


@pytest.mark.parametrize("kind, joined", [
    ("--coding", False), ("--partition", False), ("--adjacency", False),
    ("--components", True),
])
def test_check_joins_projected_towers_only_when_read(capsys, monkeypatch, kind, joined):
    import ar_iet.cli as cli

    counted = []
    real = cli.level_component_counts

    def counting(f):
        counted.append(f.stage)
        return real(f)

    monkeypatch.setattr(cli, "level_component_counts", counting)
    assert run_json(capsys, "check", kind, "--prefix", "1213", "--depth", "3")["ok"]
    # --components joins the member levels of every stage, the others none
    assert counted == ([0, 1, 2, 3] if joined else [])


def test_tower_level_cap_is_word_cap(capsys, tmp_path):
    # stage 2 of 11: heights (4, 3, 2), so 4*4 + 3*3 + 2*2 = 29 levels
    cfg = tmp_path / "run.cfg"
    argv = ("--config", str(cfg), "towers", "--prefix", "11", "--stage", "2")
    cfg.write_text("word_cap = 29\n")
    assert run_json(capsys, *argv)["stage"] == 2
    cfg.write_text("word_cap = 28\n")
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert json.loads(err)["message"] == "stage 2 towers have 29 levels, exceeding cap 28"


# --- fuzzing ------------------------------------------------------------------

def fuzz_value(rng, good, bad):
    """good(rng) with probability 9/10, else one of the bad values."""
    return good(rng) if rng.random() < 0.9 else rng.choice(bad)


def fuzz_prefix(rng):
    letters = "".join(rng.choices("123", k=rng.randint(0, 14)))
    names = ",".join(("I", "II", "III")[int(ch) - 1] for ch in letters)
    return fuzz_value(rng, lambda rng: rng.choice([letters] * 9 + [names]),
                      [letters + "4", "x" + letters, "I,IV"])


def fuzz_rational(rng):
    return fuzz_value(rng, lambda rng: f"{rng.randint(-3, 40)}/{rng.randint(1, 13)}",
                      ["1/0", "x", "2^61", "", "1/-2"])


def fuzz_triple(rng):
    return fuzz_value(
        rng, lambda rng: ",".join(f"{rng.randint(1, 40)}/{rng.randint(1, 9)}" for _ in range(3)),
        ["1,1,1", "0,1,2", "-1,2,3", "1,2", "1/0,1,1", "a,b,c", "7,4,2,1"])


def fuzz_count(rng):
    return fuzz_value(rng, lambda rng: str(rng.randint(1, 12)), ["0", "-1", "-3", "2.5", ""])


def fuzz_quotients(rng):
    return fuzz_value(
        rng, lambda rng: ",".join(str(rng.randint(1, 4)) for _ in range(rng.randint(1, 6))),
        ["0,1", "-1", "", "1,x"])


def fuzz_rules(rng):
    return fuzz_value(rng, lambda rng: "".join(rng.choices("12", k=rng.randint(0, 6))),
                      ["3", "1,2", "x"])


def fuzz_order(rng):
    return fuzz_value(rng, lambda rng: rng.choice([str(o) for o in ORDER_TAGS]),
                      ["fourth", "reversed-", ""])


CONFIG_LINES = ["word_cap = 200", "word_cap = 0", "max_steps = 5",
                "refinement_depth = -1", "seed_triple = 7,4,2", "seed_triple = 1,1,1",
                "l1_threshold = 1/0", "random_seed = 3", "no_such_key = 1", "no equals sign"]


def fuzz_file(rng, tmp_path, dest):
    """A path for a file-name option: a file to read, an output name, or an
    output directory that is a file."""
    if dest == "config":
        path = tmp_path / f"run{rng.randrange(10**6)}.cfg"
        path.write_text("\n".join(rng.sample(CONFIG_LINES, rng.randint(0, 3))) + "\n")
        return str(path)
    if dest == "prefix_file":
        path = tmp_path / f"prefixes{rng.randrange(10**6)}.txt"
        path.write_text("\n".join(fuzz_prefix(rng) for _ in range(rng.randint(0, 3))) + "\n")
        return str(path)
    if dest == "output_dir":
        return rng.choice(["out", "not-a-directory"])
    return rng.choice(["emitted.json", "sub/emitted.csv", "missing.txt/x"])


def subcommands():
    """The subcommand parsers, by name, from the parser's own table."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def fuzz_argv(rng, tmp_path):
    """Random argv built from the parser's own option table: one random
    subcommand with its required options, one choice of each required group
    (a second one with probability 1/20) and each other option with
    probability 1/3 or 2/3, after the global options with probability 1/5."""
    values = {parse_prefix: fuzz_prefix, parse_triple: fuzz_triple, parse_order: fuzz_order,
              int: fuzz_count, _fraction_arg: fuzz_rational, _ks_arg: fuzz_quotients,
              _rules_arg: fuzz_rules}

    def options(parser, chosen, p):
        grouped = {a for g in parser._mutually_exclusive_groups for a in g._group_actions}
        argv = []
        for action in parser._actions:
            if not action.option_strings or isinstance(
                    action, (argparse._HelpAction, argparse._VersionAction)):
                continue
            if action not in chosen and (
                    action.required or rng.random() >= (0.05 if action in grouped else p)):
                continue
            argv.append(action.option_strings[0])
            if action.nargs == 0:
                continue
            if action.choices is not None:
                argv.append(fuzz_value(rng, lambda rng: rng.choice(action.choices),
                                       ["bogus"]))
            elif action.type is None:
                argv.append(fuzz_file(rng, tmp_path, action.dest))
            else:
                argv.append(values[action.type](rng))
        return argv

    name = rng.choice(sorted(subcommands()))
    sub = subcommands()[name]
    chosen = {a for a in sub._actions if a.required}
    for group in sub._mutually_exclusive_groups:
        if group.required and rng.random() < 0.95:
            chosen.add(rng.choice(group._group_actions))
    density = rng.choice((1 / 3, 2 / 3))
    return name, [*options(build_parser(), set(), 1 / 5), name, *options(sub, chosen, density)]


def vacuous_ok(value) -> bool:
    """Whether some object in the payload is "ok": true over no checks."""
    if isinstance(value, list):
        return any(map(vacuous_ok, value))
    if not isinstance(value, dict):
        return False
    empty = any(k in value and not value[k] for k in ("checks", "targets"))
    return (value.get("ok") is True and empty) or any(map(vacuous_ok, value.values()))


class OverBudget(BaseException):
    """Raised by the fuzzer's timer: a BaseException, which `main` lets through."""


# the wall-clock seconds one fuzzed run may take
FUZZ_BUDGET_S = 10


def test_fuzzed_argv_ends_in_a_documented_way(capsys, monkeypatch, tmp_path):
    # every run ends in an answer or a documented exit code, never a
    # traceback or an "ok": true that checked nothing, and within its budget
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not-a-directory").write_text("")
    rng = random.Random("cli-fuzz/1")
    names, codes = set(), set()

    def over_budget(signum, frame):
        raise OverBudget

    previous = signal.signal(signal.SIGALRM, over_budget)
    try:
        for _ in range(400):
            name, argv = fuzz_argv(rng, tmp_path)
            signal.setitimer(signal.ITIMER_REAL, FUZZ_BUDGET_S)
            try:
                code = main(argv)
            except SystemExit as e:  # argparse's usage errors
                code = e.code
            except OverBudget:
                pytest.fail(f"{argv} ran past {FUZZ_BUDGET_S} s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err, argv
            if code == 0 and out.startswith("{"):
                assert not vacuous_ok(json.loads(out)), argv
            names.add(name)
            codes.add(code)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert names == set(subcommands())
    assert codes >= {0, 1, 2}
