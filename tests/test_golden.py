"""Golden CLI corpus: every subcommand's full output, compared byte for byte.

Each case runs `ar_iet.cli.main` in-process and compares a transcript of
its exit code, stdout and stderr with `tests/golden/<name>.txt`; a usage
error's `SystemExit` code is its exit code, and `COLUMNS` is pinned so that
argparse wraps the usage line the same way on every terminal.  Files a
case writes (CSV, SVG) are compared with `tests/golden/<name>.<file>`; the
SVG version comment is dropped on both sides, and the output directory in
stdout reads `<out>`.

The golden files pin the current behaviour.  Regenerate them only for an
intended output change, with `PYTHONPATH=src python tests/test_golden.py`.
"""
from __future__ import annotations

import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest

from ar_iet.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, files the run writes under the output directory)
CASES = {
    "gasket": (["gasket", "--triple", "13,7,4", "--steps", "10"], ()),
    "gasket-one-step": (["gasket", "--triple", "10,4,1", "--steps", "1"], ()),
    "gasket-inadmissible": (["gasket", "--triple", "2,4,7"], ()),
    "words-a3": (["words", "--prefix", "1121", "--alphabet", "a3"], ()),
    "words-a9-mult": (["words", "--prefix", "1131", "--alphabet", "a9",
                       "--multiplicative"], ()),
    "words-overflow": (["words", "--prefix", "111111", "--cap", "10"], ()),
    "orbit-csv": (["orbit", "--triple", "7,4,2", "--point", "6", "--length", "40",
                   "--csv", "orbit.csv"], ("orbit.csv",)),
    "orbit-sampled": (["orbit", "--prefix", "1111", "--length", "30",
                       "--partition", "three"], ()),
    "induct": (["induct", "--prefix", "12311", "--steps", "3"], ()),
    "towers": (["towers", "--prefix", "1111", "--stage", "2"], ()),
    "towers-reversed-third": (["towers", "--prefix", "1111", "--stage", "2",
                               "--order", "reversed-third"], ()),
    "check-two-prefixes": (["check", "--all", "--prefix", "1213", "--prefix", "3121",
                            "--depth", "3"], ()),
    "check-reversed": (["check", "--all", "--prefix", "11111111", "--depth", "4",
                        "--order", "reversed-second"], ()),
    "check-induction-depth0": (["check", "--induction", "--prefix", "111",
                                "--depth", "0"], ()),
    "check-not-in-gasket": (["check", "--all", "--prefix=", "--depth", "3"], ()),
    "check-malformed-prefix": (["check", "--all", "--prefix", "1^12", "--depth", "8"], ()),
    "check-prefix-file": (["check", "--all", "--prefix-file",
                           str(GOLDEN / "check-prefix-file.prefixes"), "--depth", "3"], ()),
    "experiment-xi": (["experiment", "--xi", "--ks", "1,2,1,1,3",
                       "--rules", "12111"], ()),
    "experiment-twm": (["experiment", "--twm", "--prefix", "1" * 10], ()),
    "experiment-eigen": (["experiment", "--eigen", "--prefix", "1" * 30,
                          "--theta", "1/2"], ()),
    "experiment-two-measure": (["experiment", "--two-measure", "--ks", "1,1,1",
                                "--rules", "111", "--length", "300"], ()),
    "config-two-measure": (["--config", str(GOLDEN / "config.cfg"), "experiment",
                            "--two-measure", "--ks", "1,1,1", "--rules", "111",
                            "--length", "300"], ()),
    "config-birkhoff": (["--config", str(GOLDEN / "config.cfg"), "experiment",
                         "--birkhoff", "--prefix", "1111", "--length", "50"], ()),
    "config-invalid-seed": (["--config", str(GOLDEN / "invalid-seed.cfg"), "gasket",
                             "--prefix", "1111"], ()),
    "experiment-birkhoff": (["experiment", "--birkhoff", "--triple", "7,4,2",
                             "--point", "6", "--length", "100", "--csv", "b.csv"],
                            ("b.csv",)),
    "render-induction": (["render", "--induction", "--prefix", "1111",
                          "--stage", "2"], ()),
    "render-layout": (["render", "--layout", "--triple", "7,4,2"], ()),
    "render-towers": (["render", "--towers", "--prefix", "1111", "--stage", "3",
                       "--out", "tow.svg"], ("tow.svg",)),
}

_SVG_VERSION = re.compile(r"^<!-- ar-iet .* -->\n", re.MULTILINE)


def _run(argv: list[str], out_dir: Path) -> str:
    """The transcript of one in-process run: exit code, stdout, stderr."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(["--output-dir", str(out_dir), *argv])
        except SystemExit as e:
            code = e.code
    stdout = _SVG_VERSION.sub("", out.getvalue()).replace(str(out_dir), "<out>")
    return f"exit {code}\n--- stdout\n{stdout}--- stderr\n{err.getvalue()}"


def _files(out_dir: Path, names) -> dict[str, str]:
    return {name: _SVG_VERSION.sub("", (out_dir / name).read_text()) for name in names}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    argv, names = CASES[name]
    transcript = _run(argv, tmp_path)
    assert transcript.encode() == (GOLDEN / f"{name}.txt").read_bytes()
    for file, text in _files(tmp_path, names).items():
        assert text.encode() == (GOLDEN / f"{name}.{file}").read_bytes(), file


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, names) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.txt").write_bytes(_run(argv, Path(tmp)).encode())
            for file, text in _files(Path(tmp), names).items():
                (GOLDEN / f"{name}.{file}").write_bytes(text.encode())
    sys.exit(0)
