"""Byte-for-byte pins of the ``monoid``, ``wmonoid``, ``classify``,
``group`` and ``k0`` reports and of the ``--help`` texts.

Each file in ``tests/golden/cli/`` is the transcript of ``sandmon``
invocations: for each, the command line, the exit code, then stdout and
stderr verbatim.  There is one file per ``--json`` report on a
``graphs/*.sg`` file, one per ``k0`` and ``k0 --sandpile-group`` report on
the inputs in ``tests/golden/inputs/`` (the 4x4 grid, K_12, and a
weighted graph with two sinks whose matrix has more rows than columns), one
per ``group`` report on every graph of both directories, in text and
``--json`` (``rose_1_4`` has no sink, the 4x4 grid and K_12 have
monoids of 4**16 and 11**11 elements, and one input has two sinks), and
``help.txt`` holds ``--help`` for the program and every subcommand at 80
columns, in the wording of argparse on Python
3.10 to 3.12 (3.13 lays out usage lines differently).  Error outcomes
(``Inconclusive``, ``error[NoSink]``, ``error[NotConical]``) are pinned
like any other.  ``wmonoid`` runs with
``--cap 1000``: on the infinite no-sinks monoid of ``cycle_2_2_1`` the
normal forms grow with the element count, and the default cap of 10**4
takes most of a minute there instead of under a second.  After a deliberate report
change, rewrite the files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from sandmon import cli
from sandmon.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

COMMANDS = {
    "monoid": ("monoid",),
    "wmonoid-with-sinks": ("wmonoid", "--variant", "with-sinks", "--cap", "1000"),
    "wmonoid-no-sinks": ("wmonoid", "--variant", "no-sinks", "--cap", "1000"),
    "classify": ("classify",),
    "k0-sandpile-group": ("k0", "--sandpile-group"),
}
K0_COMMANDS = {
    "k0": ("k0",),
    "k0-sandpile-group": ("k0", "--sandpile-group"),
}
GROUP_ARGVS = (("group",), ("group", "--json"))
SUBCOMMANDS = ("check", "stabilize", "monoid", "wmonoid", "group", "k0", "realize",
               "classify", "prime", "cycle-suite", "export-dot")


def cases() -> dict:
    """Golden file name -> the argvs it records, with graph paths relative to
    the root."""
    out = {"help.txt": [["--help"]] + [[c, "--help"] for c in SUBCOMMANDS]}
    for graph in sorted((ROOT / "graphs").glob("*.sg")):
        for key, (command, *flags) in COMMANDS.items():
            argv = [command, f"graphs/{graph.name}", *flags, "--json"]
            out[f"{graph.stem}.{key}.txt"] = [argv]
    for graph in sorted((ROOT / "tests" / "golden" / "inputs").glob("*.sg")):
        for key, (command, *flags) in K0_COMMANDS.items():
            argv = [command, f"tests/golden/inputs/{graph.name}", *flags, "--json"]
            out[f"{graph.stem}.{key}.txt"] = [argv]
    for graph in sorted([*(ROOT / "graphs").glob("*.sg"),
                         *(ROOT / "tests" / "golden" / "inputs").glob("*.sg")]):
        path = graph.relative_to(ROOT).as_posix()
        out[f"{graph.stem}.group.txt"] = [
            [command, path, *flags] for command, *flags in GROUP_ARGVS
        ]
    return out


def run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    resolved = [str(ROOT / a) if a.endswith(".sg") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            rc = main(resolved)
        except SystemExit as exc:  # --help
            rc = exc.code
    return (
        f"$ sandmon {' '.join(argv)}\n"
        f"exit {rc}\n"
        f"--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}"
    )


def transcript(argvs) -> str:
    return "".join(run(argv) for argv in argvs)

def test_golden_files_cover_every_sample_graph():
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_report_matches_the_golden_file(name):
    if name == "help.txt" and sys.version_info >= (3, 13):
        pytest.skip("argparse on Python 3.13 lays out usage lines differently")
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert transcript(cases()[name]) == expected


def test_reports_render_as_json_dumps_does(monkeypatch):
    """Every --json payload behind the golden transcripts renders as
    ``json.dumps(payload, indent=2, sort_keys=True)`` does, and no report
    goes through ``json.dumps``."""
    payloads = []
    emit = cli._emit

    def recording(args, payload, text_lines):
        if args.json:
            payloads.append(payload)
        emit(args, payload, text_lines)

    def refuse(*args, **kwargs):
        raise AssertionError("a report went through json.dumps")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_emit", recording)
        patch.setattr(json, "dumps", refuse)
        for argvs in cases().values():
            transcript(argvs)
    assert payloads
    for payload in payloads:
        assert cli.render_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argvs in cases().items():
        (GOLDEN / name).write_text(transcript(argvs), encoding="utf-8")
        print(f"wrote {GOLDEN / name}")
