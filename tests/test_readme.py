"""README's Python examples must run as written, and its CLI transcripts
must print what they show."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from mospop.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
FENCED = re.findall(r"^```(\w*)\n(.*?)^```", TEXT, re.M | re.S)
BLOCKS = [code for lang, code in FENCED if lang == "python"]


def _transcripts() -> list[tuple[str, str]]:
    """(command, stdout) for each `$ mospop` line of a plain ``` block that
    is followed by output; a trailing backslash continues a command."""
    found = []
    for block in (code for lang, code in FENCED if not lang):
        block = block.replace("\\\n", " ")
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            command, _, out = chunk.partition("\n")
            out = out.rstrip("\n")
            if command.startswith("$ mospop ") and out:
                found.append((command[2:], out + "\n"))
    return found


TRANSCRIPTS = _transcripts()


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=lambda c: c.splitlines()[0])
def test_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


def test_readme_shows_five_transcripts():
    assert [shlex.split(c)[1] for c, _ in TRANSCRIPTS] == [
        "classify", "fixed-points", "stability", "simulate", "simplex"]


@pytest.mark.parametrize("command, want", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_transcript_prints_what_it_shows(command, want):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(command)[1:]) == 0
    assert out.getvalue() == want
