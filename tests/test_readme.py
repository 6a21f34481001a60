"""README's walkthrough runs as written: its snippets, its scenario and its commands."""

import re
import shlex
from pathlib import Path

from audiozoom.cli import _SETTINGS, main

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _section(title: str) -> list:
    # (language, body) of each fenced block under the "## title" heading.
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return FENCE.findall(text[start : end if end >= 0 else None])


def test_command_line_walkthrough_and_library_use(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    blocks = _section("Command line")
    # The scenario names the WAVs that the speech_like snippet writes.
    (snippet,) = [body for lang, body in blocks if lang == "python" and "speech_like" in body]
    exec(snippet, {})
    (scenario,) = [body for lang, body in blocks if lang == ""]
    Path("scene.txt").write_text(scenario, encoding="utf-8")
    commands = [
        shlex.split(line)
        for lang, body in blocks
        if lang == "sh"
        for line in body.splitlines()
        if line.startswith("audiozoom ")
    ]
    assert [argv[1] for argv in commands] == ["simulate", "zoom", "zoom", "eval"]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert Path("out/run_mixture.wav").exists() and Path("out/auto_sweep.csv").exists()
    capsys.readouterr()

    (library,) = [body for lang, body in _section("Library use") if lang == "python"]
    exec(library, {})
    assert "sinr_gain_db = " in capsys.readouterr().out


def test_flag_table_names_every_pipeline_flag():
    text = README.read_text(encoding="utf-8")
    start = text.index("Pipeline flags, shared by `zoom`")
    table = text[start : text.index("\n\n", text.index("\n|", start))]
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    named = [flag for row in rows for flag in re.findall(r"--[\w-]+", row)]
    assert sorted(named) == sorted(flag for _, flag, _, _ in _SETTINGS)
