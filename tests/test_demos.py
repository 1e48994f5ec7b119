"""Smoke tests for the demo scripts and the README's examples: each runs to
completion on its own, with a RuntimeWarning as an error."""
from __future__ import annotations

import glob
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fedshapley import cli
from fedshapley.cli import config_from_dict

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_all_five_demos_are_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def fenced(language: str) -> str:
    """The README's one fenced block of ``language``."""
    (block,) = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(),
                          re.MULTILINE | re.DOTALL)
    return block


def test_the_readme_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced("python"), str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_the_readme_config_parses():
    cfg = config_from_dict(json.loads(fenced("json")), README)
    assert [entry["name"] for entry in cfg.estimators] == ["mr", "gtg"]


def test_the_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    # each `fedshapley ...` line of the README, in order, through cli.main,
    # against the README's config as exp.json, in a fresh directory; a glob
    # is expanded as a shell would.  rounds is lowered from 10 to 1: compare
    # retrains 2^10 models for the ground truth, which took about 5.6 s at 10
    # rounds and keeps the test under 1 s at 1 (2-core Xeon).
    blocks = re.findall(r"^```bash\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines() if line.startswith("fedshapley ")]
    assert [line[1] for line in lines] == ["simulate", "evaluate", "compare", "report"]
    config = json.loads(fenced("json"))
    config["rounds"] = 1
    monkeypatch.chdir(tmp_path)
    Path("exp.json").write_text(json.dumps(config))
    for line in lines:
        argv = [path for arg in line[1:]
                for path in (sorted(glob.glob(arg)) if "*" in arg else [arg])]
        assert cli.main(argv) == 0, (line, capsys.readouterr().err)
    assert "gtg" in capsys.readouterr().out  # the report's table
