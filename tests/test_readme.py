"""The README's examples, run as written.

Each fenced block of `$ kuifje ...` commands runs through `python -m kuifje`
from the repository root, one command after another; each command's stdout
must be exactly the lines the README shows under it, and its exit code the
one the README's exit-code table gives that output: 1 when a `check` line
says FAIL, else 0.  Lines that start with `error:` are the command's stderr
instead, with nothing on stdout, and exit with the table's code for that
error.  A `> file` redirect writes to a temporary directory, and later
commands in the block read the file from there.  The Library block is
executed.
"""

import os
import re
import shlex
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
with open(os.path.join(ROOT, "README.md")) as f:
    README = f.read()

# the exit-code table's code for each kind of `error:` the README shows
ERROR_CODES = {"error: loop annotation is not self-consistent": 4}

BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def _sessions():
    """Each shell block as a list of (argv, expected stdout) pairs."""
    sessions = []
    for lang, body in BLOCKS:
        if lang or not body.startswith("$ kuifje "):
            continue
        commands = []
        lines = body.splitlines()
        while lines:
            line = lines.pop(0)
            while line.endswith("\\"):
                line = line[:-1] + lines.pop(0)
            out = []
            while lines and not lines[0].startswith("$ "):
                out.append(lines.pop(0))
            commands.append((shlex.split(line[2:])[1:], out))
        sessions.append(commands)
    return sessions


SESSIONS = _sessions()


def test_every_readme_command_is_found():
    assert sum(len(s) for s in SESSIONS) == README.count("\n$ kuifje ") > 0


@pytest.mark.parametrize(
    "session",
    SESSIONS,
    ids=[f"{s[0][0][0]}-{os.path.basename(s[0][0][1])}" for s in SESSIONS],
)
def test_readme_commands(session, tmp_path):
    env = dict(os.environ, QIF_COLOR="0", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    written = {}
    for argv, out in session:
        argv = [written.get(a, a) for a in argv]
        target = None
        if ">" in argv:
            k = argv.index(">")
            target = written[argv[k + 1]] = str(tmp_path / argv[k + 1])
            argv = argv[:k]
        proc = subprocess.run(
            [sys.executable, "-m", "kuifje", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=120,
        )
        stdout = proc.stdout
        if target is not None:
            with open(target, "w") as f:
                f.write(stdout)
            stdout = ""
        want = "".join(line + "\n" for line in out)
        if out and out[0].startswith("error:"):
            (code,) = [c for e, c in ERROR_CODES.items() if out[0].startswith(e)]
            assert (stdout, proc.stderr, proc.returncode) == ("", want, code), argv
            continue
        code = 1 if any(line.startswith("FAIL") for line in out) else 0
        assert (stdout, proc.returncode) == (want, code), (argv, proc.stderr)


def test_readme_library_block(monkeypatch):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
