"""Command-line interface: exact outputs, exit codes, and determinism."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def cli(*args, hash_seed="0", stdin=None):
    env = dict(os.environ, QIF_COLOR="0", PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "kuifje.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    return proc


def corpus(name):
    return os.path.join("corpus", name)


# ---- wp


def test_wp_table_output_exact():
    p = cli("wp", corpus("branch_assign.kuif"))
    assert p.returncode == 0
    assert p.stdout == "[a or b] MAX [a or not b]\n"
    assert p.stderr == ""


def test_wp_json_output():
    p = cli("wp", corpus("branch_assign.kuif"), "--format", "json")
    assert p.returncode == 0
    assert json.loads(p.stdout) == {"pre": "[a or b] MAX [a or not b]"}


def test_wp_no_simplify_keeps_dominated_atoms():
    p = cli("wp", corpus("branch_assign.kuif"), "--no-simplify")
    assert p.returncode == 0
    assert p.stdout == (
        "[a or b] MAX [a or not b] MAX [b and not a] MAX [not a and not b]\n"
    )


def test_wp_explicit_post_overrides():
    p = cli("wp", corpus("branch_assign.kuif"), "--post", "[b]")
    assert p.returncode == 0
    assert p.stdout == "[a or b]\n"


def test_wp_show_trace():
    p = cli("wp", corpus("skip_loop.kuif"), "--show-trace")
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert lines[0] == "# after print x mod 2"
    assert lines[1].startswith("#   [x = 0 or x = 1]")
    assert lines[2] == "# after while x < 0 do"
    assert lines[-1] == (
        "[x = 0 or x = 1] MAX [x = 0 or x = 3] "
        "MAX [x = 1 or x = 2] MAX [x = 2 or x = 3]"
    )


# ---- run


def test_run_table_output_exact():
    p = cli(
        "run",
        corpus("branch_assign.kuif"),
        "--prior",
        "product a:{true:3/10,false:7/10} b:{true:3/10,false:7/10}",
    )
    assert p.returncode == 0
    assert p.stdout == (
        "7/10:\n"
        "  a=false b=false : 7/10\n"
        "  a=false b=true : 3/10\n"
        "3/10:\n"
        "  a=true b=true : 1\n"
    )


def test_run_prior_file():
    p = cli(
        "run",
        corpus("branch_assign.kuif"),
        "--prior",
        os.path.join("corpus", "priors", "secret_pair_37.prior"),
    )
    assert p.returncode == 0
    assert p.stdout.splitlines()[0] == "7/10:"


def test_run_json_hyper_shape():
    p = cli("run", corpus("threshold_print.kuif"), "--prior", "uniform",
            "--format", "json")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    weights = [entry["weight"] for entry in doc["hyper"]]
    assert weights == ["2/5", "3/5"]
    first = doc["hyper"][0]["inner"]
    assert [row["state"]["x"] for row in first] == [0, 1, 2, 3]
    assert {row["prob"] for row in first} == {"1/4"}


# ---- eval, including the hyper json round-trip


def test_eval_on_prior():
    p = cli(
        "eval",
        corpus("threshold_print.kuif"),
        "--gain",
        "MAX w in 0..9: [x = w]",
        "--prior",
        "uniform",
    )
    assert p.returncode == 0
    assert p.stdout == "1/10\n"


def test_eval_hyper_roundtrip(tmp_path):
    out = cli("run", corpus("threshold_print.kuif"), "--prior", "uniform",
              "--format", "json")
    hyper_file = tmp_path / "h.json"
    hyper_file.write_text(out.stdout)
    p = cli(
        "eval",
        corpus("threshold_print.kuif"),
        "--gain",
        "MAX w in 0..9: [x = w]",
        "--hyper",
        str(hyper_file),
    )
    assert p.returncode == 0
    assert p.stdout == "1/5\n"
    pj = cli(
        "eval",
        corpus("threshold_print.kuif"),
        "--gain",
        "MAX w in 0..9: [x = w]",
        "--hyper",
        str(hyper_file),
        "--format",
        "json",
    )
    assert json.loads(pj.stdout) == {"value": "1/5"}


def test_eval_rejects_hyper_outside_domains(tmp_path):
    doc = {
        "hyper": [
            {"weight": "1", "inner": [{"state": {"x": 99}, "prob": "1"}]}
        ]
    }
    hyper_file = tmp_path / "bad.json"
    hyper_file.write_text(json.dumps(doc))
    p = cli(
        "eval",
        corpus("threshold_print.kuif"),
        "--gain",
        "[x = 0]",
        "--hyper",
        str(hyper_file),
    )
    assert p.returncode == 2
    assert p.stdout == ""
    assert "error:" in p.stderr


# ---- check


def test_check_passes_with_random_priors():
    p = cli(
        "check", corpus("branch_assign.kuif"), "--priors", "random:4:7",
        "--verbose",
    )
    assert p.returncode == 0
    assert p.stdout == (
        "PASS random #0 : value = 23/27\n"
        "PASS random #1 : value = 15/17\n"
        "PASS random #2 : value = 19/25\n"
        "PASS random #3 : value = 22/35\n"
        "PASS pre = [a or b] MAX [a or not b]\n"
        "checked 4 priors: 4 agree, 0 disagree\n"
    )


@pytest.mark.parametrize(
    "source, pre, priors",
    [
        # at n = 2 both A[n] tests fail; a failing test is false, also as `!=`
        (
            "hidden A : array[2] of int[0..1]\nhidden n : int[0..2]\nskip\n"
            "@post { [A[n] != 1] MAX [n = 2] }\n",
            "[A[n] != 1] MAX [n = 2]",
            12,
        ),
        # at n = 2 the slice A[n + 1:] is out of range, so the test fails and
        # is false even under `not`; the expansion under the write must too
        (
            "hidden A : array[2] of int[0..2]\nhidden n : int[0..2]\nA[0] := n\n"
            "@post { [not (1 in A[n + 1:])] }\n",
            "[1 notin A[1 + n:]]",
            27,
        ),
        # a boolean equality between a variable and a test is one literal,
        # false under either polarity where a read in the test fails
        (
            "hidden A : array[2] of int[0..2]\nhidden n : int[0..1]\n"
            "hidden b : bool\nskip\n@post { [b = (A[n] = 0)] }\n",
            "[(A[n] = 0) = b]",
            36,
        ),
        # a compound test too: at n = 2 the post is 0 whatever b is, though
        # `not (A[n] = 0 and n < 2)` holds there
        (
            "hidden A : array[2] of int[0..1]\nhidden n : int[0..2]\n"
            "hidden b : bool\nskip\n@post { [b = (A[n] = 0 and n < 2)] }\n",
            "[(A[n] = 0 and n < 2) = b]",
            24,
        ),
        # `!=` under a write, which expands the slice into a compound test;
        # at n = 3 the slice fails, and the comparison is false there
        (
            "hidden A : array[2] of int[0..2]\nhidden n : int[0..3]\n"
            "hidden b : bool\nA[1] := A[0]\n@post { [b != (1 in A[n:])] }\n",
            "[((1 in A[n:] or not 1 in A[n:]) and (not (1 in A[n:] or not 1 in A[n:]) "
            "or (n <= 0 and (0 = 1 and 1 = A[0] or not 0 = 1 and 1 = A[0]) or n <= 1 "
            "and (1 = 1 and 1 = A[0] or not 1 = 1 and 1 = A[1])))) != b]",
            72,
        ),
    ],
    ids=[
        "not-equal",
        "negated-slice-under-write",
        "boolean-equality",
        "boolean-equality-compound-test",
        "boolean-inequality-under-write",
    ],
)
def test_check_with_failing_reads_in_the_post(tmp_path, source, pre, priors):
    prog = tmp_path / "probe.kuif"
    prog.write_text(source)
    p = cli("check", str(prog))
    assert p.returncode == 0, p.stdout
    assert p.stdout == (
        f"PASS pre = {pre}\nchecked {priors} priors: {priors} agree, 0 disagree\n"
    )


def test_check_exhaustive_quiet_by_default():
    p = cli("check", corpus("branch_assign.kuif"), "--priors", "exhaustive")
    assert p.returncode == 0
    assert p.stdout == (
        "PASS pre = [a or b] MAX [a or not b]\n"
        "checked 4 priors: 4 agree, 0 disagree\n"
    )


def test_check_unsound_mode_fails():
    p = cli(
        "check",
        corpus("branch_assign.kuif"),
        "--unsound-no-branch-leak",
        "--prior",
        "product a:{true:3/10,false:7/10} b:{true:3/10,false:7/10}",
    )
    assert p.returncode == 1
    assert p.stdout == (
        "FAIL product a:{true:3/10,false:7/10} b:{true:3/10,false:7/10} : "
        "pre = 51/100, post = 79/100\n"
        "FAIL pre = [a or b] MAX [not a and not b]\n"
        "checked 1 priors: 0 agree, 1 disagree\n"
    )


# ---- error reporting and exit codes


def test_parse_error_exit_2(tmp_path):
    f = tmp_path / "bad.kuif"
    f.write_text("hidden x : int[0..3]\nMAX w in 3..1: [x = w]\n")
    p = cli("wp", str(f))
    assert p.returncode == 2
    assert p.stderr == "error: 2:1: expected a statement, found 'MAX'\n"
    assert p.stdout == ""


@pytest.mark.parametrize(
    "expr, where",
    [
        ("(" * 200 + "x" + ")" * 200, "2:73"),  # the 66th parenthesis
        (" + ".join(["x"] * 1500), "2:797"),  # the 198th `+`
    ],
    ids=["nested-parentheses", "flat-sum"],
)
@pytest.mark.parametrize("command", ["run", "wp", "check"])
def test_too_deep_expression_exit_2(tmp_path, command, expr, where):
    f = tmp_path / "deep.kuif"
    f.write_text(f"hidden x : int[0..3]\nprint {expr}\n@post {{ [x = 1] }}\n")
    args = ("--prior", "uniform") if command == "run" else ()
    p = cli(command, str(f), *args)
    assert p.returncode == 2
    assert p.stderr == f"error: {where}: nesting deeper than 200 levels\n"
    assert p.stdout == ""


@pytest.mark.parametrize(
    "body, post",
    [
        ("print " + "(" * 65 + "x" + ")" * 65, "[x = 1]"),
        ("print " + " + ".join(["x"] * 198), "[x = 1]"),
        ("skip", " PLUS ".join(["[x = 1]"] * 195)),
    ],
    ids=["nested-parentheses", "flat-sum", "gain-chain"],
)
@pytest.mark.parametrize("command", ["run", "wp", "check"])
def test_deepest_accepted_input_runs(tmp_path, command, body, post):
    f = tmp_path / "deep.kuif"
    f.write_text(f"hidden x : int[0..3]\n{body}\n@post {{ {post} }}\n")
    args = ("--prior", "uniform") if command == "run" else ()
    p = cli(command, str(f), *args)
    assert p.returncode == 0, p.stderr
    assert p.stderr == ""


def test_unbounded_loop_exit_3(tmp_path):
    f = tmp_path / "spin.kuif"
    f.write_text(
        "hidden x : int[0..3]\nwhile x < 4 do\n  x := x mod 4\nod\n"
        "@post { MAX w in 0..3: [x = w] }\n"
    )
    p = cli("wp", str(f), "--loop-bound", "40")
    assert p.returncode == 3
    assert p.stderr == (
        "error: loop at line 2 does not provably exit within 40 iterations "
        "on the declared state space; annotate it or raise the loop bound\n"
    )


def test_bad_invariant_exit_4(tmp_path):
    f = tmp_path / "badinv.kuif"
    f.write_text(
        "hidden x : int[0..3]\nhidden n : int[0..3]\n"
        "n := 0;\nwhile n != x invariant { [n = 0] } do\n  n := n + 1\nod\n"
        "@post { MAX w in 0..3: [x = w] }\n"
    )
    p = cli("wp", str(f))
    assert p.returncode == 4
    lines = p.stderr.splitlines()
    # the whole line pins the group order and the falsifier's draws
    assert lines[0] == (
        "error: loop annotation is not self-consistent: on the reachable prior "
        "Dist({{x=2 n=2}: 1}) the annotation is worth 0 but one loop step is worth 1"
    )
    assert lines[1] == (
        "  needed: [n = 0] == [n != x] AND pre(body, annotation) "
        "PLUS [not (n != x)] AND post"
    )


def test_missing_file_exit_2():
    p = cli("wp", "corpus/no_such_program.kuif")
    assert p.returncode == 2
    assert p.stderr.startswith("error:")


_NO_PROB_CELL = {"hyper": [{"weight": "1", "inner": [{"state": {"x": 0}}]}]}


@pytest.mark.parametrize(
    "args, hyper_text, named",
    [
        (("run", "--prior", "x=1 : abc"), None, "'abc'"),
        (("run", "--prior", "x=zz : 1"), None, "'zz'"),
        (("run", "--prior", "x=1 : 1/0"), None, "'1/0'"),
        (("run", "--prior", "product x:{1:1/2,2:xx}"), None, "'xx'"),
        (("eval", "--gain", "[x = 0]"), json.dumps(_NO_PROB_CELL), "'prob'"),
        (("eval", "--gain", "[x = 0]"), "not json {", "h.json"),
    ],
)
def test_malformed_prior_or_hyper_exit_2(tmp_path, args, hyper_text, named):
    command, *rest = args
    if hyper_text is not None:
        hyper_file = tmp_path / "h.json"
        hyper_file.write_text(hyper_text)
        rest += ["--hyper", str(hyper_file)]
    p = cli(command, corpus("threshold_print.kuif"), *rest)
    assert p.returncode == 2
    assert p.stderr.startswith("error:")
    assert named in p.stderr.splitlines()[0]
    assert "Traceback" not in p.stderr
    assert p.stdout == ""


# ---- determinism: identical bytes under different hash seeds


@pytest.mark.parametrize(
    "args",
    [
        ("wp", "corpus/threshold_print.kuif"),
        ("wp", "corpus/mark_slot.kuif", "--no-simplify"),
        ("run", "corpus/threshold_print.kuif", "--prior", "uniform",
         "--format", "json"),
        ("check", "corpus/branch_assign.kuif", "--priors", "random:3:11",
         "--verbose"),
    ],
)
def test_byte_identical_across_hash_seeds(args):
    a = cli(*args, hash_seed="1")
    b = cli(*args, hash_seed="923874")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout  # non-empty
