"""Command-line interface: exact outputs, exit codes, and determinism."""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import soundness
from kuifje import check_program, parse_program
from kuifje.cli import _check_priors, _hyper_json, _post_value, build_parser, main
from kuifje.core import ArrayDomain, BoolDomain, Dist, Hyper, IntRange
from kuifje.gain import GainEvaluator, random_weights
from programs import posts, programs

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def cli(*args, hash_seed="0", stdin=None, module="kuifje.cli", python=sys.executable):
    env = dict(os.environ, QIF_COLOR="0", PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [python, "-m", module, *args],
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


def test_wp_and_check_keep_an_atom_whose_zero_factor_shields_a_failing_read(
    tmp_path,
):
    # at b = 0 and n = 2 the first atom is 1: b shields z[n], past the end
    f = tmp_path / "shielded.kuif"
    f.write_text(
        "hidden b : int[0..1]\n"
        "hidden z : array[2] of int[0..1]\n"
        "hidden n : int[0..2]\n"
        "skip\n"
        "@post { (1 + b * z[n]) MAX 2 * [n < 2] }\n"
    )
    p = cli("wp", str(f))
    assert (p.returncode, p.stdout) == (0, "1 + b * z[n] MAX 2 * [n < 2]\n")
    p = cli("check", str(f))
    assert p.returncode == 0, p.stdout
    assert p.stdout.endswith("checked 24 priors: 24 agree, 0 disagree\n")


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


WP_DIGESTS = {
    # SHA-256 of `wp` stdout on each corpus program with a @post, and of
    # `wp --force-unfold` on each one with an annotated loop
    ("branch_assign.kuif", ()): "67a92f9c8cb8591693ce66afb743d6453b0fc53e420237062dd7083c44972c2b",
    ("clamp_parity.kuif", ()): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ("compose_leaks_small.kuif", ()): "10a8bd8e278ac0e8e84272fda95654b24a3ca4c0ec5c6250e61253c70f4525be",
    ("halve_then_guess.kuif", ()): "5f46c308a434438dc599b76339ed0f86316944bf5b3549834a87157de1409858",
    ("mark_slot.kuif", ()): "10a4700a7b47e5889920a2b48a7e95cad939ef70e4626b284aa3462dfcd93bae",
    ("max_no_branch.kuif", ()): "795287d3a36415c00462b9b2fb6284e07b597179c7cdf73ed97d4a68bcca277a",
    ("reveal_low_bits_small.kuif", ()): "03e40579901d2795daf58d9a591f79159d4214844591bca76cc16db2dad86c32",
    ("reveal_max_value.kuif", ()): "795287d3a36415c00462b9b2fb6284e07b597179c7cdf73ed97d4a68bcca277a",
    ("reveal_mod4_small.kuif", ()): "bf37cc2cc64846d239fb31ba6b8e9bf75407bf6749b208b1a143402f4f7323cd",
    ("search_early_exit.kuif", ()): "c3691219a7216e87e53121dd6f20b69aaf6250db5cb0f15d2a819eb919e9adbb",
    ("search_full_scan.kuif", ()): "c3691219a7216e87e53121dd6f20b69aaf6250db5cb0f15d2a819eb919e9adbb",
    ("search_with_flag.kuif", ()): "84d3d83ee76c478e237b9cfad1d099d6f5ca88cb67827f6c61e55bf8dbba277e",
    ("sell_secret.kuif", ()): "5f7b2acdbe31d24b1025e2726307d92553d0a6ace937a3852159d40410ac3139",
    ("skip_loop.kuif", ()): "9f0dc5830a3fffb25fcbacd199107f72f1327529673e1021b8a47e2f079c7b9c",
    ("threshold_print.kuif", ()): "dede1dfc73c2e1f7477fea071925fae961e5e514a5dd431165c058a51af74d2d",
    ("max_no_branch.kuif", ("--force-unfold",)): "795287d3a36415c00462b9b2fb6284e07b597179c7cdf73ed97d4a68bcca277a",
    ("reveal_max_value.kuif", ("--force-unfold",)): "3399987c412d0c084d10f4caed8feb462a9a57e93cff4bed6d095ba29c52df43",
    ("search_early_exit.kuif", ("--force-unfold",)): "84d3d83ee76c478e237b9cfad1d099d6f5ca88cb67827f6c61e55bf8dbba277e",
    ("search_full_scan.kuif", ("--force-unfold",)): "84d3d83ee76c478e237b9cfad1d099d6f5ca88cb67827f6c61e55bf8dbba277e",
    # the leak-blind mode and the trace prune forms that plain `wp` does
    # not reach: `simplify` runs on every per-atom pre-gain and on the
    # pre-gain after every statement
    ("branch_assign.kuif", ("--unsound-no-branch-leak",)): "0060c6a35e928209a5791abcaed6e460cd45adf37714e224b588915d5c017518",
    ("clamp_parity.kuif", ("--unsound-no-branch-leak",)): "01ac32037fb98a8c0cdcd228a6f2d933c0ff2a76d2e6b84eec7ed8534c246063",
    ("compose_leaks_small.kuif", ("--unsound-no-branch-leak",)): "a75355d9e73d4523048430ef87baa65f36ac7597597f2cb6b8b1092a641ed7aa",
    ("halve_then_guess.kuif", ("--unsound-no-branch-leak",)): "5f46c308a434438dc599b76339ed0f86316944bf5b3549834a87157de1409858",
    ("mark_slot.kuif", ("--unsound-no-branch-leak",)): "808a03fd15d61353bc317b80421baa42afce11c51df38cd8d3191939c7af9fad",
    ("max_no_branch.kuif", ("--unsound-no-branch-leak",)): "795287d3a36415c00462b9b2fb6284e07b597179c7cdf73ed97d4a68bcca277a",
    ("reveal_low_bits_small.kuif", ("--unsound-no-branch-leak",)): "a75355d9e73d4523048430ef87baa65f36ac7597597f2cb6b8b1092a641ed7aa",
    ("reveal_max_value.kuif", ("--unsound-no-branch-leak",)): "3399987c412d0c084d10f4caed8feb462a9a57e93cff4bed6d095ba29c52df43",
    ("reveal_mod4_small.kuif", ("--unsound-no-branch-leak",)): "a75355d9e73d4523048430ef87baa65f36ac7597597f2cb6b8b1092a641ed7aa",
    ("search_early_exit.kuif", ("--unsound-no-branch-leak",)): "76ae4434da91c095344fe28f91e8eca893ed56c93c59b2521000caad8bb8c516",
    ("search_full_scan.kuif", ("--unsound-no-branch-leak",)): "76ae4434da91c095344fe28f91e8eca893ed56c93c59b2521000caad8bb8c516",
    ("search_with_flag.kuif", ("--unsound-no-branch-leak",)): "76ae4434da91c095344fe28f91e8eca893ed56c93c59b2521000caad8bb8c516",
    ("sell_secret.kuif", ("--unsound-no-branch-leak",)): "3f2a9041759c55b6b0f43c0befae4a7eeb92cd85a501ef4dd5265657cdb507af",
    ("skip_loop.kuif", ("--unsound-no-branch-leak",)): "78c9c47932abdcea2b448b5bef21fa81cc200417d5cfc086ab83a83f7a66e67a",
    ("threshold_print.kuif", ("--unsound-no-branch-leak",)): "ba975a8c377b2da20b389450c6d5a99750a167132b29fef8d45406f1b06b347f",
    # `reveal_low_bits_small.kuif --show-trace` is left out: it does not
    # finish.  The trace simplifies the pre-gain of `print L` before
    # `L := H & 3` is substituted, where L is independent of H, so the PLUS
    # over 16 observation branches keeps every incomparable combination
    ("branch_assign.kuif", ("--show-trace",)): "7c677a4fc7b6623fd9f4d79cca56b20c46b3e1c9db15f297d66b341631c7e5dd",
    ("clamp_parity.kuif", ("--show-trace",)): "59210a5acb683ae7805a3c42e36e91c25ee6cab6e947cc529fd317ae621452c2",
    ("compose_leaks_small.kuif", ("--show-trace",)): "ad87c246ad44ad3deab3b715e0b6a7c2987bc5308c7e80297b2c30f014b0f6ca",
    ("halve_then_guess.kuif", ("--show-trace",)): "8d5a49af96868119fd635a4abbb96e8cef5b115ba91295ac76cb8e57c3773f88",
    ("mark_slot.kuif", ("--show-trace",)): "34e0a2b8f2a03be913dfdc008de2d8bbde9b6610a7481f2714117876d3da6f54",
    ("max_no_branch.kuif", ("--show-trace",)): "67288a77e69e1e30ee7a688fbec3bc558f38abe931e659598fe5fec64c4fc9fd",
    ("reveal_max_value.kuif", ("--show-trace",)): "3b391c857890f6c60f80db20db9daf8ab76be03c0608a39772263345ed5193b2",
    ("reveal_mod4_small.kuif", ("--show-trace",)): "936a4dfdf204745c8c662fa698029f7b3dd054441f5ae78cd3d017f276b724a5",
    ("search_early_exit.kuif", ("--show-trace",)): "05a9508cdeaf7c22e2f6bf420462d6982a99f7224396e17240138b46fe7a8cb3",
    ("search_full_scan.kuif", ("--show-trace",)): "e2e151b9b57fdb26e8bf550c59bc3e60a4a6a70a0c622b056af4786944ab846a",
    ("search_with_flag.kuif", ("--show-trace",)): "fbef9222b496b32cd1c98a332c712b9b4d9c32f19b027733fcd1462970efccaf",
    ("sell_secret.kuif", ("--show-trace",)): "d66de3647aa0a717424b1cc5eefce9ed3ac78b991eeeb317309f1da81486bb62",
    ("skip_loop.kuif", ("--show-trace",)): "635cede0cb445affb312b44c08b2856e848c283a7bde61baa59846363cefa5c2",
    ("threshold_print.kuif", ("--show-trace",)): "297bf95585875fe935375910b427b2eb322bf2cef9655d60e346726b6275475e",
}


@pytest.mark.parametrize(
    "name, flags",
    sorted(WP_DIGESTS),
    ids=[" ".join((n,) + f) for n, f in sorted(WP_DIGESTS)],
)
def test_wp_stdout_digest(name, flags):
    p = cli("wp", corpus(name), *flags)
    assert p.returncode == 0, p.stderr
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == WP_DIGESTS[name, flags]


CHECK_DIGESTS = {
    # SHA-256 of `check --priors random:3:7 --verbose` stdout on each corpus
    # program with a @post, and of the same with `--force-unfold` on each one
    # with an annotated loop: the priors run through the executor that wp's
    # loop analysis warmed
    ("branch_assign.kuif", ()): "33aba5ad71315abeb2e03521f8c3714ed4c7f8c980fa37df33b333f76d3064c4",
    ("clamp_parity.kuif", ()): "bec09e3fe09efa22ad79b8f6c3803e1bbd179f711a4cb998e937a2c18dbd98c9",
    ("compose_leaks_small.kuif", ()): "8c83d6c84130414fe5ae04cd3d1919c11967c6ab83c2e15516cac23d69aec518",
    ("halve_then_guess.kuif", ()): "3f469fe483dd02c394296fd8810c56a9cfbd2ee05f21a06a4d1d5288fce65b4a",
    ("mark_slot.kuif", ()): "86b4f141a34297a42bcd7f61741743998cb0ed4e4beebb8439a1ec4cb9ede860",
    ("max_no_branch.kuif", ()): "db39f4176ea21c3a64fed77f6992215a4d2d37925c3a63ca8df59d8122523cc5",
    ("reveal_low_bits_small.kuif", ()): "047fc8068f0c9e1555bb1c00f0882b0417e252919689e1eff7d83b9f286c0d97",
    ("reveal_max_value.kuif", ()): "db39f4176ea21c3a64fed77f6992215a4d2d37925c3a63ca8df59d8122523cc5",
    ("reveal_mod4_small.kuif", ()): "daf981627cdd82c1b48eb7b07490d49886cbf51737d26ef685b82d71a9a1a822",
    ("search_early_exit.kuif", ()): "0ad4ea774710f98960f9a61febd4ae0b12fb442a5e917a3aac5d953113a9cc06",
    ("search_full_scan.kuif", ()): "8e2dddda6ad599a75f5ca84ea1c348f08029840bfc850f87a441fb2831198b22",
    ("search_with_flag.kuif", ()): "c7918b8116d2da0ef0cdcd1bf106baecfc161dc5dceff1f0bb3dd27a45fb7f4e",
    ("sell_secret.kuif", ()): "bda5bb45385e2121ade655f2ccc59e4903699e2a731887e465a4b035cacab96e",
    ("skip_loop.kuif", ()): "21f122e23711be03223a298e06e1b5117b9238e23dead1815022dd5287152acb",
    ("threshold_print.kuif", ()): "6e3c1c42c118a3209e696120ff7904c547d242a7fde2404e0bfced79fc65b8f5",
    ("max_no_branch.kuif", ("--force-unfold",)): "db39f4176ea21c3a64fed77f6992215a4d2d37925c3a63ca8df59d8122523cc5",
    ("reveal_max_value.kuif", ("--force-unfold",)): "ce48527016368d4f260172c74555027a3e36aad8d4427d475f445f19733fd1eb",
    ("search_early_exit.kuif", ("--force-unfold",)): "bb81ee9dc00f4d95f9125061734f7204f1e74ec9f75079c5a85f01d29c39a4da",
    ("search_full_scan.kuif", ("--force-unfold",)): "c7918b8116d2da0ef0cdcd1bf106baecfc161dc5dceff1f0bb3dd27a45fb7f4e",
}


@pytest.mark.parametrize(
    "name, flags",
    sorted(CHECK_DIGESTS),
    ids=[" ".join((n,) + f) for n, f in sorted(CHECK_DIGESTS)],
)
def test_check_stdout_digest(name, flags):
    p = cli("check", corpus(name), "--priors", "random:3:7", "--verbose", *flags)
    assert p.returncode == 0, p.stderr
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == CHECK_DIGESTS[name, flags]


CHECK_EXHAUSTIVE_DIGESTS = {
    # SHA-256 of `check --priors exhaustive --verbose` stdout: one point
    # prior per declared state, each with its own line
    "branch_assign.kuif": "1d863bf263c154648943d5369ddb8cf8ad723e8dd5534e43626f2aac08dc962c",
    "clamp_parity.kuif": "548e7a55f81e8767b68e8b4a42f4c19b2fb02eaf9c86c3bb5fb215a71d0b1ce5",
    "halve_then_guess.kuif": "34f1df785f10f247e17fa3914345d5820d8c15ad4fb617b251635c7898fd40bf",
    "threshold_print.kuif": "22e3e999bf87cdfac6c1f3ce723719239cb42751a017c6b41b32dc74c5300e63",
    "reveal_mod4_small.kuif": "9b4f465a1f7a359756a4e9986baf897c7f10158b85026c196008936093051bc5",
}


@pytest.mark.parametrize("name", sorted(CHECK_EXHAUSTIVE_DIGESTS))
def test_check_exhaustive_stdout_digest(name):
    for seed in HASH_SEEDS:
        p = cli(
            "check", corpus(name), "--priors", "exhaustive", "--verbose",
            hash_seed=seed,
        )
        assert p.returncode == 0, p.stderr
        digest = hashlib.sha256(p.stdout.encode()).hexdigest()
        assert digest == CHECK_EXHAUSTIVE_DIGESTS[name], seed


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


# Which runtime error a failing run reports: the first failure at the
# earliest top-level statement, in the canonical order of the hyper before
# that statement, states in order within each posterior.  Each program below
# fails on several states, and walking the posteriors in the order they split
# off reports another error.
_PRECEDENCE = "hidden x : int[0..3];\nprint x mod 2;\nx := 3 - x;\n"
_PRECEDENCE_READS = (
    "hidden n : int[0..3];\nhidden A : array[2] of int[0..1];\n"
    "print n mod 2;\nn := 3 - n;\n"
)


@pytest.mark.parametrize(
    "source, flags, code, stderr",
    [
        (_PRECEDENCE + "x := 10 div (x - 1)", (), 2,
         "error: x := -10 leaves the declared domain int[0..3]"),
        (_PRECEDENCE
         + "if x = 0 then while true do skip od else x := 10 div (x - 1) fi",
         ("--loop-bound", "5"), 3,
         "error: loop exceeded 5 iterations; raise the loop bound or add an "
         "invariant"),
        (_PRECEDENCE_READS + "print A[n]", (), 2, "error: A[2] with length 2"),
        (_PRECEDENCE_READS + "if A[n] = 0 then skip else skip fi", (), 2,
         "error: A[2] with length 2"),
        # a slice bound past the array's length is a failing read, not clamped
        ("hidden A : array[2] of int[0..1];\nhidden n : int[0..3];\n"
         "print [1 in A[n:]]", (), 2, "error: slice A[3:2] with length 2"),
    ],
    ids=["domain", "loop bound", "print read", "guard read", "slice read"],
)
def test_run_reports_the_first_failure_in_canonical_order(
    tmp_path, source, flags, code, stderr
):
    f = tmp_path / "fails.kuif"
    f.write_text(source + "\n")
    for fmt in ("table", "json"):
        p = cli("run", str(f), "--prior", "uniform", "--format", fmt, *flags)
        assert (p.returncode, p.stderr, p.stdout) == (code, stderr + "\n", "")


DOMAINS = st.one_of(
    st.builds(
        lambda lo, n: IntRange(lo, lo + n), st.integers(-20, 5), st.integers(0, 6)
    ),
    st.just(BoolDomain()),
    st.builds(
        lambda k, lo: ArrayDomain(k, IntRange(lo, lo + 2)),
        st.integers(1, 3),
        st.integers(-9, 1),
    ),
)


@st.composite
def named_hypers(draw):
    """Names, and a Hyper over values tuples laid out as declarations over
    them: negative integers, booleans and arrays, or no variable at all."""
    domains = draw(st.lists(DOMAINS, max_size=3))
    names = draw(st.permutations(["x", "H", "A", "low_2", "f"]))[: len(domains)]
    values = st.tuples(*(st.sampled_from(d.values()) for d in domains))
    inners = st.dictionaries(values, st.integers(1, 40), min_size=1, max_size=5)
    acc = {}
    groups = st.lists(st.tuples(inners, st.integers(1, 40)), min_size=1, max_size=4)
    for weights, w in draw(groups):
        inner = Dist.from_weights(weights)
        acc[inner] = acc.get(inner, 0) + w
    return names, Hyper.from_weights(acc)


def _ratio(q):
    return f"{q.numerator}/{q.denominator}"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(named_hypers())
def test_hyper_json_matches_json_dumps(case):
    names, hyper = case
    doc = {
        "hyper": [
            {
                "weight": _ratio(w),
                "inner": [
                    {
                        "state": {
                            n: list(x) if isinstance(x, tuple) else x
                            for n, x in zip(names, v)
                        },
                        "prob": _ratio(p),
                    }
                    for v, p in inner.entries
                ],
            }
            for inner, w in hyper.entries
        ]
    }
    assert _hyper_json(hyper, names) == json.dumps(doc, indent=2)


def _full_support_prior(program, rng):
    """Prior-file text giving every declared state a seeded weight in 1..16."""
    from kuifje.core import _fmt_value, all_states

    decls = program.decls
    states = all_states([d.name for d in decls], [d.domain for d in decls])
    weights = [rng.randint(1, 16) for _ in states]
    total = sum(weights)
    return "".join(
        " ".join(f"{n}={_fmt_value(v)}" for n, v in zip(s.names, s.values))
        + f" : {Fraction(w, total)}\n"
        for s, w in zip(states, weights)
    )


def _guessing_gain(program):
    """One-try guessing gain on the program's first scalar variable."""
    from kuifje.core import BoolDomain, IntRange

    for d in program.decls:
        if isinstance(d.domain, BoolDomain):
            return f"[{d.name}] MAX [not {d.name}]"
        if isinstance(d.domain, IntRange):
            return f"MAX w in {d.domain.lo}..{d.domain.hi}: [{d.name} = w]"
    raise AssertionError("program has no scalar variable")


RUN_DIGESTS = {
    # SHA-256 of `run --format json` stdout on each corpus program, and of
    # `eval --hyper` with the guessing gain on that output; "file" is the
    # seeded full-support prior that `_full_support_prior` writes
    ("branch_assign.kuif", "file"): (
        "08655a836161a128fff452f59a4b0c0aa953afaf258992a166e8e6ffd75d2b1b",
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ),
    ("branch_assign.kuif", "uniform"): (
        "78ef984b8b9628d29e4dbec5719070c1a933886775252fbd4c1819cc71875f8f",
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ),
    ("clamp_parity.kuif", "file"): (
        "f9ebec68c86771a359d0b836f1e9e34b2ba9a911d567d4143468035654a81e1a",
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ),
    ("clamp_parity.kuif", "uniform"): (
        "65b94166edb815de0b235d207de60a71c904afa7cfd19d609eb3748d8e7b2556",
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ),
    ("compose_leaks_small.kuif", "file"): (
        "18c86f0c314da21308fd6f78a021207d3636ba37e876edd4e3dfb9abbf173b01",
        "ca0ca0dc48537c27b173b404755dc816fb499f77bb4bf00ca2b7464d0a8d6c19",
    ),
    ("compose_leaks_small.kuif", "uniform"): (
        "8021cd782cc027451298bf44a96036299554954b687316659b7ebfdf93f01f1d",
        "31d98f752e5b9381a4ae94db10564eb93058ca5bbce96009918f7172ff0a4e05",
    ),
    ("halve_then_guess.kuif", "file"): (
        "646e55ef718fe73c72c250487d54809fb2a72cbb722efc847bae60ffef04e938",
        "70874740bda0a25951166815b805ff2731b1cd9cb00156b754462f68d97cb9bd",
    ),
    ("halve_then_guess.kuif", "uniform"): (
        "a18bbe705be4eaf1a5d2ec675e9158684e454fd78f81428d08fe720749cfb7a6",
        "035b4d8c6f956e453f0e654c827e93a5d2a738f9591cd254e9dd4bd00f87c669",
    ),
    ("mark_slot.kuif", "file"): (
        "c76f5b39bbf2fa5e191b1a9d24ec315d77a25b228e22d551c0c50c89a8b7a967",
        "fa7d9d8399116baa93f7166bdcf1d1b82f1a4bba3c090df71f75d5db08c0d40d",
    ),
    ("mark_slot.kuif", "uniform"): (
        "f48a732427842c2c6859584ea2d06e0e32cac768c70553fa241bb1c68df56526",
        "b46522e3c1502ac4adb3a5101c2d43dd58a6115abccb32dbc91ec95cfb8ffbba",
    ),
    ("max_no_branch.kuif", "file"): (
        "fbaf5d2dc57e2d4de58d32df32220b9eeb7bba41dae5adbf498d5b3d9388ff6c",
        "f206c481d758c47180100ab17efe126a78bc133d387cfa887829609d9715f029",
    ),
    ("max_no_branch.kuif", "uniform"): (
        "8b1585a7c8462065186145bc0ea54f9c5d42e7f6c2b4fcaf685db18bc0d1e7bd",
        "1c3ea55e48efd86c893429a6a629a7bb893fd49fa675a0a9d8543b58731eeb03",
    ),
    ("reveal_low_bits.kuif", "file"): (
        "4601fbf93054e5568264eaf8df0c1d5bb6256e4cb696e50f9d308b0385820402",
        "17de667395fc1f40ae731149644a3517afa7d6c9d8ce64878b5acae2c4319964",
    ),
    ("reveal_low_bits.kuif", "uniform"): (
        "0b938bd2f7e78301da52ff4fcadade083c00daac19158d8626ff5a9839eaf604",
        "a6866a3c341481cdbdc10c15e98f1448e5d6e1e5485bebd8293f835a5d0dc7ec",
    ),
    ("reveal_low_bits_small.kuif", "file"): (
        "c463d071b900c4b53d0759d459b5a8e2f7564da6cbbf8e55deef89d414d8e203",
        "e11bff718a8c70a7d47bfb082c3f85d59d7b36c91bdc0da5a2d5933813101248",
    ),
    ("reveal_low_bits_small.kuif", "uniform"): (
        "0f79c1179fcaf54779624b9901f451ff8a924e7ced39386de1dca734504e2e91",
        "93eb24eedf43b048b7225800d0d36b77abc2640b226582c7e95a3618d316a9b2",
    ),
    ("reveal_max_value.kuif", "file"): (
        "0042dd1b070455e8b7035e8cd8efbf33bd18233387792129a9431456fda8f08c",
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ),
    ("reveal_max_value.kuif", "uniform"): (
        "e0093113828ea254fd7ed3c4372f4839425a304b3b89e18e082908f7d8ce17d7",
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ),
    ("reveal_mod4_small.kuif", "file"): (
        "881afecf5ba42c8929df2711b005316b1571c657331ff2579a51ec2acf4368e9",
        "b254701d2fd781d722395517d9b2b241549ef480cef8f9b81bd347904e276df1",
    ),
    ("reveal_mod4_small.kuif", "uniform"): (
        "a2da0de6226092eb03f8f1265ca80e02979cd5417b06e0824a7cd4ed1830e046",
        "f9d4fb450905219eddeffb6e3657039b0f91c9567974ce100216b734500711c7",
    ),
    ("reveal_mod8.kuif", "file"): (
        "abc4d9a4055373872747fd83bb6712974ad2b701bfe7264654370e6e49ec5aa3",
        "02ad4702f627189ea1acba654b8db320fbe864bb352f6e3c25bf4a1c000c42c8",
    ),
    ("reveal_mod8.kuif", "uniform"): (
        "a316393693ab1ec751f3dacc7387fb4b9a8f3b430aea1cc3debd0d60f3b50389",
        "b938b5dbd23830cd791eca2abf2e4361da8edcab363662bd8af5e76bbb96fad6",
    ),
    ("search_early_exit.kuif", "file"): (
        "82a6912bf294675834036db837b18c3eaecd7bbb9528a0f29cf7948abd0be85a",
        "a8d3370402ab0d4e9b6049b60174767437d98ac0c98b9fcb1114090e48a19b0f",
    ),
    ("search_early_exit.kuif", "uniform"): (
        "96b500bd3efea428dc91109235ecc58e7b24751536143472e74cb7cc94e1c2cd",
        "93eb24eedf43b048b7225800d0d36b77abc2640b226582c7e95a3618d316a9b2",
    ),
    ("search_full_scan.kuif", "file"): (
        "b052940ad1fddcafc5779ee5c087b17686d2c9b588070c995b4d6767ccd95b6d",
        "fa1fd3ec5ee9c9c80ae2c7f9b2996bc158eea3dcced7174526b740a22ae4f691",
    ),
    ("search_full_scan.kuif", "uniform"): (
        "ea2d043ed33da3515f52549e514b55162cd9a64dd4e06bdc88033a03395e78be",
        "93eb24eedf43b048b7225800d0d36b77abc2640b226582c7e95a3618d316a9b2",
    ),
    ("search_with_flag.kuif", "file"): (
        "06cf85ff76790635dab259db4152c5a179c645f44a4d18a1316564c77f4f17c7",
        "d784359e630d20ad964e7a8df0541f1107c2463cf964cf54d6a83f105fdac761",
    ),
    ("search_with_flag.kuif", "uniform"): (
        "b998251f54170ee30864549dc943022777d79f2ae4c1a190a8fa1179d4326676",
        "93eb24eedf43b048b7225800d0d36b77abc2640b226582c7e95a3618d316a9b2",
    ),
    ("sell_secret.kuif", "file"): (
        "ef3676745ec161a3ba0f98c78a9503110bd4cfe90fe56472510a661ada2efb00",
        "164e8f4ed13f5c51874982d8f36c74e8cf866efbc8271732e074b7bc4a7988b3",
    ),
    ("sell_secret.kuif", "uniform"): (
        "96b500bd3efea428dc91109235ecc58e7b24751536143472e74cb7cc94e1c2cd",
        "93eb24eedf43b048b7225800d0d36b77abc2640b226582c7e95a3618d316a9b2",
    ),
    ("skip_loop.kuif", "file"): (
        "fdcb67cd95f753dce7872231d30ef2d971057790fe276af909250eeafd1a3087",
        "4bc1e78d7e62da740a121e39db486e1fbbc52942dde8c06f70075cc7e33fd6e1",
    ),
    ("skip_loop.kuif", "uniform"): (
        "545d581988f3bd567036ae0f108dd996a2e287c1b6931b7a4f7f8b71c9230c8a",
        "de7e55cd172f2065828bdd6c2015c5e92fdd6271ab1bd0f30a5e15104e64678d",
    ),
    ("threshold_print.kuif", "file"): (
        "d88402c57f5fed231e347a5c72aa493452abb1fe6c5cece8b95a249bde274cc5",
        "a168b6f327a62e04a21140a7ee332e6906a7665c007e100a1e05267f351c40f0",
    ),
    ("threshold_print.kuif", "uniform"): (
        "9b6f4bc8f973fe1224bc53c1f6aed9acd263d9507310886813ffec6a67f73ed8",
        "035b4d8c6f956e453f0e654c827e93a5d2a738f9591cd254e9dd4bd00f87c669",
    ),

}


@pytest.mark.parametrize(
    "name, prior",
    sorted(RUN_DIGESTS),
    ids=[f"{n} {p}" for n, p in sorted(RUN_DIGESTS)],
)
def test_run_stdout_digest(name, prior, tmp_path, load_program):
    program = load_program(name[: -len(".kuif")])
    spec = prior
    if prior == "file":
        spec = str(tmp_path / "full.prior")
        with open(spec, "w") as f:
            f.write(_full_support_prior(program, random.Random(name)))
    run = cli("run", corpus(name), "--prior", spec, "--format", "json")
    assert run.returncode == 0, run.stderr
    hyper_file = tmp_path / "h.json"
    hyper_file.write_text(run.stdout)
    ev = cli("eval", corpus(name), "--gain", _guessing_gain(program),
             "--hyper", str(hyper_file))
    assert ev.returncode == 0, ev.stderr
    got = tuple(hashlib.sha256(p.stdout.encode()).hexdigest() for p in (run, ev))
    assert got == RUN_DIGESTS[name, prior]


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


# Valid cells first, then one cell whose value equals a valid one but has
# another JSON type: reading the valid cells must not make it pass.
_TYPED_GOOD = {"x": 1, "b": True, "A": [1, 0]}


@pytest.mark.parametrize(
    "bad, shown",
    [
        ({"x": True}, "x=True"),
        ({"x": 1.0}, "x=1.0"),
        ({"b": 1}, "b=1"),
        ({"A": [True, 0]}, "A=(True, 0)"),
        ({"A": [[1], 0]}, "A=([1], 0)"),
    ],
    ids=["int true", "int 1.0", "bool 1", "array true", "array nested"],
)
def test_eval_rejects_hyper_value_of_another_type(tmp_path, bad, shown):
    program = tmp_path / "typed.kuif"
    program.write_text(
        "hidden x : int[0..3];\nhidden b : bool;\n"
        "hidden A : array[2] of int[0..1];\nskip\n"
    )
    cells = [_TYPED_GOOD, _TYPED_GOOD | {"x": 2}, _TYPED_GOOD | bad]
    doc = {
        "hyper": [
            {"weight": "1/2", "inner": [{"state": cells[0], "prob": "1"}]},
            {"weight": "1/2",
             "inner": [{"state": c, "prob": "1/2"} for c in cells[1:]]},
        ]
    }
    hyper_file = tmp_path / "typed.json"
    hyper_file.write_text(json.dumps(doc))
    p = cli("eval", str(program), "--gain", "[x = 0]", "--hyper", str(hyper_file))
    assert p.returncode == 2
    assert p.stderr == f"error: hyper value {shown} is outside its domain\n"
    assert p.stdout == ""


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


def test_package_runs_as_the_cli():
    args = ("check", corpus("branch_assign.kuif"), "--priors", "exhaustive")
    via_package = cli(*args, module="kuifje")
    via_cli = cli(*args)
    assert via_package.returncode == via_cli.returncode == 0
    assert via_package.stdout == via_cli.stdout
    assert via_package.stdout.endswith("checked 4 priors: 4 agree, 0 disagree\n")


def _finals(exe):
    # the States the runs that end without a runtime error end in
    finals = {hit[1] for hit in exe.outcomes() if hit is not None}
    return [exe.space.state(f) for f in sorted(finals)]


def _check_args(*flags):
    return build_parser().parse_args(["check", "program.kuif", *flags])


@pytest.mark.parametrize("name", soundness.with_post())
def test_check_values_the_post_as_the_forward_hyper(name):
    # check's trace-class sum on the Canon's evaluator against the soundness
    # leg: the post-gain on the Hyper that `run` gives, on an evaluator over
    # the finals alone
    engine = soundness.engine(name)
    exe = engine.executable
    post = soundness.program(name).post
    states = exe.space.states()
    value = _post_value(exe, post, engine.canon.evaluator)
    reference = GainEvaluator(_finals(exe))
    flags = [("--priors", "random:3:7")]
    if len(states) <= 256:
        flags.append(("--priors", "exhaustive"))
    rng = random.Random(7)
    for spec in flags:
        for label, pairs in _check_priors(_check_args(*spec), exe):
            prior = Dist.from_weights({states[i]: w for i, w in pairs})
            if label.startswith("random"):  # the same draws as over States
                weights = random_weights(len(states), rng)
                assert prior == Dist.from_weights(dict(zip(states, weights)))
            got = value(pairs, sum(w for _, w in pairs))
            want = reference.hyper_value(post, exe.run(prior))
            assert type(got) is type(want) is Fraction
            assert got == want, (name, label)


def test_check_values_a_prior_file_as_its_dist(tmp_path):
    # a repeated line adds up and a zero line is no support
    engine = soundness.engine("threshold_print.kuif")
    exe = engine.executable
    post = soundness.program("threshold_print.kuif").post
    prior_file = tmp_path / "prior.txt"
    prior_file.write_text(
        "x=3 : 1/4\nx=7 : 1/4\nx=3 : 1/4\nx=0 : 0\nx=9 : 1/4\n"
    )
    [(label, pairs)] = _check_priors(_check_args("--prior", str(prior_file)), exe)
    states = exe.space.states()
    assert [(states[i].values, w) for i, w in pairs] == [
        ((3,), 2), ((7,), 1), ((9,), 1)
    ]
    prior = Dist.from_weights({states[i]: w for i, w in pairs})
    want = GainEvaluator(_finals(exe)).hyper_value(post, exe.run(prior))
    assert _post_value(exe, post, engine.canon.evaluator)(pairs, 4) == want


@pytest.mark.parametrize("name", ["search_full_scan", "sell_secret"])
def test_check_builds_one_table_per_variable(name, monkeypatch, capsys):
    # wp, the pre-gain and the post-gain all read the Canon's evaluator, so
    # a check request builds one evaluator and each variable and array
    # element table once
    evaluators, builds = [], Counter()
    init, table = GainEvaluator.__init__, GainEvaluator._table

    def counting_init(self, states):
        evaluators.append(self)
        init(self, states)

    def counting(self, k, j=None):
        if (k, j) not in self._tables:
            builds[k, j] += 1
        return table(self, k, j)

    monkeypatch.setattr(GainEvaluator, "__init__", counting_init)
    monkeypatch.setattr(GainEvaluator, "_table", counting)
    path = os.path.join(ROOT, corpus(name + ".kuif"))
    assert main(["check", path, "--priors", "random:2:1"]) == 0
    assert capsys.readouterr().out.endswith("2 agree, 0 disagree\n")
    assert len(evaluators) == 1
    assert builds and set(builds.values()) == {1}


@pytest.mark.parametrize("name", ["search_with_flag", "search_full_scan"])
@pytest.mark.parametrize(
    "command", [["wp"], ["check", "--priors", "random:2:7"]], ids=["wp", "check"]
)
def test_wp_and_check_build_no_declared_state(name, command, monkeypatch, capsys):
    # the declared space is rows and indices from the loop-head groups to
    # the last prior: with no counterexample to print, no State is built
    # and `all_states` is not called
    import kuifje.cli
    import kuifje.core
    import kuifje.gain

    built = []
    init = kuifje.core.State.__init__

    def counting(self, names, values):
        built.append(values)
        init(self, names, values)

    def refuse(*args):
        raise AssertionError("all_states called")

    monkeypatch.setattr(kuifje.core.State, "__init__", counting)
    for module in (kuifje.cli, kuifje.gain, sys.modules["kuifje.wp"]):
        monkeypatch.setattr(module, "all_states", refuse)
    path = os.path.join(ROOT, corpus(name + ".kuif"))
    assert main([command[0], path, *command[1:]]) == 0
    out = capsys.readouterr().out
    assert "disagree" not in out or out.endswith("2 agree, 0 disagree\n")
    assert built == []


# A read past the end of A at n = 2: every prior whose support holds such a
# state fails in the run, and one that avoids them passes.
_FAULTY_READ = (
    "hidden A : array[2] of int[0..1]; hidden n : int[0..2]; "
    "hidden y : int[0..1]; y := A[n]\n@post { [y = 1] }\n"
)

# Three runtime errors behind one split: the point priors meet the state
# x = 0 first (`x := 6`), random priors the first state of the first
# posterior in canonical order (`x := -10`), and walking the posteriors in
# the order they split off would meet a division by zero.
_TWO_FAULTS = (
    "hidden x : int[0..3];\nprint x mod 2;\nx := 3 - x;\n"
    "if x < 2 then x := 10 div (x - 1) else x := x + x fi\n@post { [x = 1] }\n"
)


@pytest.mark.parametrize(
    "source, args, code, stderr",
    [
        (_FAULTY_READ, ("--priors", "random:2:3"), 2, "error: A[2] with length 2\n"),
        (_TWO_FAULTS, ("--priors", "exhaustive"), 2,
         "error: x := 6 leaves the declared domain int[0..3]\n"),
        (_TWO_FAULTS, ("--priors", "random:2:3"), 2,
         "error: x := -10 leaves the declared domain int[0..3]\n"),
        (_TWO_FAULTS, ("--priors", "random:1:1"), 2,
         "error: x := -10 leaves the declared domain int[0..3]\n"),
        (None, ("--loop-bound", "1", "--priors", "random:1:1"), 3,
         "error: loop exceeded 1 iterations; raise the loop bound or add an "
         "invariant\n"),
    ],
    ids=["read", "two-faults-exhaustive", "two-faults-random", "two-faults-one",
         "loop-bound"],
)
def test_check_reports_the_runs_first_error(tmp_path, source, args, code, stderr):
    if source is None:
        path = corpus("search_early_exit.kuif")
    else:
        path = tmp_path / "fails.kuif"
        path.write_text(source)
    for seed in HASH_SEEDS:
        p = cli("check", str(path), "--verbose", *args, hash_seed=seed)
        assert (p.returncode, p.stderr, p.stdout) == (code, stderr, ""), seed


def test_check_prior_that_avoids_the_faulting_states(tmp_path):
    # a repeated line adds up, and a zero line on a faulting state is no
    # support: the run never meets A[2]
    prog = tmp_path / "fails.kuif"
    prog.write_text(_FAULTY_READ)
    prior = tmp_path / "prior.txt"
    prior.write_text(
        "A=[1,1] n=0 y=0 : 1/4\nA=[1,1] n=0 y=0 : 1/4\nA=[0,1] n=1 y=0 : 1/4\n"
        "A=[0,0] n=2 y=0 : 0\nA=[0,0] n=0 y=1 : 1/4\n"
    )
    for seed in HASH_SEEDS:
        p = cli("check", str(prog), "--prior", str(prior), "--verbose", hash_seed=seed)
        assert p.returncode == 0, p.stderr
        assert p.stdout == (
            f"PASS {prior} : value = 3/4\n"
            "PASS pre = [A[n] = 1]\n"
            "checked 1 priors: 1 agree, 0 disagree\n"
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
    "source, args, message",
    [
        (
            None,
            ("eval", corpus("reveal_mod4_small.kuif"), "--gain", "H - 3",
             "--prior", "uniform"),
            "error: gain atom is not evidently non-negative: H - 3 at line 1\n",
        ),
        (
            None,
            ("eval", corpus("reveal_mod4_small.kuif"), "--gain", "H = 3",
             "--prior", "uniform"),
            "error: gain atom must be numeric; wrap the condition in [ ]: "
            "H = 3 at line 1\n",
        ),
        (
            "hidden x : int[0..3]\nx := x = 1\n",
            ("run", "PROGRAM", "--prior", "uniform"),
            "error: expected int, got bool: x = 1 at line 2\n",
        ),
        (
            "hidden x : int[0..3]\nhidden b : bool\nx := x + (b or b)\n",
            ("run", "PROGRAM", "--prior", "uniform"),
            "error: arithmetic on booleans: x + (b or b) at line 3\n",
        ),
        (
            # wp makes the invariant's atom negative under the loop guard;
            # the message names the quantifier's instance, at w = 1
            "hidden x : int[0..2]\nhidden y : int[0..2]\n"
            "while x < 2 invariant { MAX w in 0..2: [x = w] * y } do\n"
            "  y := x - 1;\n  x := x + 1\nod\n@post { MAX w in 0..2: [x = w] * y }\n",
            ("wp", "PROGRAM"),
            "error: atom [x + 1 = 1] * (x - 1) is -1 on {x=0 y=0}\n",
        ),
    ],
    ids=[
        "negative-atom",
        "boolean-atom",
        "assign-bool-to-int",
        "bool-arithmetic",
        "negative-instance",
    ],
)
def test_type_error_shows_source_text_exit_2(tmp_path, source, args, message):
    if source is not None:
        f = tmp_path / "bad.kuif"
        f.write_text(source)
        args = tuple(str(f) if a == "PROGRAM" else a for a in args)
    p = cli(*args)
    assert p.returncode == 2
    assert p.stderr == message
    assert p.stdout == ""
    for node in ("Bin(", "Cmp(", "Var(", "BoolOp("):
        assert node not in p.stderr


@pytest.mark.parametrize(
    "body, where",
    [
        ("print " + "(" * 200 + "x" + ")" * 200, "2:73"),  # the 66th parenthesis
        ("print " + " + ".join(["x"] * 1500), "2:797"),  # the 198th `+`
        # the guard of the 198th `if`
        ("if x = 1 then " * 600 + "x := 2" + " fi" * 600, "2:2762"),
    ],
    ids=["nested-parentheses", "flat-sum", "nested-if"],
)
@pytest.mark.parametrize("command", ["run", "wp", "check"])
def test_too_deep_expression_exit_2(tmp_path, command, body, where):
    f = tmp_path / "deep.kuif"
    f.write_text(f"hidden x : int[0..3]\n{body}\n@post {{ [x = 1] }}\n")
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
        ("if x = 1 then " * 197 + "x := 2" + " fi" * 197, "[x = 1]"),
        ("if x = 1 then skip; " * 197 + "x := 2" + " fi" * 197, "[x = 1]"),
        ("while x = 1 do skip; " * 197 + "x := 2" + " od" * 197, "[x = 1]"),
        # a print of 1200 values joins 1200 branches without a 1200-deep PLUS
        ("hidden z : int[0..1199]\nprint z", "[x = 1]"),
    ],
    ids=[
        "nested-parentheses",
        "flat-sum",
        "gain-chain",
        "nested-if",
        "nested-if-seq",
        "nested-while-seq",
        "wide-print",
    ],
)
@pytest.mark.parametrize("command", ["run", "wp", "check"])
def test_deepest_accepted_input_runs(tmp_path, command, body, post):
    f = tmp_path / "deep.kuif"
    f.write_text(f"hidden x : int[0..3]\n{body}\n@post {{ {post} }}\n")
    args = ("--prior", "uniform") if command == "run" else ()
    p = cli(command, str(f), *args)
    assert p.returncode == 0, p.stderr
    assert p.stderr == ""


_DIVS = " + ".join(f"x div {i}" for i in range(1, 191))


def _sum(v):
    return " + ".join([v] * 190)


def test_wp_answers_a_straight_line_of_242_assignments(tmp_path):
    # each `x := (x + 1) mod 4` nests the pre-gain one level deeper, and
    # substituting, hashing and printing it take one or two frames a level
    f = tmp_path / "line.kuif"
    body = ";\n".join(["x := (x + 1) mod 4"] * 242)
    f.write_text(f"hidden x : int[0..3]\n{body}\n@post {{ MAX w in 0..3: [x = w] }}\n")
    p = cli("wp", str(f))
    assert (p.returncode, p.stderr) == (0, "")
    atoms = p.stdout.rstrip("\n").split(" MAX ")
    assert [a[-4:] for a in atoms] == ["= 0]", "= 1]", "= 2]", "= 3]"]
    assert all(a.count("mod 4") == 242 for a in atoms)


@pytest.mark.parametrize("command", ["wp", "check"])
def test_expression_built_too_deep_exit_3(tmp_path, command):
    # every statement parses, but substituting z's 190-term value, itself
    # built from y's, into the 190-term print nests far deeper than any
    # parsed expression
    f = tmp_path / "subst.kuif"
    f.write_text(
        "hidden x : int[0..3]; hidden y : int[0..3]; hidden z : int[0..3];\n"
        f"y := {_DIVS};\nz := {_sum('y')};\n"
        f"print {_sum('z')}\n@post {{ [x = 1] }}\n"
    )
    p = cli(command, str(f))
    assert p.returncode == 3
    assert p.stderr == (
        "error: the analysis built an expression nested too deep to process\n"
    )
    assert p.stdout == ""


@pytest.mark.parametrize(
    "command, code, stdout, stderr",
    [
        ("wp", 0, "[x = 1]\n", ""),
        ("check", 2, "", "error: y := 5 leaves the declared domain int[0..3]\n"),
    ],
)
def test_one_substitution_of_190_terms_is_processed(tmp_path, command, code, stdout, stderr):
    # y's 190-term value substituted into a 190-term print: hashing the
    # result takes one frame per level, so wp finishes, and check runs the
    # program forward into its own fault
    f = tmp_path / "subst.kuif"
    f.write_text(
        "hidden x : int[0..3]; hidden y : int[0..3];\n"
        f"y := {_DIVS};\nprint {_sum('y')}\n@post {{ [x = 1] }}\n"
    )
    p = cli(command, str(f))
    assert (p.returncode, p.stdout, p.stderr) == (code, stdout, stderr)


def test_leak_blind_mode_takes_a_wide_post(tmp_path):
    # the per-atom pre-gains of a 1200-atom post join without a 1200-deep
    # MAX; one assignment leaves every pre-gain its own post atom
    f = tmp_path / "wide.kuif"
    f.write_text("hidden x : int[0..1199]\nhidden y : int[0..1]\ny := 0\n")
    post = ("--post", "MAX w in 0..1199: [x = w]")
    blind = cli("wp", str(f), *post, "--unsound-no-branch-leak")
    assert blind.returncode == 0, blind.stderr
    assert blind.stdout == cli("wp", str(f), *post).stdout


@pytest.mark.parametrize(
    "args",
    [
        ("wp", corpus("search_full_scan.kuif")),
        ("check", corpus("search_full_scan.kuif"), "--priors", "random:2:5"),
    ],
)
def test_seed_is_accepted_and_ignored(args):
    outs = [cli(*args, *seed) for seed in ((), ("--seed", "1"), ("--seed", "99"))]
    assert all(p.returncode == 0 for p in outs)
    assert outs[0].stdout
    assert outs[0].stdout == outs[1].stdout == outs[2].stdout


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


# wp decides the `then` branch's annotated loop first, and its heads come
# from the states that take that branch, running nothing of the `else`
# branch: a right annotation passes, so wp goes on to reject the endless
# loop there by its line, and a wrong one fails its own check first
BESIDE_AN_ANNOTATED_LOOP = {
    "1": (
        3,
        "error: loop at line 7 does not provably exit within 50 iterations on "
        "the declared state space; annotate it or raise the loop bound\n",
    ),
    "2": (
        4,
        "error: loop annotation is not self-consistent: on the reachable prior "
        "Dist({{x=1}: 1}) the annotation is worth 2 but one loop step is worth "
        "1\n  needed: 2 == [x < 1] AND pre(body, annotation) PLUS "
        "[not (x < 1)] AND post\n",
    ),
}


@pytest.mark.parametrize("annotation", sorted(BESIDE_AN_ANNOTATED_LOOP))
def test_unbounded_loop_beside_an_annotated_one_is_decided_after_it(
    tmp_path, annotation
):
    f = tmp_path / "spin_else.kuif"
    f.write_text(
        "hidden x : int[0..2]\nif x = 0 then\n"
        f"  while x < 1 invariant {{ {annotation} }} do\n    x := x + 1\n  od\n"
        "else\n  while x > 0 do skip od\nfi\n@post { 1 }\n"
    )
    p = cli("wp", str(f), "--loop-bound", "50")
    assert (p.returncode, p.stdout, p.stderr) == (
        BESIDE_AN_ANNOTATED_LOOP[annotation][0],
        "",
        BESIDE_AN_ANNOTATED_LOOP[annotation][1],
    )


# a loop that no head state enters is decided without its body: wp and
# check print the pre-gain that unfolding gives, though the body's own
# pre-gain has no value (0 div 0) or needs a loop past the bound (b)
DEAD_LOOP_BODIES = {
    "failing print": ("", "print (0 div 0)"),
    "endless inner loop": ("hidden b : bool\n", "while b do skip od"),
}


@pytest.mark.parametrize("body", sorted(DEAD_LOOP_BODIES))
def test_a_dead_annotated_loop_is_decided_without_its_body(tmp_path, body):
    decl, stmt = DEAD_LOOP_BODIES[body]
    f = tmp_path / "dead.kuif"
    f.write_text(
        f"hidden x : int[0..1]\n{decl}print 0;\n"
        "while not (0 = 0) invariant { MAX w in 0..1: [x = w] } do\n"
        f"  {stmt}\nod\n@post {{ MAX w in 0..1: [x = w] }}\n"
    )
    unfolded = cli("wp", str(f), "--force-unfold", "--loop-bound", "3")
    assert (unfolded.returncode, unfolded.stdout) == (0, "[x = 0] MAX [x = 1]\n")
    wp = cli("wp", str(f), "--loop-bound", "3")
    assert (wp.returncode, wp.stdout, wp.stderr) == (0, unfolded.stdout, "")
    check = cli("check", str(f), "--loop-bound", "3")
    assert check.returncode == 0, check.stderr
    assert check.stdout.startswith(f"PASS pre = {unfolded.stdout}")


def test_unfold_depth_above_the_exit_bound_prints_the_same_pre_gain():
    # the flag search exits within 3 rounds on every state: the unfoldings
    # past that no state reaches, so they print the same bytes
    args = ("wp", corpus("search_with_flag.kuif"), "--force-unfold")
    plain = cli(*args)
    assert plain.returncode == 0, plain.stderr
    for depth in ("3", "6"):
        deep = cli(*args, "--unfold-depth", depth)
        assert deep.returncode == 0, deep.stderr
        assert deep.stdout == plain.stdout
    short = cli(*args, "--unfold-depth", "2")
    assert short.returncode == 3
    assert short.stderr == "error: loop needs 3 unfoldings, but only 2 were allowed\n"


HASH_SEEDS = ("0", "1", "2", "3")


def test_bad_invariant_exit_4(tmp_path):
    f = tmp_path / "badinv.kuif"
    f.write_text(
        "hidden x : int[0..3]\nhidden n : int[0..3]\n"
        "n := 0;\nwhile n != x invariant { [n = 0] } do\n  n := n + 1\nod\n"
        "@post { MAX w in 0..3: [x = w] }\n"
    )
    # the loop-head groups are sets: the report must not follow the hash seed
    for seed in HASH_SEEDS:
        p = cli("wp", str(f), hash_seed=seed)
        assert p.returncode == 4
        lines = p.stderr.splitlines()
        # the whole line pins the group order and the point priors tried first
        assert lines[0] == (
            "error: loop annotation is not self-consistent: on the reachable prior "
            "Dist({{x=2 n=2}: 1}) the annotation is worth 0 but one loop step is "
            "worth 1"
        ), seed
        assert lines[1] == (
            "  needed: [n = 0] == [n != x] AND pre(body, annotation) "
            "PLUS [not (n != x)] AND post"
        ), seed


def test_mixed_counterexample_is_the_same_under_every_hash_seed(tmp_path):
    # the full scan's annotation with its PLUS made a MAX holds on every
    # point prior and fails on a two-state one, found by the exact LP; the
    # group it comes from and the prior must not follow the hash seed
    with open(os.path.join(ROOT, corpus("search_full_scan.kuif"))) as src:
        text = src.read()
    plus = "invariant { [x in A[n:]] PLUS "
    assert plus in text
    f = tmp_path / "maxinv.kuif"
    f.write_text(text.replace(plus, "invariant { [x in A[n:]] MAX "))
    for seed in HASH_SEEDS:
        p = cli("wp", str(f), hash_seed=seed)
        assert p.returncode == 4
        assert p.stderr.splitlines() == [
            "error: loop annotation is not self-consistent: on the reachable prior "
            "Dist({{A=[0,1,0] x=1 n=1 f=false}: 1/2, {A=[0,1,1] x=1 n=1 f=false}: "
            "1/2}) the annotation is worth 1 but one loop step is worth 1/2",
            "  needed: [x in A[n:]] MAX (MAX i in 0..2: [i < n and A[i] = x and x "
            "notin A[n:]]) == [n != 3] AND pre(body, annotation) PLUS "
            "[not (n != 3)] AND post",
        ], seed


@pytest.mark.parametrize(
    "args", [("wp",), ("wp", "--no-simplify"), ("check",)], ids=" ".join
)
def test_annotation_over_a_failing_read_exit_4(tmp_path, args):
    # `simplify` would turn the annotation into 1, though its read fails at
    # n = 2; the equation is decided as written, so every command rejects it
    f = tmp_path / "failread.kuif"
    f.write_text(
        "hidden A : array[2] of int[0..1]\nhidden n : int[0..2]\n"
        "while n != 2 invariant { [A[n] = A[n]] } do\n  n := n + 1\nod\n"
        "@post { [A[n] = A[n]] }\n"
    )
    p = cli(args[0], str(f), *args[1:])
    assert p.returncode == 4
    assert p.stdout == ""
    assert p.stderr.splitlines() == [
        "error: loop annotation is not self-consistent: on the reachable prior "
        "Dist({{A=[0,0] n=1}: 1}) the annotation is worth 1 but one loop step "
        "is worth 0",
        "  needed: [A[n] = A[n]] == [n != 2] AND pre(body, annotation) "
        "PLUS [not (n != 2)] AND post",
    ]


def test_missing_file_exit_2():
    p = cli("wp", "corpus/no_such_program.kuif")
    assert p.returncode == 2
    assert p.stderr.startswith("error:")


_SUBCOMMAND_ARGS = {
    "run": (),
    "check": (),
    "eval": ("--gain", "[x = 0]"),
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_ARGS))
def test_unreadable_program_or_prior_exit_2(tmp_path, command):
    # a program that is not UTF-8 text, and a prior path that is a directory
    bad = tmp_path / "bad.kuif"
    bad.write_bytes(b"\xff")
    extra = _SUBCOMMAND_ARGS[command]
    cases = [
        ((str(bad), *extra, "--prior", "uniform"), str(bad)),
        ((corpus("threshold_print.kuif"), *extra, "--prior", str(tmp_path)),
         str(tmp_path)),
    ]
    for args, path in cases:
        p = cli(command, *args)
        assert p.returncode == 2, p.stderr
        assert p.stderr.startswith(f"error: cannot read {path}: ")
        assert len(p.stderr.splitlines()) == 1
        assert p.stdout == ""


def test_closed_stdout_exits_141_quietly():
    # the reader goes away before the first write, as `| head -c 10` can
    env = dict(os.environ, QIF_COLOR="0", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "kuifje.cli", "wp",
         corpus("reveal_low_bits_small.kuif")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_closed_stdout_in_process_keeps_the_stream(monkeypatch):
    # a stream with no descriptor is left as it is, and stays open
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    stream = Closed()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["wp", os.path.join(ROOT, corpus("branch_assign.kuif"))]) == 141
    assert sys.stdout is stream and not stream.closed


@pytest.mark.parametrize(
    "spec, message",
    [
        ("random:x:3", "want --priors random:COUNT:SEED"),
        ("random:2:y", "want --priors random:COUNT:SEED"),
        ("random:0:3", "want --priors random:COUNT:SEED"),
        ("random:-2:3", "want --priors random:COUNT:SEED"),
        ("random:2", "want --priors random:COUNT:SEED"),
        ("bogus", "bad --priors 'bogus'"),
    ],
)
def test_malformed_priors_spec_exit_2(spec, message):
    # COUNT must be a positive integer: a check of no priors proves nothing
    p = cli("check", corpus("branch_assign.kuif"), "--priors", spec)
    assert p.returncode == 2
    assert p.stderr == f"error: {message}\n"
    assert p.stdout == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (("run", "search_early_exit.kuif", "--prior", "uniform", "--loop-bound",
          "-1"), "argument --loop-bound: must be 0 or more, not -1"),
        (("run", "skip_loop.kuif", "--prior", "uniform", "--loop-bound", "-1"),
         "argument --loop-bound: must be 0 or more, not -1"),
        (("wp", "search_with_flag.kuif", "--loop-bound", "-1"),
         "argument --loop-bound: must be 0 or more, not -1"),
        (("wp", "search_with_flag.kuif", "--force-unfold", "--unfold-depth", "-1"),
         "argument --unfold-depth: must be 0 or more, not -1"),
        (("wp", "search_with_flag.kuif", "--loop-bound", "x"),
         "argument --loop-bound: invalid int value: 'x'"),
        (("eval", "threshold_print.kuif", "--gain", "[x = 0]", "--prior",
          "uniform", "--hyper", "out.json"),
         "argument --hyper: not allowed with argument --prior"),
        (("check", "threshold_print.kuif", "--prior", "uniform", "--priors",
          "random:3:1"), "argument --priors: not allowed with argument --prior"),
        (("check", "threshold_print.kuif", "--format", "json"),
         "unrecognized arguments: --format json"),
        (("eval", "threshold_print.kuif", "--gain", "1", "--prior", "uniform",
          "--loop-bound", "1"), "unrecognized arguments: --loop-bound 1"),
    ],
    ids=[
        "negative loop bound on run",
        "negative loop bound on a loop that never runs",
        "negative loop bound on wp",
        "negative unfold depth",
        "loop bound not an integer",
        "eval prior and hyper",
        "check prior and priors",
        "check format",
        "eval loop bound",
    ],
)
def test_bad_option_exit_2(args, message):
    # an option out of range, or two that would override each other, is
    # refused before anything runs
    command, name, *rest = args
    p = cli(command, corpus(name), *rest)
    assert p.returncode == 2
    assert p.stderr.splitlines()[-1].endswith(f"error: {message}")
    assert p.stdout == ""


def test_prior_beside_priors_exhaustive_exit_2(capsys):
    # in process too, where an argv string can be the very object argparse
    # would hold as the option's default
    from kuifje import cli as kuifje_cli

    path = os.path.join(ROOT, "corpus", "branch_assign.kuif")
    with pytest.raises(SystemExit) as exc:
        kuifje_cli.main(["check", path, "--prior", "uniform", "--priors", "exhaustive"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: argument --priors: not allowed with argument --prior"
    )


def test_zero_loop_bound_is_accepted():
    p = cli("run", corpus("skip_loop.kuif"), "--prior", "uniform", "--loop-bound", "0")
    assert p.returncode == 0, p.stderr


def test_unexpected_exception_exit_5(monkeypatch, capsys):
    from kuifje import cli as kuifje_cli

    class Broken:
        def __init__(self, *args, **kwargs):
            raise ZeroDivisionError("boom")

    monkeypatch.setattr(kuifje_cli, "WpEngine", Broken)
    code = kuifje_cli.main(["wp", os.path.join(ROOT, "corpus", "branch_assign.kuif")])
    out, err = capsys.readouterr()
    assert code == 5
    assert out == ""
    assert err == "error: internal error: ZeroDivisionError: boom\n"
    assert "Traceback" not in err


_NO_PROB_CELL = {"hyper": [{"weight": "1", "inner": [{"state": {"x": 0}}]}]}
_EXTRA_KEY = {
    "hyper": [{"weight": "1", "inner": [{"state": {"x": 0, "zz": 5}, "prob": "1"}]}]
}

# a probability is a string: a JSON boolean or number is not read as one
_BOOL_WEIGHT = {
    "hyper": [{"weight": True, "inner": [{"state": {"x": 1}, "prob": "1"}]}]
}
_FLOAT_PROBS = {
    "hyper": [
        {
            "weight": "1",
            "inner": [
                {"state": {"x": 0}, "prob": 0.1},
                {"state": {"x": 1}, "prob": 0.9},
            ],
        }
    ]
}

# json.dumps cannot write a repeated key
_REPEATED_KEY = (
    '{"hyper": [{"weight": "1", "inner": '
    '[{"state": {"x": 0, "x": 1}, "prob": "1"}]}]}'
)


@pytest.mark.parametrize(
    "args, hyper_text, named",
    [
        (("run", "--prior", "x=1 : abc"), None, "'abc'"),
        (("run", "--prior", "x=zz : 1"), None, "'zz'"),
        (("run", "--prior", "x=1 : 1/0"), None, "'1/0'"),
        (("run", "--prior", "product x:{1:1/2,2:xx}"), None, "'xx'"),
        (("eval", "--gain", "[x = 0]"), json.dumps(_NO_PROB_CELL), "'prob'"),
        (("eval", "--gain", "[x = 0]"), "not json {", "h.json"),
        (("run", "--prior", "x=1 x=2 : 1"), None, "prior line binds x twice"),
        (("eval", "--gain", "[x = 0]"), json.dumps(_EXTRA_KEY), "variable 'zz'"),
        (("run", "--prior", "product x:uniform x:{1:1}"), None,
         "error: product prior names x twice"),
        (("eval", "--gain", "[x = 0]"), _REPEATED_KEY, "repeats the key 'x'"),
        (("run", "--prior", "product x:{1:1/2,12:1/2}"), None,
         "prior value x=12 is outside its domain"),
        (("eval", "--gain", "[x = 0]"), json.dumps(_BOOL_WEIGHT),
         "error: bad probability true (not a string)"),
        (("eval", "--gain", "[x = 0]"), json.dumps(_FLOAT_PROBS),
         "error: bad probability 0.1 (not a string)"),
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


def _drawn_programs(n):
    """`n` fixed generated programs, each with a generated @post, distinct:
    the same texts on every run, since the draw is derandomized."""
    drawn = []

    @settings(
        max_examples=n, derandomize=True, database=None, phases=[Phase.generate],
        deadline=None,
    )
    @given(programs(), st.data())
    def draw(source, data):
        decls = check_program(parse_program(source)).decls
        drawn.append(f"{source}\n@post {{ {data.draw(posts(decls))} }}\n")

    draw()
    return list(dict.fromkeys(drawn))


# `wp` and `check` on each program named on the command line, in one
# process, each request's stderr and exit code printed into stdout
_WP_AND_CHECK = """
import sys
from contextlib import redirect_stderr
from kuifje.cli import main
for path in sys.argv[1:]:
    for cmd in (["wp"], ["check", "--priors", "random:2:1"]):
        with redirect_stderr(sys.stdout):
            code = main([cmd[0], path, "--loop-bound", "3", *cmd[1:]])
        print("exit", code, flush=True)
"""


def test_generated_programs_are_byte_identical_across_hash_seeds(tmp_path):
    # the loop bounds, the outcome tables and the pre-gains are built from
    # dicts and sets, so any order dependence would show in some program;
    # 30 programs that have a loop, of the first 120 drawn
    texts = [text for text in _drawn_programs(120) if "while" in text][:30]
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"generated_{i}.kuif"
        path.write_text(text)
        paths.append(str(path))
    outs = []
    for seed in "0123":
        env = dict(os.environ, QIF_COLOR="0", PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        proc = subprocess.run(
            [sys.executable, "-c", _WP_AND_CHECK, *paths],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[1:] == outs[:1] * 3
    # every request ran to its exit code, whichever code the draw gives
    exits = [line for line in outs[0].splitlines() if line.startswith("exit")]
    assert len(exits) == 2 * len(texts) == 60


# ---- interpreters


def _starts(python):
    try:
        proc = subprocess.run([python, "-c", "pass"], capture_output=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return proc.returncode == 0


def test_every_supported_interpreter_prints_the_same():
    # pyproject promises Python >= 3.10; each python3.10 ... python3.13 on
    # PATH that starts (a pyenv shim with no version pinned does not) must
    # print what this interpreter prints
    pythons = [shutil.which(f"python3.{minor}") for minor in range(10, 14)]
    requests = [
        (command, corpus(name), *extra)
        for name in ("branch_assign.kuif", "threshold_print.kuif", "search_with_flag.kuif")
        for command, *extra in (("wp",), ("check", "--priors", "random:2:7"))
    ]
    want = [cli(*r, module="kuifje") for r in requests]
    assert all(p.returncode == 0 and p.stdout for p in want)
    for python in filter(None, pythons):
        if _starts(python):
            got = [cli(*r, module="kuifje", python=python) for r in requests]
            assert [(p.stdout, p.returncode) for p in got] == [
                (p.stdout, p.returncode) for p in want
            ], python


# ---- memory: a request is freed by reference counting


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


GUESS_I = "MAX w in 0..1: [i = w]"


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "mark_slot.kuif", "--prior", "uniform"),
        ("run", "search_with_flag.kuif", "--prior", "uniform", "--format", "json"),
        ("eval", "mark_slot.kuif", "--gain", GUESS_I, "--prior", "uniform"),
        ("eval", "mark_slot.kuif", "--gain", GUESS_I, "--hyper", None),
        ("wp", "mark_slot.kuif"),
        ("wp", "search_with_flag.kuif"),
        ("wp", "search_early_exit.kuif", "--force-unfold"),
        ("wp", "mark_slot.kuif", "--unsound-no-branch-leak"),
        ("wp", "branch_assign.kuif", "--show-trace"),
        ("check", "mark_slot.kuif", "--priors", "random:2:7"),
        ("check", "search_with_flag.kuif", "--priors", "random:2:7"),
        ("check", "search_early_exit.kuif", "--priors", "random:2:7"),
    ],
)
def test_a_request_leaves_nothing_to_the_cyclic_collector(argv, tmp_path):
    # nothing a request builds is in a reference cycle, so all of it is freed
    # when the request ends, with the cyclic collector off
    command, name, *extra = argv
    path = os.path.join(ROOT, corpus(name))
    if None in extra:
        hyper = tmp_path / "hyper.json"
        hyper.write_text(_quiet(["run", path, "--prior", "uniform", "--format", "json"]))
        extra[extra.index(None)] = str(hyper)
    argv = [command, path, *extra]
    _quiet(argv)  # warm-up: module-level state is built once
    gc.collect()
    gc.disable()
    try:
        _quiet(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
