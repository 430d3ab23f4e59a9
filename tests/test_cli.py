import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType

import pytest

import sievecodec
from sievecodec import codec
from sievecodec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# 2**61 - 1 is prime: trial division up to 2**20 leaves it whole, too large
# to certify.
UNFACTORABLE = 2**61 - 1


def assert_refused_unfactorable(capsys, *argv):
    """The command exits 5 at once, naming the element and the bound, and
    allocates nothing for the horizon first."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 5
    assert out == ""
    assert err.startswith(f"error: cannot factor {UNFACTORABLE}: ")
    assert "bound 1048576" in err


class TestEncodeCommand:
    def test_sieve(self, capsys):
        code, out, _ = run(capsys, "encode", "--op", "coprime", "0111111111")
        assert code == 0
        assert "accepted=2,3,5,7,11,13,17,19,23 @ 23" in out

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "encode", "--op", "sumfree", "")
        assert code == 0
        assert out == "accepted=@ 0\nrejected=@ 0\nconsumed=0\n"

    def test_norm_k_pair(self, capsys):
        code, out, _ = run(capsys, "encode", "--op", "normk:7", "001001")
        assert code == 0
        assert "accepted=3,7 @ 7" in out

    def test_malformed_word(self, capsys):
        code, _, err = run(capsys, "encode", "--op", "sumfree", "0121")
        assert code == 2
        assert "error" in err

    def test_malformed_operator(self, capsys):
        code, _, err = run(capsys, "encode", "--op", "nope", "01")
        assert code == 2

    def test_candidate_ceiling_is_a_resource_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(codec, "DEFAULT_CANDIDATE_CEILING", 4)
        code, out, err = run(capsys, "encode", "--op", "sumfree", "11111")
        assert code == 5
        assert out == ""
        assert err.startswith("error: candidate scan passed the ceiling 4 under sumfree ")


class TestDecodeCommand:
    def test_norm_k_pair(self, capsys):
        code, out, _ = run(capsys, "decode", "--op", "normk:7", "3,7 @ 7")
        assert code == 0
        assert "00100*1" in out
        assert "001001" in out

    def test_empty_set(self, capsys):
        code, out, _ = run(capsys, "decode", "--op", "sumfree", "@ 5")
        assert code == 0
        assert "00000" in out

    def test_missing_horizon(self, capsys):
        code, _, err = run(capsys, "decode", "--op", "coprime", "2,3")
        assert code == 2

    def test_horizon_sets_the_star_positions(self, capsys):
        # The '@ N' part alone sets how far the elements' stars reach.
        code, out, _ = run(capsys, "decode", "--op", "coprime", "2,3 @ 10")
        assert code == 0
        ternary = dict(line.split("=", 1) for line in out.splitlines())["ternary"]
        assert len(ternary) == 10
        assert {i + 1 for i, s in enumerate(ternary) if s == "*"} == {4, 6, 8, 9, 10}

    def test_unfactorable_element_is_a_resource_limit(self, capsys):
        # The decoder factors the element before it renders the horizon.
        prefix = f"{UNFACTORABLE} @ {2**61}"
        assert_refused_unfactorable(capsys, "decode", "--op", "coprime", prefix)


class TestMemberCommand:
    def test_member_true(self, capsys):
        code, out, _ = run(capsys, "member", "--op", "sumfree", "1,3,5 @ 6")
        assert code == 0
        assert "member=true" in out

    def test_member_false(self, capsys):
        code, out, _ = run(capsys, "member", "--op", "sumfree", "1,2 @ 3")
        assert code == 1
        assert "member=false" in out

    def test_unfactorable_element_is_a_resource_limit(self, capsys):
        # Refused instead of dividing for minutes.
        prefix = f"{UNFACTORABLE},{2**61} @ {2**61}"
        assert_refused_unfactorable(capsys, "member", "--op", "coprime", prefix)

    def test_a_far_last_element_costs_nothing_in_proportion(self, capsys):
        # The fs mask keeps no sum past the last element, and builds the ones
        # that cut it only once a sum passes it: 2 + 3 does not.
        start = time.perf_counter()
        far = 2**61 - 1
        code, out, err = run(capsys, "member", "--op", "fs", f"2,3,{far} @ {far}")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (0, "member=true\n", "")


class TestDynamicsCommand:
    def test_steps(self, capsys):
        code, out, _ = run(capsys, "dynamics", "--k", "7", "--steps", "1", "3,7 @ 7")
        assert code == 0
        assert "iterate index=0 set=3,7 @ 7" in out
        assert "iterate index=1 set=3,6 @ 6" in out

    def test_limit_with_split(self, capsys):
        code, out, _ = run(
            capsys, "dynamics", "--k", "7", "--limit", "6", "--split", "3,7 @ 30"
        )
        assert code == 0
        assert "stabilized=3,6 @ 6" in out
        assert "fixed=3,6 @ 6" in out

    def test_insufficient_horizon_exit_code(self, capsys):
        code, out, _ = run(capsys, "dynamics", "--k", "7", "--limit", "7", "3,7 @ 7")
        assert code == 3
        assert "verdict=insufficient-horizon" in out
        assert "stabilized=3 @ 5" in out
        assert "iterations=" not in out

    def test_split_of_the_largest_frozen_prefix(self, capsys):
        code, out, _ = run(capsys, "dynamics", "--k", "7", "--limit", "7", "--split", "3,7 @ 7")
        assert code == 3
        assert out.endswith("stabilized=3 @ 5\nfixed=3 @ 5\nresidual=@ 5\nnontrivial=true\n")

    def test_split_refused_with_steps_before_any_pass(self, capsys):
        code, out, err = run(capsys, "dynamics", "--k", "7", "--steps", "2", "--split", "3,7 @ 7")
        assert code == 2
        assert out == ""
        assert "--limit" in err

    def test_split_without_a_limit_pass(self, capsys):
        # The start horizon is below L: no decode pass runs, nothing froze,
        # so nothing is split and the verdict's exit code stands.
        for limit, start in (("8", "3,7 @ 7"), ("50", "3,7 @ 30")):
            code, out, err = run(capsys, "dynamics", "--k", "7", "--limit", limit, "--split", start)
            assert code == 3
            assert out.endswith("verdict=insufficient-horizon\n")
            assert "fixed=" not in out and err == ""

    def test_needs_steps_or_limit(self, capsys):
        code, _, err = run(capsys, "dynamics", "--k", "7", "3,7 @ 7")
        assert code == 2

    def test_steps_and_limit_are_exclusive(self, capsys):
        code, out, err = run(capsys, "dynamics", "--k", "7", "--steps", "1", "--limit", "2",
                             "3,7 @ 7")
        assert code == 2
        assert out == ""
        assert "mutually exclusive" in err


class TestFixedPointsCommand:
    def test_enumeration(self, capsys):
        code, out, _ = run(capsys, "fixed-points", "--k", "7", "--max-element", "4")
        assert code == 0
        assert "fixed-point set=1 @ 4" in out
        assert "fixed-point set=2 @ 4" in out
        assert "count=" in out

    def test_max_element_below_1(self, capsys):
        code, out, err = run(capsys, "fixed-points", "--k", "7", "--max-element", "0")
        assert code == 2
        assert out == ""
        assert "at least 1" in err


class TestUcCommand:
    def test_complete(self, capsys):
        odds = ",".join(str(a) for a in range(1, 30, 2))
        code, out, _ = run(capsys, "uc", "--op", "sumfree", "--window", "2", f"{odds} @ 30")
        assert code == 0
        assert "verdict=complete-on-window" in out

    def test_incomplete(self, capsys):
        code, out, _ = run(capsys, "uc", "--op", "sumfree", "--window", "1", "@ 10")
        assert code == 1
        assert "witness=1" in out

    def test_undecided(self, capsys):
        code, out, _ = run(capsys, "uc", "--op", "sumfree", "--window", "11", "@ 10")
        assert code == 4

    def test_unfactorable_element_is_a_resource_limit(self, capsys):
        prefix = f"{UNFACTORABLE} @ {2**61}"
        assert_refused_unfactorable(capsys, "uc", "--op", "coprime", "--window", "1", prefix)


class TestOutOfMemory:
    """A command whose horizon needs more memory than can be allocated exits
    5, the resource limit, not 1, which reads as "false"."""

    # Each asks for a byte or a bit per position up to 2**61 at once, far
    # past any address space, so the allocation fails before it takes any.
    # The last two of those ask for a norm table of about 2**67 one-byte
    # cells, past even numpy's largest dimension.  Past 2**63 a size does not
    # fit an index at all, and an int of 10**30 bits, such as a sumfree mask
    # of that many positions, is past the largest Python builds.
    @pytest.mark.parametrize(
        "argv",
        [
            ("decode", "--op", "sumfree", f"2 @ {2**61}"),
            ("uc", "--op", "coprime", "--window", "1", f"2 @ {2**61}"),
            ("decode", "--op", "normk:7", f"2,3 @ {2**61}"),
            ("dynamics", "--k", "7", "--limit", "4", f"2,3 @ {2**61}"),
            ("sufficient", "--k", "16", f"2,{2**61 - 1},{2**61} @ {2**61}"),
            ("member", "--op", "normk:16", f"2,{2**61 - 1},{2**61} @ {2**61}"),
            *(pytest.param(argv, id=" ".join(argv[:3]) + " past 2**63") for argv in [
                ("decode", "--op", "normk:7", f"2,3 @ {2**64}"),
                ("decode", "--op", "coprime", f"2 @ {2**64}"),
                ("uc", "--op", "coprime", "--window", "1", f"2 @ {2**64}"),
                ("dynamics", "--k", "7", "--limit", "4", f"2,3 @ {2**64}"),
                ("decode", "--op", "sumfree", f"2 @ {10**30}"),
                ("member", "--op", "sumfree", f"2,{10**30},{10**30 + 1} @ {10**30 + 1}"),
            ]),
        ],
        ids=lambda argv: " ".join(argv[:3]),
    )
    def test_a_failed_allocation_is_a_resource_limit(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 10
        assert (code, out, err) == (5, "", f"error: {argv[0]} ran out of memory\n")


class TestSufficientCommand:
    def test_holds(self, capsys):
        code, out, _ = run(capsys, "sufficient", "--k", "7", "2,3 @ 5")
        assert code == 0
        assert "holds=true" in out

    def test_fails(self, capsys):
        code, out, _ = run(capsys, "sufficient", "--k", "7", "@ 5")
        assert code == 1

    def test_a_huge_last_element_needs_no_table(self, capsys):
        # The least-norm pass reads the last element off the masks of the
        # others, so an element near 2**61 takes no memory.
        start = time.perf_counter()
        code, out, _ = run(capsys, "sufficient", "--k", "16", f"2,{2**61 - 1} @ {2**61 - 1}")
        assert time.perf_counter() - start < 1
        assert (code, out) == (
            1, "holds=false\nin-family=true\naugmented-escapes=true\nwitness=none\n")

    def test_witness_over_a_thousand_elements(self, capsys):
        # The witness walk takes one step per element: a recursive search
        # overflowed Python's stack here.
        elements = sorted(random.Random(5005).sample(range(2, 10000), 1000))
        code, out, _ = run(capsys, "sufficient", "--k", "5",
                           f"{','.join(map(str, elements))} @ 10000")
        assert code in (0, 1)
        witness = next(line for line in out.splitlines() if line.startswith("witness="))
        terms, _, norm = witness.removeprefix("witness=").partition(" = 0 (norm ")
        pairs = [term.split("*") for term in terms.replace(" - ", " + -").split(" + ")]
        assert sum(int(c) * int(b) for c, b in pairs) == 0
        assert {int(b) for _, b in pairs} <= {1, *elements}
        assert sum(int(c) ** 2 for c, _ in pairs) == int(norm.rstrip(")")) <= 5 - 2


class TestRoundtripCommand:
    def test_seeded_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "roundtrip", "--op", "normk:7", "--count", "25", "--max-len", "32",
            "--seed", "5",
        )
        assert code == 0
        assert "failures=0" in out

    @pytest.mark.parametrize("option", ["--count", "--max-len"])
    def test_negative_sizes_are_malformed(self, capsys, option):
        code, out, err = run(capsys, "roundtrip", "--op", "sumfree", option, "-3")
        assert code == 2
        assert out == ""
        assert err == f"error: {option} must be non-negative, got -3\n"


class TestRecordsFormat:
    def test_encode_records_are_reproducible_and_reparseable(self, capsys):
        args = ["encode", "--op", "normk:7", "001001"]
        code, first, _ = run(capsys, *args)
        assert code == 0
        code, second, _ = run(capsys, *args)
        assert first == second  # byte-for-byte stable
        fields = dict(line.split("=", 1) for line in first.strip().splitlines())
        assert fields["accepted"] == "3,7 @ 7"
        assert fields["consumed"] == "7"
        # feed the parsed set back through decode and recover the input word
        code, out, _ = run(capsys, "decode", "--op", "normk:7", fields["accepted"])
        assert code == 0
        decoded = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert decoded["bits"] == "001001"

    def test_dynamics_records_are_reproducible(self, capsys):
        args = ["dynamics", "--k", "7", "--steps", "2", "3,7 @ 12"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_consecutive_calls_share_no_state(self, capsys):
        # One parser serves every call in a process; no flag or subcommand of
        # one call may carry into the next.
        code, out, _ = run(capsys, "dynamics", "--k", "7", "--limit", "6", "--split", "3,7 @ 30")
        assert code == 0
        assert "fixed=3,6 @ 6" in out
        code, out, err = run(capsys, "dynamics", "--k", "7", "--limit", "6", "3,7")
        assert (code, out) == (2, "")
        assert "lacks an '@ horizon' part" in err
        code, out, _ = run(capsys, "dynamics", "--k", "7", "--limit", "6", "3,7 @ 30")
        assert code == 0
        assert "fixed=" not in out
        code, out, err = run(capsys, "decode", "--op", "normk:7", "3,7 @ 7")
        assert (code, err) == (0, "")
        assert out.startswith("ternary=00100*1\n")

    # A prefix carries its horizon only as '@ N', and every command prints
    # records only, so --horizon and --format are unknown flags too.
    @pytest.mark.parametrize("argv", [
        ["encode", "--op", "sumfree", "--bogus", "01"],
        ["decode", "--op", "coprime", "2,3", "--horizon", "10"],
        ["encode", "--op", "sumfree", "--format", "records", "01"],
        ["decode", "--op", "coprime", "--format", "records", "2,3 @ 10"],
        ["member", "--op", "sumfree", "2,3", "--horizon", "10"],
        ["dynamics", "--k", "7", "--steps", "1", "3,7", "--horizon", "12"],
        ["uc", "--op", "sumfree", "--window", "2", "2,3", "--horizon", "10"],
        ["sufficient", "--k", "7", "2,3", "--horizon", "5"],
    ], ids=["--bogus", "--horizon", "--format", "decode --format", "member --horizon",
            "dynamics --horizon", "uc --horizon", "sufficient --horizon"])
    def test_unknown_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    # Every command that takes a prefix refuses one without '@ N' by
    # IntSetPrefix.parse, before it computes anything.
    @pytest.mark.parametrize("argv", [
        ["decode", "--op", "coprime"],
        ["member", "--op", "sumfree"],
        ["dynamics", "--k", "7", "--limit", "6"],
        ["uc", "--op", "sumfree", "--window", "2"],
        ["sufficient", "--k", "7"],
    ], ids=lambda argv: argv[0])
    def test_prefix_without_a_horizon_is_malformed(self, capsys, argv):
        code, out, err = run(capsys, *argv, "2,3")
        assert (code, out) == (2, "")
        assert "lacks an '@ horizon' part" in err

    # The golden encode word under each golden operator: the accepted record
    # of encode, fed to decode as it stands, gives the word back.
    @pytest.mark.parametrize("op", ["sumfree", "normk:4", "normk:7", "normk:9", "coprime", "fs"])
    def test_encode_records_decode_back_under_every_operator(self, capsys, op):
        word = "0110100111010"
        code, out, err = run(capsys, "encode", "--op", op, word)
        assert (code, err) == (0, "")
        encoded = dict(line.split("=", 1) for line in out.splitlines())
        assert list(encoded) == ["accepted", "rejected", "consumed"]
        assert encoded["accepted"].endswith(f"@ {encoded['consumed']}")
        code, out, err = run(capsys, "decode", "--op", op, encoded["accepted"])
        assert (code, err) == (0, "")
        decoded = dict(line.split("=", 1) for line in out.splitlines())
        assert list(decoded) == ["ternary", "bits", "certified", "violations"]
        assert decoded["bits"] == word
        assert decoded["violations"] == ""


# Runs each argv of a JSON list through ``main`` in a fresh process and prints
# the [code, stdout, stderr] of each, whether numpy was loaded, and the
# sievecodec modules that bind a numpy module.  With ``blocked`` first,
# ``sys.modules["numpy"] = None`` makes any numpy import raise ``ImportError``.
_RUN_COMMANDS = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from sievecodec.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
binders = sorted(name for name, module in sys.modules.items() if name.startswith("sievecodec")
                 and any(isinstance(v, type(sys)) and v.__name__.partition(".")[0] == "numpy"
                         for v in vars(module).values()))
print(json.dumps([results, sys.modules.get("numpy") is not None, binders]))
"""


def _run_commands(mode, commands):
    env = dict(os.environ, PYTHONPATH=str(Path(sievecodec.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, mode, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_table_free_commands_never_import_numpy():
    # Only a cost table needs numpy.  The other operators run on big-int
    # masks and byte marks, and answer alike with numpy unimportable.
    commands = []
    for op in ("sumfree", "coprime", "normk:2", "normk:3", "normk:4", "fs"):
        commands += [
            ["encode", "--op", op, "0110100111011"],
            ["decode", "--op", op, "2,3,7,10 @ 30"],
            ["member", "--op", op, "2,3,7 @ 10"],
            ["uc", "--op", op, "--window", "10", "2,3,7 @ 40"],
            ["roundtrip", "--op", op, "--count", "20", "--max-len", "12", "--seed", "1"],
        ]
    blocked, _, _ = _run_commands("blocked", commands)
    unblocked, loaded, _ = _run_commands("unblocked", commands)
    assert blocked == unblocked
    assert {code for code, _, _ in blocked} == {0, 1}
    assert not loaded


def test_sufficient_at_k_four_never_imports_numpy():
    # At k = 4 an anchored witness would need 1 +/- b == 0 for a base
    # element b > 1, so no cost table is built.
    commands = [["sufficient", "--k", "4", prefix]
                for prefix in ("2,3 @ 5", "2,5,7 @ 10", "3,4,9 @ 12", "2 @ 3")]
    blocked, _, _ = _run_commands("blocked", commands)
    unblocked, loaded, _ = _run_commands("unblocked", commands)
    assert blocked == unblocked
    assert {code for code, _, _ in blocked} == {1}
    assert not loaded


def test_fixed_points_never_import_numpy():
    # The fixed-point walk reads big-int cost levels under normk, not a cost
    # table; k = 16 takes the most levels and multipliers.
    commands = [["fixed-points", "--k", str(k), "--max-element", "20"] for k in (5, 7, 16)]
    blocked, _, _ = _run_commands("blocked", commands)
    unblocked, loaded, _ = _run_commands("unblocked", commands)
    assert blocked == unblocked
    assert {code for code, _, _ in blocked} == {0}
    assert not loaded


def test_orbit_commands_never_import_numpy():
    # A decode pass, membership test or completeness test whose widest cost
    # level fits ``operators._LEVELS_BITS`` reads big-int levels, not a cost
    # table: the bench's orbit jobs, and its ``sufficient`` on their limits.
    rng = random.Random(40)
    start = f"{','.join(map(str, sorted(rng.sample(range(1, 2001), 200))))} @ 2000"
    orbits = [["dynamics", "--k", str(k), "--limit", "40", "--split", start] for k in (5, 7, 9)]
    blocked, _, _ = _run_commands("blocked", orbits)
    unblocked, loaded, _ = _run_commands("unblocked", orbits)
    assert blocked == unblocked
    assert {code for code, _, _ in blocked} == {0}
    assert not loaded
    limit = dict(line.split("=", 1) for line in blocked[2][1].splitlines() if "=" in line
                 and not line.startswith("iterate"))["stabilized"]
    commands = [["sufficient", "--k", "9", limit],
                ["decode", "--op", "normk:16", "2,3,7 @ 40"],
                ["member", "--op", "normk:12", "2,5,11 @ 11"]]
    blocked, _, _ = _run_commands("blocked", commands)
    unblocked, loaded, _ = _run_commands("unblocked", commands)
    assert blocked == unblocked
    assert [(code, err) for code, _, err in blocked] == [(1, ""), (0, ""), (1, "")]
    assert not loaded
    # Past them, at k = 16 and horizon 2,000 (56,000 bits), it builds one.
    _, loaded, _ = _run_commands("unblocked", [["decode", "--op", "normk:16", start]])
    assert loaded


def test_numpy_is_bound_only_in_relations():
    # The first cost table loads numpy, and only relations binds it: the
    # oracles, the codec, the dynamics and the CLI see only ints and bytes.
    results, loaded, binders = _run_commands("unblocked", [["encode", "--op", "normk:5", "0110"]])
    assert results == [[0, "accepted=2,3 @ 4\nrejected=1,4 @ 4\nconsumed=4\n", ""]]
    assert loaded
    assert binders == ["sievecodec.relations"]


def test_public_surface():
    # Operators are named by OperatorKind or parse_operator alone, and
    # prime_factors stays in sievecodec.operators.  Past its submodules, the
    # package binds exactly the names of __all__, so each of them resolves.
    assert set(sievecodec.__all__) == {
        "CandidateCeilingExceeded", "CompletenessVerdict", "CostTable", "DecodeResult",
        "DEFAULT_CANDIDATE_CEILING", "DEFAULT_MAX_NORM_BOUND", "EncodeResult", "IntSetPrefix",
        "OperatorKind", "OrbitRecord", "Relation", "SufficiencyEvidence",
        "completeness_sufficient_condition", "decode", "decode_orbit", "encode",
        "encoder_fixed_points", "find_anchored_relation", "find_limit", "from_characteristic",
        "is_encoder_fixed_point", "is_member", "parse_operator", "roundtrip_ok",
        "ultimately_complete_on",
    }
    public = {name for name, value in vars(sievecodec).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(sievecodec.__all__)
