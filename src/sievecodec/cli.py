"""Command-line front end.

Subcommands mirror the library operations.  Every one prints ``key=value``
records only (see README).
Exit codes: 0 success / true / complete, 1 false / incomplete / failures,
2 malformed input, 3 horizon exhaustion, 4 undecided, 5 a resource limit
was reached.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .codec import CandidateCeilingExceeded, decode, encode, roundtrip_ok
from .core import IntSetPrefix
from .dynamics import (
    FIXED_POINT_ENUMERATION_BOUND,
    completeness_sufficient_condition,
    decode_orbit,
    encoder_fixed_points,
    find_limit,
    ultimately_complete_on,
)
from .operators import FactorBoundExceeded, OperatorKind, is_member, parse_operator

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_MALFORMED = 2
EXIT_HORIZON = 3
EXIT_UNDECIDED = 4
EXIT_LIMIT = 5


def cmd_encode(args) -> int:
    result = encode(parse_operator(args.op), args.word)
    print(f"accepted={result.accepted}")
    print(f"rejected={result.rejected}")
    print(f"consumed={result.consumed}")
    return EXIT_OK


def cmd_decode(args) -> int:
    result = decode(parse_operator(args.op), IntSetPrefix.parse(args.prefix))
    print(f"ternary={result.ternary}")
    print(f"bits={result.bits}")
    print(f"certified={len(result.bits)}")
    print(f"violations={','.join(str(v) for v in result.violations)}")
    return EXIT_OK


def cmd_member(args) -> int:
    op = parse_operator(args.op)
    verdict = is_member(op, IntSetPrefix.parse(args.prefix))
    print(f"member={'true' if verdict else 'false'}")
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_dynamics(args) -> int:
    if args.steps is None and args.limit is None:
        raise ValueError("dynamics needs --steps N or --limit L")
    if args.steps is not None and args.limit is not None:
        raise ValueError("--steps and --limit are mutually exclusive")
    if args.split and args.limit is None:
        raise ValueError("--split needs --limit L; --steps finds no limit to split")
    prefix = IntSetPrefix.parse(args.prefix)
    op = OperatorKind("normk", args.k)
    if args.steps is not None:
        record = decode_orbit(op, prefix, args.steps)
    else:
        record = find_limit(op, prefix, args.limit)
    for index, iterate in enumerate(record.iterates):
        shed = record.stars_per_step[index] if index < len(record.stars_per_step) else ""
        print(f"iterate index={index} set={iterate} stars={shed}")
    print(f"verdict={record.verdict}")
    stable = record.stabilized_prefix
    if stable is not None:
        print(f"stabilized={stable}")
    if record.iterations_to_stability is not None:
        print(f"iterations={record.iterations_to_stability}")
    if args.split and stable is not None:
        # Every prefix find_limit returns decodes with no star, so the whole of
        # it is its own decoder-fixed head.
        print(f"fixed={stable}")
        print(f"residual=@ {stable.horizon}")
        print("nontrivial=true")
    if record.verdict in ("horizon-exhausted", "insufficient-horizon"):
        return EXIT_HORIZON
    return EXIT_OK


def cmd_fixed_points(args) -> int:
    points = encoder_fixed_points(OperatorKind("normk", args.k), args.max_element)
    sys.stdout.write("".join([f"fixed-point set={prefix}\n" for prefix in points]))
    print(f"count={len(points)}")
    return EXIT_OK


def cmd_uc(args) -> int:
    op = parse_operator(args.op)
    verdict = ultimately_complete_on(op, IntSetPrefix.parse(args.prefix), args.window)
    print(f"verdict={verdict.kind}")
    if verdict.witness is not None:
        print(f"witness={verdict.witness}")
    if verdict.kind == "complete-on-window":
        return EXIT_OK
    if verdict.kind == "incomplete":
        return EXIT_FALSE
    return EXIT_UNDECIDED


def cmd_sufficient(args) -> int:
    evidence = completeness_sufficient_condition(args.k, IntSetPrefix.parse(args.prefix))
    print(f"holds={'true' if evidence.holds else 'false'}")
    print(f"in-family={'true' if evidence.in_family else 'false'}")
    print(f"augmented-escapes={'true' if evidence.augmented_escapes else 'false'}")
    print(f"witness={evidence.unit_relation if evidence.unit_relation else 'none'}")
    return EXIT_OK if evidence.holds else EXIT_FALSE


def cmd_roundtrip(args) -> int:
    op = parse_operator(args.op)
    for option, value in (("--count", args.count), ("--max-len", args.max_len)):
        if value < 0:
            raise ValueError(f"{option} must be non-negative, got {value}")
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.count):
        length = rng.randint(0, args.max_len)
        word = "".join(rng.choice("01") for _ in range(length))
        if not roundtrip_ok(op, word):
            failures += 1
            print(f"mismatch word={word}")
    print(f"checked={args.count}")
    print(f"failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_FALSE


@functools.cache  # one build per process; each takes about 1.5 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievecodec",
        description="Encode bit words as forbidden-structure-free integer sets and back",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_op(p):
        p.add_argument("--op", required=True, help="sumfree | normk:<k> | coprime | fs")

    def add_prefix(p):
        p.add_argument("prefix", help="set prefix, e.g. '2,3,5 @ 10'")

    p = sub.add_parser("encode", help="bit word -> accepted/rejected sets")
    add_op(p)
    p.add_argument("word", help="word over 01 (may be empty)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="set prefix -> ternary and bit words")
    add_op(p)
    add_prefix(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("member", help="family membership test")
    add_op(p)
    add_prefix(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("dynamics", help="iterate the norm-k decoder")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--limit", type=int, help="freeze this many leading positions")
    p.add_argument(
        "--split", action="store_true", help="print the frozen limit as its own decoder-fixed head"
    )
    add_prefix(p)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("fixed-points", help="encoder fixed points, by forced-step search")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--max-element",
        type=int,
        required=True,
        help=f"ground set [1, M]; at most {FIXED_POINT_ENUMERATION_BOUND}",
    )
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("uc", help="windowed ultimate-completeness verdict")
    add_op(p)
    p.add_argument("--window", type=int, required=True, help="window start")
    add_prefix(p)
    p.set_defaults(func=cmd_uc)

    p = sub.add_parser("sufficient", help="sufficient condition for completeness")
    p.add_argument("--k", type=int, required=True)
    add_prefix(p)
    p.set_defaults(func=cmd_sufficient)

    p = sub.add_parser("roundtrip", help="seeded random encode/decode round trips")
    add_op(p)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (CandidateCeilingExceeded, FactorBoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (MemoryError, OverflowError):  # OverflowError: a size too large to allocate at all
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
