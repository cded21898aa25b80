"""Command-line surface.

Commands: cd, classify, sk1-witness, verdict, example, selftest.
Exit codes: 0 success, 1 verification failure, 2 input error.  Every error,
input errors from argument parsing included, is reported as a JSON object
with an "error" key.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ParseError, UndefinedValueError, UsageError, ValdivError
from .grammar import parse_algebra, parse_profile, print_algebra
from .laurent import DEFAULT_PRECISION
from .ordered import is_prime
from .pipeline import SCHEMA_VERSION, run_example, selftest, sk1_witness_batch
from .profiles import profile_from_tower
from .sk1 import compute_zeta, verdict


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for line in _text_lines(payload, ""):
            print(line)


def _text_lines(value, indent):
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                yield f"{indent}{k}:"
                yield from _text_lines(v, indent + "  ")
            else:
                yield f"{indent}{k}: {v}"
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                yield f"{indent}-"
                yield from _text_lines(v, indent + "  ")
            else:
                yield f"{indent}- {v}"
    else:
        yield f"{indent}{value}"


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit."""

    def error(self, message):
        raise UsageError(message)


def _prime(text: str) -> int:
    if not (text.isdigit() and is_prime(int(text))):
        raise argparse.ArgumentTypeError(f"expected a prime, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _sizes(text: str) -> dict[str, int]:
    sizes = {}
    for piece in text.split(",") if text else []:
        name, _, count = piece.partition("=")
        if not count.strip().isdigit():
            raise argparse.ArgumentTypeError(f"bad sizes entry {piece!r}")
        sizes[name.strip()] = int(count)
    return sizes


def _add_common(parser):
    parser.add_argument(
        "--precision", type=_positive, default=DEFAULT_PRECISION, help="relative series precision"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized routines")
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(
        prog="valdiv",
        description="Exact invariants of valued division algebras over Laurent towers",
    )
    sub = root.add_subparsers(dest="command", required=True)

    p_cd = sub.add_parser("cd", help="cohomological dimension of a profile")
    p_cd.add_argument("--profile", required=True)
    p_cd.add_argument("--q", type=_prime, required=True)
    _add_common(p_cd)

    p_cls = sub.add_parser("classify", help="ramification report of an algebra")
    p_cls.add_argument("--algebra", required=True)
    _add_common(p_cls)

    p_wit = sub.add_parser("sk1-witness", help="commutator witnesses for norm-one elements")
    p_wit.add_argument("--algebra", required=True)
    p_wit.add_argument("--count", type=_positive, default=5)
    _add_common(p_wit)

    p_ver = sub.add_parser("verdict", help="triviality verdict for an algebra")
    p_ver.add_argument("--profile", default=None, help="override the tower-derived profile")
    p_ver.add_argument("--algebra", required=True)
    p_ver.add_argument("--q", type=_prime, required=True)
    _add_common(p_ver)

    p_ex = sub.add_parser("example", help="run a packaged worked example")
    p_ex.add_argument("number", type=int, choices=(1, 2, 3))
    _add_common(p_ex)

    p_self = sub.add_parser("selftest", help="run the property suites")
    p_self.add_argument(
        "--sizes",
        type=_sizes,
        default="",
        help="comma-separated name=count overrides, e.g. lattice=50,norms=10",
    )
    _add_common(p_self)

    return root


def main(argv=None) -> int:
    fmt = "json"
    try:
        args = build_parser().parse_args(argv)
        fmt = args.format
        payload, code = _dispatch(args)
    except ValdivError as exc:
        payload = {"error": str(exc)}
        code = 2 if isinstance(exc, (ParseError, UndefinedValueError, UsageError)) else 1
    _emit({"schema": SCHEMA_VERSION, **payload}, fmt)
    return code


def _dispatch(args) -> tuple[dict, int]:
    """The command's payload, without the schema key, and its exit code."""
    if args.command == "cd":
        profile = parse_profile(args.profile)
        result = profile.cd_q(args.q)
        payload = {
            "profile": profile.describe(),
            "q": args.q,
            "r_q": profile.r_q(args.q),
            "cd_q": result.describe(),
            "kind": result.kind,
            "value": result.value,
        }
        return payload, 0

    if args.command == "classify":
        algebra = parse_algebra(args.algebra, default_prec=args.precision)
        return algebra.classify().to_json(), 0

    if args.command == "sk1-witness":
        algebra = parse_algebra(args.algebra, default_prec=args.precision)
        batch = sk1_witness_batch(algebra, count=args.count, seed=args.seed)
        payload = {"algebra": print_algebra(algebra), "witnesses": batch}
        return payload, 0 if all(w["verified"] for w in batch) else 1

    if args.command == "verdict":
        algebra = parse_algebra(args.algebra, default_prec=args.precision)
        report = algebra.classify()
        profile = (
            parse_profile(args.profile)
            if args.profile
            else profile_from_tower(algebra.tower)
        )
        v = verdict(profile, report, args.q)
        payload = {
            "algebra": print_algebra(algebra),
            "profile": profile.describe(),
            "q": args.q,
            "zeta": compute_zeta(report).zeta,
            "verdict": v.to_json(),
        }
        return payload, 0

    if args.command == "example":
        return run_example(args.number, precision=args.precision, seed=args.seed), 0

    if args.command == "selftest":
        payload = selftest(seed=args.seed, sizes=args.sizes)
        return payload, 0 if payload["ok"] else 1

    raise ValdivError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
