"""Command line entry points.

Exit codes: 0 success, 1 a verification campaign found a failing instance
(or the two judgement routes disagreed), 2 usage or input errors, or a
command that ran out of memory.
"""

import argparse
import sys

from .automaton import DFA, minimize, parse_automaton_text
from .boolops import BoolFn
from .errors import TwoPathDisagreement
from .harness import CampaignConfig, REPRODUCE_IDS, reproduce, verify_theorem1
from .perm import Basis, _conjugator_text, bases_conjugate
from .product import (
    direct_product,
    flat_final_set,
    format_pair_graph,
    product_dfa,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permdfa",
        description="State complexity of boolean combinations of"
                    " permutation automata.")
    sub = parser.add_subparsers(dest="command", required=True)

    perm = sub.add_parser(
        "perm", help="permutation level utilities")
    perm_sub = perm.add_subparsers(dest="perm_command", required=True)
    conj = perm_sub.add_parser(
        "conjugate-bases",
        help="find the permutation conjugating one basis onto another")
    conj.add_argument("-n", dest="degree", type=int, required=True,
                      help="degree the permutations act on")
    conj.add_argument("--b1", required=True,
                      help="first basis, as 'S;T' in cycle notation")
    conj.add_argument("--b2", required=True,
                      help="second basis, same format")

    comp = sub.add_parser(
        "complexity",
        help="state complexity of a boolean combination of two automata")
    comp.add_argument("--left", required=True,
                      help="file with the left automaton")
    comp.add_argument("--right", required=True,
                      help="file with the right automaton")
    group = comp.add_mutually_exclusive_group(required=True)
    group.add_argument("--op", help="operation name (and, or, xor, ...)")
    group.add_argument("--table", dest="op",
                       help="4-bit truth table f(0,0)f(0,1)f(1,0)f(1,1)")

    pg = sub.add_parser(
        "pairgraph",
        help="list the pair graph components of a product")
    pg.add_argument("--left", required=True)
    pg.add_argument("--right", required=True)
    pg_group = pg.add_mutually_exclusive_group()
    pg_group.add_argument("--op")
    pg_group.add_argument("--table", dest="op")

    ver = sub.add_parser(
        "verify",
        help="run a verification campaign over basis products")
    ver.add_argument("--m", type=int, required=True,
                     help="left component state count")
    ver.add_argument("--n", type=int, required=True,
                     help="right component state count")
    mode = ver.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true",
                      help="every basis pair, final sets and operation")
    mode.add_argument("--samples", type=int, metavar="K",
                      help="number of random instances")
    ver.add_argument("--seed", type=int,
                     help="64-bit seed for sampled mode")
    ver.add_argument("--ops",
                     help="comma separated operation names or tables"
                          " (default: all ten proper operations)")
    ver.add_argument("--out", metavar="FILE",
                     help="write the TSV report here instead of stdout")

    rep = sub.add_parser(
        "reproduce",
        help="recompute one of the known worked scenarios")
    rep.add_argument("id", metavar="ID",
                     help="one of: " + ", ".join(REPRODUCE_IDS))
    rep.add_argument("--m", type=int, help="degrees for prop-1")
    rep.add_argument("--n", type=int, help="degrees for prop-1")
    return parser


def _load_automata(args, purpose=None):
    """The --left and --right automata; when purpose is given, both must be
    DFAs, and the message names the purpose their finals serve."""
    automata = []
    for path in (args.left, args.right):
        with open(path, encoding="utf-8") as fh:
            automata.append(parse_automaton_text(fh.read()))
    for path, a in zip((args.left, args.right), automata):
        if purpose is not None and not isinstance(a, DFA):
            raise ValueError(f"{path}: no final line, cannot {purpose}")
    return automata


def _cmd_conjugate_bases(args) -> int:
    b1 = Basis.parse(args.b1, args.degree)
    b2 = Basis.parse(args.b2, args.degree)
    print(_conjugator_text(bases_conjugate(b1, b2)))
    return 0


def _cmd_complexity(args) -> int:
    left, right = _load_automata(args, "combine")
    op = BoolFn.parse(args.op)
    _, complexity = minimize(product_dfa(left, right, op))
    print(complexity)
    return 0


def _cmd_pairgraph(args) -> int:
    left, right = _load_automata(
        args, None if args.op is None else "apply an operation")
    prod = direct_product(left, right)
    finals = None
    if args.op is not None:
        finals = flat_final_set(BoolFn.parse(args.op), left.finals,
                                left.state_count, right.finals,
                                right.state_count)
    sys.stdout.write(format_pair_graph(prod, finals))
    return 0


def _parse_ops(text):
    ops = tuple(BoolFn.parse(piece.strip()) for piece in text.split(",")
                if piece.strip())
    if not ops:
        raise ValueError("no operations given")
    return ops


def _cmd_verify(args, parser) -> int:
    if args.samples is not None and args.seed is None:
        parser.error("--samples requires --seed")
    if args.exhaustive and args.seed is not None:
        parser.error("--seed only applies to sampled mode")
    ops = _parse_ops(args.ops) if args.ops is not None else ()
    if args.exhaustive:
        config = CampaignConfig(args.m, args.n, mode="exhaustive", ops=ops,
                                output=args.out)
    else:
        config = CampaignConfig(args.m, args.n, mode="sample",
                                sample_count=args.samples, seed=args.seed,
                                ops=ops, output=args.out)
    out = None if args.out else sys.stdout
    result = verify_theorem1(config, out=out)
    print(result.summary(), file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_reproduce(args) -> int:
    sys.stdout.write(reproduce(args.id, args.m, args.n))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "perm":
            return _cmd_conjugate_bases(args)
        if args.command == "complexity":
            return _cmd_complexity(args)
        if args.command == "pairgraph":
            return _cmd_pairgraph(args)
        if args.command == "verify":
            return _cmd_verify(args, parser)
        if args.command == "reproduce":
            return _cmd_reproduce(args)
    except TwoPathDisagreement as exc:
        print(f"two-path disagreement: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
