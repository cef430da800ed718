"""Command-line front end.

Each subcommand handler maps the parsed arguments to the chunks of its
text; main alone writes them, to --output or stdout, and maps errors to
exit statuses: 0 success, 1 domain errors (too-large, invalid-size, ...),
2 usage errors.  A reader that closes stdout early (`| head`) ends the
run quietly with status 0.  All output is deterministic for a fixed
argument vector.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain
from typing import Iterable, Iterator

from . import counting, domination, reconfig, verify
from .errors import DomGraphError
from .graphs import (
    FAMILY_KINDS,
    Graph,
    cartesian,
    corona,
    from_json,
    join,
    ladder,
    make_family,
    to_dot,
    to_json,
)


class UsageError(Exception):
    """Bad flag combinations detected after argparse; maps to exit 2."""


PRODUCT_OPS = {"join": join, "corona": corona, "cartesian": cartesian}
# the --family choices and the product factor kinds
_FAMILIES = (*FAMILY_KINDS, "ladder")


def _family_graph(kind: str, n: int) -> Graph:
    """A --family graph or product factor: a make_family kind, or the ladder L_n."""
    return ladder(n) if kind == "ladder" else make_family(kind, n)


def _parse_product(expr: str) -> Graph:
    """Prefix product syntax: op:family:n,family:n e.g. join:complete:2,complete:2."""
    op, sep, rest = expr.partition(":")
    if not sep or op not in PRODUCT_OPS:
        raise UsageError(
            f"bad product {expr!r}; expected op:family:n,family:n with op in {sorted(PRODUCT_OPS)}"
        )
    parts = rest.split(",")
    if len(parts) != 2:
        raise UsageError(f"product {expr!r} needs exactly two factors")
    factors = []
    for part in parts:
        bits = part.split(":")
        if len(bits) != 2:
            raise UsageError(f"bad factor {part!r}; expected family:n")
        kind, n_text = bits
        if kind not in _FAMILIES:
            raise UsageError(f"unknown family {kind!r}; expected one of {_FAMILIES}")
        try:
            n = int(n_text)
        except ValueError:
            raise UsageError(f"bad factor size {n_text!r}") from None
        factors.append(_family_graph(kind, n))
    return PRODUCT_OPS[op](factors[0], factors[1])


def _resolve_graph(args) -> Graph:
    sources = [s for s in ("family", "product", "input") if getattr(args, s, None)]
    if len(sources) != 1:
        raise UsageError("give exactly one of --family, --product, --input")
    if args.family:
        if args.n is None:
            raise UsageError("--family needs --n")
        return _family_graph(args.family, args.n)
    if args.product:
        return _parse_product(args.product)
    with open(args.input, encoding="utf-8") as fh:
        return from_json(fh.read())


def _joined(sep: str, texts: Iterable[str]) -> Iterator[str]:
    """The chunks of sep.join(texts)."""
    return (sep + text if i else text for i, text in enumerate(texts))


def _table(rows: list[tuple[str, object]]) -> str:
    width = max(len(label) for label, _ in rows)
    return "".join(f"{label:<{width}}  {value}\n" for label, value in rows)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_family(args) -> Iterable[str]:
    g = _resolve_graph(args)
    if args.format == "json":
        return [to_json(g) + "\n"]
    if args.format == "dot":
        return [to_dot(g)]
    degs = g.degree_sequence()
    return [_table([
        ("vertices", g.n),
        ("edges", g.m),
        ("degree range", f"{min(degs)}..{max(degs)}"),
        ("edge list", " ".join(f"{{{u},{v}}}" for u, v in g.edges_1based()) or "-"),
    ])]


def _cmd_dominating(args) -> Iterable[str]:
    g = _resolve_graph(args)
    family = domination.enumerate_dominating(g, args.k, cap=args.cap)
    if args.format == "json":
        return chain(family.json_chunks(), ["\n"])
    if args.format == "csv":
        rows = (f"{g.n},{j},{c}\n" for j, c in enumerate(family.by_card) if c)
        return chain(["n,j,count\n"], rows)
    rows = [("graph n", g.n), ("bound k", family.k), ("dominating sets", len(family))]
    rows += [(f"cardinality {j}", c) for j, c in enumerate(family.by_card) if c]
    return [_table(rows)]


def _reconfig_stats(s: reconfig.Stats) -> str:
    if not s.order:
        return _table([
            ("order", 0),
            ("warning", "k below the domination number; graph is empty"),
        ])
    return _table([
        ("order", s.order),
        ("size", s.size),
        ("parts", "/".join(map(str, s.parts))),
        ("min degree", s.min_degree),
        ("max degree", s.max_degree),
        ("components", s.components),
    ])


def _cmd_reconfig(args) -> Iterable[str]:
    g = _resolve_graph(args)
    if args.format == "table":  # the statistics need no adjacency
        nodes = domination.enumerate_dominating(g, args.k, cap=args.cap)
        return [_reconfig_stats(reconfig.stats(g, nodes))]
    r = reconfig.build(g, args.k, cap=args.cap)
    if args.format == "json":
        return chain(reconfig.json_chunks(r), ["\n"])
    return reconfig.dot_chunks(r)


def _cmd_count(args) -> Iterable[str]:
    """Every format is a head, one chunk per order or triangle row joined by a
    separator, and a tail; the JSON is byte-equal to json.dumps(...) + "\n"."""
    family = args.family
    if args.sums:
        items = enumerate(counting.order_texts(family, args.n_max), start=1)
        head, text, sep, tail = {
            "csv": ("family,n,order\n", lambda n, v: f"{family},{n},{v}\n", "", ""),
            "json": (f'{{"family": {json.dumps(family)}, "orders": [',
                     lambda n, v: v, ", ", "]}\n"),
            "table": ("", lambda n, v: v, ",", "\n"),
        }[args.format]
    else:
        items = counting.triangle_rows(family, args.n_max)
        # str.join takes a list comprehension of str(c) faster than map(str, row)
        head, text, sep, tail = {
            "csv": ("family,n,j,count\n", lambda n, row: "".join(
                [f"{family},{n},{j},{c}\n" for j, c in enumerate(row) if c]), "", ""),
            "json": (f'{{"family": {json.dumps(family)}, "rows": {{',
                     lambda n, row: f'"{n}": [{", ".join([str(c) for c in row])}]', ", ", "}}\n"),
            "table": ("", lambda n, row: f"{n}: {' '.join([str(c) for c in row])}\n", "", ""),
        }[args.format]
    return chain([head], _joined(sep, (text(n, item) for n, item in items)), [tail])


def _cmd_verify(args) -> Iterable[str]:
    records = verify.verify_suite(args.suite, max_n=args.max_n, seed=args.seed)
    if args.format == "json":
        report = verify.report_to_json_obj(records, args.suite, args.max_n)
        return [json.dumps(report, indent=2) + "\n"]
    width = max(len(r.check) for r in records)
    lines = []
    for r in records:
        lines.append(f"{r.status.upper():<7} {r.check:<{width}}  [{r.range}]")
        if r.status != "pass":
            lines.append(f"        claimed:  {r.expected}")
            lines.append(f"        observed: {r.observed}")
        if r.note:
            lines.append(f"        note: {r.note}")
    counts = verify.status_counts(records)
    lines.append(
        f"{len(records)} checks: {counts['pass']} pass, "
        f"{counts['erratum']} erratum, {counts['fail']} fail"
    )
    return ["\n".join(lines) + "\n"]


def _cmd_export(args) -> Iterable[str]:
    # export writes what `reconfig` (with --k) or `family` writes in the same format
    return (_cmd_family if args.k is None else _cmd_reconfig)(args)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The domgraph parser: one per process, built on the first call.

    parse_args leaves a parser unchanged (each call fills a fresh Namespace,
    and every default is immutable), so main reuses this one.  The handlers
    bound by set_defaults(func=...), the --suite choices and the --cap
    default are fixed when it is built.
    """
    parser = argparse.ArgumentParser(
        prog="domgraph",
        description="Dominating sets, k-dominating reconfiguration graphs, "
        "and exact counting formulas.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--family", choices=_FAMILIES)
    spec.add_argument("--n", type=int, help="family size")
    spec.add_argument("--product", help="op:family:n,family:n (op: join|corona|cartesian)")
    spec.add_argument("--input", help="graph JSON file")
    spec.add_argument("--output", help="write to this path instead of stdout")
    spec.add_argument("--cap", type=int, default=domination.ENUMERATION_CAP,
                      help="enumeration cap override")

    p = sub.add_parser("family", parents=[spec], help="construct and print a graph")
    p.add_argument("--format", choices=["table", "json", "dot"], default="table")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("dominating", parents=[spec], help="enumerate dominating sets")
    p.add_argument("--k", type=int, help="cardinality bound (default: n)")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.set_defaults(func=_cmd_dominating)

    p = sub.add_parser("reconfig", parents=[spec], help="build and analyze D_k(G)")
    p.add_argument("--k", type=int, help="cardinality bound (default: n)")
    p.add_argument("--stats", action="store_true", help="print summary statistics (default)")
    p.add_argument("--format", choices=["table", "json", "dot"], default="table")
    p.set_defaults(func=_cmd_reconfig)

    p = sub.add_parser("count", help="triangles and order sequences from the recurrences")
    p.add_argument("--family", choices=["path", "cycle"], required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--sums", action="store_true", help="emit order sums instead of the triangle")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="cross-check formulas against the enumeration oracle")
    p.add_argument("--suite", choices=[*verify.SUITES, "all"], default="all")
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--seed", type=int, default=0, help="seed for the random parity samples")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", parents=[spec], help="write a graph or D_k(G) to json/dot")
    p.add_argument("--k", type=int, help="export D_k(G) instead of G")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # counts are exact integers of any length: lift Python's int-to-str digit limit
    # (3.11+) while the chunks, some lazy, are made and written, then restore it
    set_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_digits(0)
    try:
        chunks = args.func(args)  # a handler checks its arguments before --output is opened
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return 0
    except BrokenPipeError:
        # the reader took what it wanted: point stdout at devnull, as Python's
        # signal docs advise, so the flush at exit writes nowhere
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):  # no descriptor (io.UnsupportedOperation)
            return 0
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomGraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        set_digits(digits)


if __name__ == "__main__":
    raise SystemExit(main())
