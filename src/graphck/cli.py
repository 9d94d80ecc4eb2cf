"""Batch command-line front end with reproducible JSON reports.

Exit codes: 0 success (and verification pass), 1 verification failure,
2 input error (unparseable graph, bad flags, guard or work budget exceeded).

``main`` may be called many times in one process.  It builds the argparse
tree on its first call and keeps it in ``_PARSER``: ``parse_args`` leaves a
parser unchanged and reads the help width and the output streams only when
it prints.  The tree is no ``lru_cache``, whose ``cache_clear`` benchmarks
call between tasks; like a compiled regex, it depends on no input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .algebra import diagonal, element_w_normal_form
from .cycles import canonical_cutting_set, entrance_free_classes, simple_cycles
from .exact import ExactnessError, Phase, as_phase, from_phase
from .expr import ExprError, parse_element
from .graph import GraphError, is_cofinal, parse_graph, sources
from .reps import (
    BOUNDARY,
    LEFT_REGULAR,
    OMEGA,
    TWISTED,
    boundary,
    extract_kappa,
    left_regular,
    omega,
    twisted_boundary,
    verify_relations,
)
from .tails import prim_ideal_catalog
from .transform import reduced_graph, toeplitz_graph

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

_PARSER = None  # built by the first ``main`` call


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _report(command: str, g, result: dict) -> dict:
    return {
        "command": command,
        "fingerprint": g.fingerprint(),
        "version": __version__,
        "result": result,
    }


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        _print_pretty(report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _print_pretty(report: dict, prefix: str = "") -> None:
    print(f"{prefix}command : {report['command']}")
    print(f"{prefix}graph   : {report['fingerprint'][:16]}")
    for key, value in sorted(report["result"].items()):
        if isinstance(value, list):
            print(f"{prefix}{key}:")
            for item in value:
                print(f"{prefix}  - {json.dumps(item, sort_keys=True)}")
        else:
            print(f"{prefix}{key}: {json.dumps(value, sort_keys=True)}")


def _cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    classes = entrance_free_classes(g)
    cofinal = is_cofinal(g)
    result = {
        "sources": list(sources(g)),
        "simpleCycles": [c.render() for c in simple_cycles(g)],
        "entranceFreeClasses": [list(c.representative.edges) for c in classes],
        "cuttingSet": list(canonical_cutting_set(g)),
        "cofinal": cofinal,
        "simple": cofinal,
    }
    _emit(_report("analyze", g, result), args.pretty)
    return EXIT_OK


def _cmd_transform(args) -> int:
    g = _load_graph(args.graph)
    if args.toeplitz:
        tg = toeplitz_graph(g)
        emitted = tg.graph
        result = {
            "kind": "toeplitz",
            "alphaVertices": dict(tg.alpha_v),
            "betaVertices": dict(tg.beta_v),
            "alphaEdges": dict(tg.alpha_e),
            "betaEdges": dict(tg.beta_e),
            "graphText": emitted.to_text(),
        }
    else:
        cutting = (
            tuple(args.cutting_set.split(","))
            if args.cutting_set
            else canonical_cutting_set(g)
        )
        rg = reduced_graph(g, cutting)
        emitted = rg.graph
        result = {
            "kind": "reduced",
            "cuttingSet": list(rg.cutting_set),
            "vertexMap": dict(rg.zeta_v),
            "edgeMap": dict(rg.zeta_e),
            "graphText": emitted.to_text(),
        }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(emitted.to_text())
    _emit(_report("transform", g, result), args.pretty)
    return EXIT_OK


def _cmd_tails(args) -> int:
    g = _load_graph(args.graph)
    target = toeplitz_graph(g).graph if args.toeplitz_of else g
    catalog = prim_ideal_catalog(target)
    result = {
        "over": "toeplitz" if args.toeplitz_of else "input",
        "tails": [
            {
                "vertices": sorted(t.vertices),
                "kind": t.kind,
                **(
                    {"class": list(t.cycle_class.representative.edges)}
                    if t.cycle_class
                    else {}
                ),
            }
            for t in (d.tail for d in catalog)
        ],
        "primIdeals": [
            {
                "kind": d.kind,
                "vertices": sorted(d.tail.vertices),
                "generators": list(d.generators),
            }
            for d in catalog
        ],
    }
    _emit(_report("tails", g, result), args.pretty)
    return EXIT_OK


def _parse_kappa(text: str) -> dict[str, Phase]:
    table: dict[str, Phase] = {}
    for item in text.split(","):
        if ":" not in item:
            raise GraphError(f"malformed kappa entry {item!r}; use edge:num/den")
        edge, turn = item.split(":", 1)
        edge = edge.strip()
        if edge in table:
            raise GraphError(f"kappa names edge {edge!r} twice")
        try:
            table[edge] = Phase(Fraction(turn.strip()))
        except (ValueError, ZeroDivisionError) as err:
            raise GraphError(f"malformed kappa phase {turn!r}") from err
    return table


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    if args.rep == TWISTED:
        table = _parse_kappa(args.kappa) if args.kappa else {}
        try:
            rep = twisted_boundary(g, table)
        except GraphError as err:
            if not args.kappa:
                raise GraphError(
                    "--rep=twisted requires --kappa covering each "
                    "entrance-free class"
                ) from err
            raise
    else:
        if args.kappa:
            raise GraphError("--kappa only applies to --rep=twisted")
        rep = {
            LEFT_REGULAR: left_regular,
            BOUNDARY: boundary,
            OMEGA: omega,
        }[args.rep](g)
    report = verify_relations(rep, args.level, args.depth)
    result = {
        "rep": args.rep,
        "level": report.level,
        "depth": report.depth,
        "pass": report.passed,
        "failures": [
            {"relation": f.relation, "witness": f.witness} for f in report.failures
        ],
    }
    if args.rep == TWISTED:
        found = report.scalars if report.scalars is not None else extract_kappa(rep).items()
        entries = []
        for cls, value in sorted(found, key=lambda kv: kv[0].representative.edges):
            value = as_phase(value)  # --kappa holds rational turns, so each value is a Phase
            entries.append({"class": cls.representative.render(), "turn": str(value.turn),
                            "value": from_phase(value).render(polar=True)})
        result["kappa"] = entries
    _emit(_report("verify", g, result), args.pretty)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_expect(args) -> int:
    g = _load_graph(args.graph)
    element = parse_element(g, args.element)
    polar = "@" in args.element  # the print style follows the input's
    normal = element_w_normal_form(g, element)
    result = {
        "element": element.render(polar),
        "wNormalForm": normal.render(polar),
        "expectation": diagonal(normal).render(polar),
    }
    _emit(_report("expect", g, result), args.pretty)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphck",
        description="Symbolic analysis of Cuntz-Krieger families on finite graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("graph", help="graph description file")
        p.add_argument("--pretty", action="store_true", help="human-readable output")

    p = sub.add_parser("analyze", help="cycles, cutting sets, cofinality/simplicity")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("transform", help="emit the Toeplitz or reduced graph")
    common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--toeplitz", action="store_true")
    mode.add_argument("--reduce", action="store_true")
    p.add_argument("--cutting-set", help="comma-separated edge ids (reduce mode)")
    p.add_argument("--output", help="also write the emitted graph to this file")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("tails", help="maximal tails and primitive-ideal catalog")
    common(p)
    p.add_argument(
        "--toeplitz-of",
        action="store_true",
        help="catalog the Toeplitz graph of the input instead of the input",
    )
    p.set_defaults(func=_cmd_tails)

    p = sub.add_parser("verify", help="check family relations in a representation")
    common(p)
    p.add_argument(
        "--rep",
        required=True,
        choices=[LEFT_REGULAR, BOUNDARY, OMEGA, TWISTED],
    )
    p.add_argument(
        "--level", required=True, choices=["tck", "ck", "reduced", "normalized"]
    )
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--kappa", help="edge:num/den[,edge:num/den...] phase turns")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("expect", help="W-normal form and diagonal expectation")
    common(p)
    p.add_argument("--element", required=True, help="element expression")
    p.set_defaults(func=_cmd_expect)

    return parser


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (
        GraphError,
        ExprError,
        ExactnessError,
        ValueError,
        OSError,
    ) as err:
        print(f"graphck: error: {err}", file=sys.stderr)
        return EXIT_INPUT


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
