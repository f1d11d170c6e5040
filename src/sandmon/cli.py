"""Command line front end.

Exit codes: 0 on success, 1 for domain errors (the typed error name is
printed), 2 for usage, file and parse errors.  All output is deterministic
for fixed inputs and flags; ``--json`` emits the machine readable report.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import errors, ktheory, monoid, realize, rewrite
from .graph import (
    SandpileGraph,
    _decimal,
    graph_to_dot,
    parse_graph,
    reduce_graph,
    validate_sandpile,
)
from .group import sandpile_group


def _step_budget(args) -> int:
    """``--budget``, else the library default; BadParameters below 0."""
    if args.budget is None:
        return rewrite.DEFAULT_STEP_BUDGET
    if args.budget < 0:
        raise errors.BadParameters(f"step budget must be >= 0, got {args.budget}")
    return args.budget


def _cap(args, default: int) -> int:
    """``--cap``, else ``default``; BadParameters for a cap below 1."""
    return monoid._check_cap(default if args.cap is None else args.cap)


def render_json(x, pad: str = "\n") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)``, byte for byte, for x
    nested behind the line break and indent ``pad``.  With an indent, json
    encodes in pure Python on Python 3.10 to 3.12; this renders the
    strings, ints, lists and str-keyed dicts of a report directly, and
    whole lists of ints with one join."""
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is int:
        return str(x)
    inner = pad + "  "
    if kind is dict and all(type(k) is str for k in x):
        if not x:
            return "{}"
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + render_json(x[k], inner) for k in sorted(x)
        ) + pad + "}"
    if kind is list or kind is tuple:
        if not x:
            return "[]"
        if set(map(type, x)) == {int}:
            items = map(str, x)
        else:
            items = (render_json(e, inner) for e in x)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", pad)


def _emit(args, payload: dict, text_lines) -> None:
    """Print ``payload`` as JSON under ``--json``, else the lines that
    ``text_lines()`` returns; only the form printed is rendered."""
    if args.json:
        print(render_json(payload))
    else:
        for line in text_lines():
            print(line)


def _load_graph(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_graph(text)


def _load_sandpile(path: str) -> SandpileGraph:
    g, hint = _load_graph(path)
    return validate_sandpile(g, sink_hint=hint)


def _invariants_fields(inv) -> dict:
    return {"invariant_factors": list(inv.torsion), "free_rank": inv.free_rank}


# ------------------------------------------------------------------- commands


def cmd_check(args) -> int:
    g = _load_sandpile(args.graph)
    reduced = g.is_reduced()
    payload = {
        "report": "check",
        "valid": True,
        "sink": g.sink_name,
        "reduced": reduced,
    }
    _emit(args, payload, lambda: [
        f"valid sandpile graph; sink={g.sink_name};"
        f" reduced={'yes' if reduced else 'no'}",
    ])
    return 0


def cmd_stabilize(args) -> int:
    g, hint = _load_graph(args.graph)
    budget = _step_budget(args)
    config_text = args.config or ""
    if args.mode == "sp":
        used = validate_sandpile(g, sink_hint=hint)
        c = rewrite.parse_config(used, config_text)
        trace = rewrite.stabilize(used, c, sink_absorbing=True)
        mode = "sink-absorbing"
    else:
        # free mode fires with the file's weights; the budget-free sandpile
        # path fires with the out-degrees, so it needs those weights or none
        try:
            used = validate_sandpile(g, sink_hint=hint)
        except errors.SandmonError:
            used = g
        if used.edges != g.edges and any(w != 1 for _, _, w in g.edges):
            used = g
        c = rewrite.parse_config(used, config_text)
        if isinstance(used, SandpileGraph):
            trace = rewrite.stabilize(used, c, sink_absorbing=False)
        else:
            trace = rewrite.stabilize_weighted(used, c, step_budget=budget)
        mode = "free"
    payload = {"report": "stabilize", "mode": mode}
    payload.update(trace.to_json(used))
    _emit(args, payload, lambda: [
        f"result: {payload['result'] or '(empty)'}",
        f"steps: {trace.steps}",
        "odometer: " + (
            ",".join(f"{used.names[v]}={k}" for v, k in enumerate(trace.odometer) if k)
            or "(none)"
        ),
    ])
    return 0


def _monoid_payload(M) -> dict:
    unit_list = monoid.units(M)
    atom_list = monoid.atoms(M)
    refinement, witness = monoid.is_refinement(M)
    ideal = monoid.smallest_ideal(M)
    invariants = monoid.abelian_invariants(ideal.group)
    cyclic = monoid.classify_cyclic_sum(M)
    return {
        "size": len(M),
        "zero": M.labels[M.zero],
        "generators": dict(sorted((M.generators or {}).items())),
        "units": [M.labels[u] for u in unit_list],
        "atoms": [M.labels[a] for a in atom_list],
        "conical": unit_list == [M.zero],
        "refinement": refinement,
        "refinement_witness": (
            [M.labels[w] for w in witness] if witness else None
        ),
        "smallest_ideal_size": len(ideal.elements),
        "smallest_ideal_identity": M.labels[ideal.identity],
        **_invariants_fields(invariants),
        "cyclic_sum": cyclic,
    }


def _monoid_lines(payload: dict) -> list:
    lines = [
        f"size: {payload['size']}",
        f"units: {', '.join(payload['units'])}",
        f"atoms: {', '.join(payload['atoms']) or '(none)'}",
        f"conical: {payload['conical']}",
        f"refinement: {payload['refinement']}",
    ]
    if payload["refinement_witness"]:
        lines.append("refinement witness: " + " , ".join(payload["refinement_witness"]))
    lines.append(
        f"smallest ideal: {payload['smallest_ideal_size']} elements,"
        f" identity {payload['smallest_ideal_identity']}"
    )
    lines.append(
        "invariant factors: "
        + (" | ".join(str(d) for d in payload["invariant_factors"]) or "(trivial)")
        + (f" + Z^{payload['free_rank']}" if payload["free_rank"] else "")
    )
    if payload["cyclic_sum"] is not None:
        lines.append(
            "cyclic sum: " + (" + ".join(f"C{n}" for n in payload["cyclic_sum"]) or "trivial")
        )
    return lines


def cmd_monoid(args) -> int:
    g = _load_sandpile(args.graph)
    try:
        M = monoid.enumerate_sandpile_monoid(g, cap=_cap(args, monoid.DEFAULT_SANDPILE_CAP))
    except errors.SizeOverBudget as exc:
        # the one command with the flag names it
        raise errors.SizeOverBudget(f"{exc} (raise it with --cap)") from None
    payload = {"report": "monoid", **_monoid_payload(M)}
    _emit(args, payload, lambda: _monoid_lines(payload))
    return 0


def cmd_wmonoid(args) -> int:
    g, _ = _load_graph(args.graph)
    sink_relations = args.variant == "with-sinks"
    cap = _cap(args, monoid.DEFAULT_WEIGHTED_CAP)
    try:
        M = monoid.enumerate_weighted_monoid(g, sink_relations=sink_relations, cap=cap)
    except errors.Inconclusive as exc:
        note = None
        try:
            inv = ktheory.cokernel(ktheory.k0_matrix(g))
            if inv.free_rank > 0:
                note = (
                    "advisory: the cokernel invariants have free rank "
                    f"{inv.free_rank}, so the monoid is infinite"
                )
        except errors.SandmonError:
            pass
        payload = {
            "report": "wmonoid",
            "variant": args.variant,
            "inconclusive": True,
            "partial_count": len(exc.partial_labels or []),
            "note": note,
        }
        _emit(args, payload, lambda: [
            f"error[{exc.name}]: {exc}",
            f"partial elements discovered: {len(exc.partial_labels or [])}",
        ] + ([note] if note else []))
        return 1
    payload = {
        "report": "wmonoid",
        "variant": args.variant,
        "inconclusive": False,
        **_monoid_payload(M),
    }
    _emit(args, payload, lambda: _monoid_lines(payload))
    return 0


def cmd_group(args) -> int:
    g = _load_sandpile(args.graph)
    group = sandpile_group(g)
    invariants = group.invariants
    payload = {
        "report": "group",
        "monoid_size": group.monoid_size,
        "size": group.size,
        "identity": group.identity_label,
        **_invariants_fields(invariants),
    }
    _emit(args, payload, lambda: [
        f"sandpile group order: {group.size}",
        f"identity: {group.identity_label}",
        f"invariant factors: {list(invariants.torsion)}",
        f"group: {invariants.describe()}",
    ])
    return 0


def cmd_k0(args) -> int:
    if args.sandpile_group:
        matrix = ktheory.sandpile_k0_matrix(_load_sandpile(args.graph))
        mode = "sandpile-group"
    else:
        g, _ = _load_graph(args.graph)
        matrix = ktheory.k0_matrix(g)
        mode = "graph"
    invariants = ktheory.cokernel(matrix)
    diag = ktheory.diagonal_from_invariants(invariants, len(matrix),
                                            len(matrix[0]) if matrix else 0)
    payload = {
        "report": "k0",
        "mode": mode,
        "matrix": matrix,
        "snf_diagonal": diag,
        **_invariants_fields(invariants),
    }
    _emit(args, payload, lambda: [
        "matrix:",
        *("  " + line for line in ktheory.matrix_to_lines(matrix)),
        f"snf diagonal: {diag}",
        f"invariant factors: {list(invariants.torsion)}",
        f"free rank: {invariants.free_rank}",
        f"group: {invariants.describe()}",
    ])
    return 0


def _realize_lines(payload: dict) -> list:
    lines = [
        f"no-cycle vertex set: {{{', '.join(payload['s_vertices'])}}}",
        f"conical: {payload['conical']}",
        f"sandpile monoid size: {payload['sp_size']}",
        f"presentation monoid size: {payload['v_monoid_size']}",
        f"compared: {payload['compared']}",
        f"sandpile group: {payload['sandpile_group']['group']}",
        f"k0: {payload['k0']['group']}",
    ]
    for key, value in sorted(payload["verdicts"].items()):
        lines.append(f"verdict {key}: {'OK' if value else 'FAILED'}")
    lines.append("overall: " + ("OK" if payload["ok"] else "FAILED"))
    return lines


def cmd_realize(args) -> int:
    g = _load_sandpile(args.graph)
    report = realize.realization(g, name=Path(args.graph).stem)
    payload = {"report": "realize", **report.to_json()}
    _emit(args, payload, lambda: _realize_lines(payload))
    return 0 if report.ok else 1


def cmd_classify(args) -> int:
    g = _load_sandpile(args.graph)
    reduced = reduce_graph(g)
    structure, witness = realize.refinement_structure(reduced)
    # a sum of cyclic monoids is a graph monoid, so a refinement monoid
    cyclic = sorted(structure.orders) if structure else None
    payload = {
        "report": "classify",
        "refinement": structure is not None,
        "classes": structure.classes if structure else None,
        "class_orders": structure.orders if structure else None,
        "cyclic_sum": cyclic,
        "witness": list(witness) if witness else None,
    }

    def lines():
        out = [f"refinement: {structure is not None}"]
        if structure:
            for members, order in zip(structure.classes, structure.orders):
                out.append(f"class {{{', '.join(members)}}} -> C{order}")
        if witness:
            out.append("witness equation: " + " , ".join(witness))
        if cyclic is not None:
            out.append("cyclic sum: " + (" + ".join(f"C{n}" for n in cyclic) or "trivial"))
        return out

    _emit(args, payload, lines)
    return 0


def cmd_prime(args) -> int:
    g = _load_sandpile(args.graph)
    case = realize.prime_order_case(g)
    payload = {"report": "prime", **case.to_json()}
    _emit(args, payload, lambda: [
        f"case: {case.kind}",
        f"monoid size: {case.size}",
        f"loops: {case.loops}",
        f"sink edges: {case.sink_edges}",
    ])
    return 0


def cmd_cycle_suite(args) -> int:
    weights = [_decimal(w.strip()) for w in args.weights.split(",") if w.strip()]
    if None in weights:
        raise errors.BadParameters(f"bad weights list {args.weights!r}")
    report = realize.cycle_suite(weights)
    payload = {"report": "cycle-suite", **report.to_json()}
    _emit(args, payload, lambda: [
        f"weights: {report.weights}",
        f"order: {report.order}",
        *(f"{key}: size {size}" for key, size in sorted(report.sizes.items())),
        "all isomorphic to C%d: %s" % (report.order, report.ok),
    ])
    return 0 if report.ok else 1


def cmd_export_dot(args) -> int:
    g, hint = _load_graph(args.graph)
    try:
        sink = validate_sandpile(g, sink_hint=hint).sink
    except errors.SandmonError:
        sink = None
    sys.stdout.write(graph_to_dot(g, sink))
    return 0


# --------------------------------------------------------------------- parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared, so callers must not
    change it.  It holds no command functions: ``main`` looks up
    ``cmd_<command>`` when it runs, so a rebound ``cmd_*`` is the one called."""
    parser = argparse.ArgumentParser(
        prog="sandmon",
        description="Sandpile and weighted graph monoids, their groups and"
                    " integer matrix invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="graph file in the text format")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    add("check", "validate a sandpile graph")

    p = add("stabilize", "stabilize a configuration")
    p.add_argument("--config", required=True, help="configuration, e.g. x=5,s=1")
    p.add_argument("--mode", choices=["sp", "free"], default="sp",
                   help="sp absorbs sink grains and needs a sandpile graph;"
                        " free retains them and works on any vertex weighted"
                        " graph")
    p.add_argument("--budget", type=int, default=None,
                   help="step budget on graphs that need not stabilize"
                        " (default: %d)" % rewrite.DEFAULT_STEP_BUDGET)

    p = add("monoid", "sandpile monoid report")
    p.add_argument("--cap", type=int, default=None)

    p = add("wmonoid", "weighted graph monoid report")
    p.add_argument("--variant", choices=["with-sinks", "no-sinks"],
                   default="with-sinks",
                   help="whether sinks contribute the relation sink = 0")
    p.add_argument("--cap", type=int, default=None)

    add("group", "sandpile group via the smallest ideal")

    p = add("k0", "cokernel invariants of the weight matrix")
    p.add_argument("--sandpile-group", action="store_true",
                   help="use the quotient by the no-cycle vertex set")

    add("realize", "certify the quotient realization")
    add("classify", "refinement structure and cyclic sum")
    add("prime", "prime order classification")

    p = sub.add_parser("cycle-suite", help="three-way cycle monoid comparison")
    p.add_argument("weights", help="comma separated weights, e.g. 2,2,1")
    p.add_argument("--json", action="store_true")
    # a weight list such as -2,1 is the positional, for cycle_suite to refuse
    p._negative_number_matcher = re.compile(r"-\d")

    p = sub.add_parser("export-dot", help="emit DOT")
    p.add_argument("graph")
    p.set_defaults(json=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except errors.GraphFormatError as exc:
        print(f"error[{exc.name}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except errors.SandmonError as exc:
        print(f"error[{exc.name}]: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
