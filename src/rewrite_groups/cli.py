"""Command-line front end.

Systems come from the built-in catalog (``--system airplane``,
``--system dendrite:3``) or from a JSON file (``--system path.json``);
elements are JSON files in the {domain, range, phi} format; rational
sequences use the grammar ``letter+ ( letter+ )`` with whitespace between
letters, e.g. ``"s b2 (r2)"``.

Exit codes: 0 success, 1 negative verdict, 2 usage error (bad arguments, a
file that cannot be read or written, JSON of the wrong shape), 3 computation
error (the library's ``ValueError``s and ``RuntimeError``s, and the
``KeyError`` of a word outside the language).  Any other exception is a bug
and ends in its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

__version__ = "0.1.0"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_COMPUTE = 3


class UsageError(ValueError):
    pass


def _read_json(path: str) -> dict:
    """The JSON object in a file; UsageError if it is unreadable, malformed or no object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise UsageError(str(e))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise UsageError(f"{path}: malformed JSON: {e}")
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object, found {type(data).__name__}")
    return data


def _load_system(spec: str):
    from .catalog import BadParams, catalog
    from .replacement import system_from_json

    if spec.endswith(".json") or os.path.sep in spec:
        data = _read_json(spec)
        _check_system_json(data, spec)
        return system_from_json(data)
    try:
        return catalog(spec)
    except BadParams as e:
        raise UsageError(str(e))


def _load_element(system, path: str):
    from .rearrangement import rearrangement_from_json

    data = _read_json(path)
    phi = data.get("phi")
    if not (isinstance(phi, list) and all(
            isinstance(e, list) and len(e) in (2, 3) and _is_names(e[0]) and _is_names(e[1])
            for e in phi)):
        raise UsageError(f"{path}: 'phi' is not a list of [cell, image] or [cell, image, flip]")
    return rearrangement_from_json(system, data)


def _is_names(x) -> bool:
    """Whether ``x`` is a list of strings: a word, or a graph's vertices."""
    return isinstance(x, list) and all(isinstance(a, str) for a in x)


def _is_graph(x) -> bool:
    """Whether ``x`` has the shape ``graph_to_json`` writes: named vertices and edges."""
    return (isinstance(x, dict) and _is_names(x.get("vertices")) and isinstance(x.get("edges"), list)
            and all(isinstance(e, dict) and all(isinstance(e.get(k), str)
                                                for k in ("id", "color", "src", "dst"))
                    for e in x["edges"]))


def _check_system_json(data: dict, path: str):
    """UsageError unless ``data`` has the shape ``system_to_json`` writes."""
    colors = data.get("colors")
    if not (isinstance(colors, list)
            and all(isinstance(c, dict) and isinstance(c.get("name"), str) for c in colors)):
        raise UsageError(f"{path}: 'colors' is not a list of named colors")
    if not _is_graph(data.get("base")):
        raise UsageError(f"{path}: 'base' is not a graph")
    rules = data.get("rules")
    for c in colors:
        entry = rules.get(c["name"]) if isinstance(rules, dict) else None
        if not _is_graph(entry):
            raise UsageError(f"{path}: the rule of color {c['name']!r} is not a graph")
        b = entry.get("boundary")
        ends = {"pair": ("iota", "tau"), "loop": ("lambda",)}.get(
            b.get("kind") if isinstance(b, dict) else None)
        if ends is None or not all(isinstance(b.get(k), str) for k in ends):
            raise UsageError(f"{path}: the rule of color {c['name']!r} has no pair or loop boundary")


def _parse_rational(text: str):
    from .replacement import RationalSequence

    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if "(" not in tokens:
        raise UsageError(f"no period in rational sequence {text!r}")
    i = tokens.index("(")
    if tokens[-1] != ")":
        raise UsageError(f"unterminated period in {text!r}")
    prefix = tuple(tokens[:i])
    period = tuple(tokens[i + 1:-1])
    if not period:
        raise UsageError(f"empty period in {text!r}")
    return RationalSequence.make(prefix, period)


def _emit(args, payload, text: str):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _write_output(args, content: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(content + "\n")
    else:
        print(content)


def cmd_catalog(args):
    from .catalog import catalog_names
    from .replacement import system_to_json

    if args.action == "list":
        for name in catalog_names():
            print(name)
        return EXIT_OK
    if args.system is None:
        raise UsageError("catalog dump needs --system")
    system = _load_system(args.system)
    if args.dot:
        from .graphs import graph_to_dot

        parts = [graph_to_dot(system.base, "base")]
        for c in system.colors:
            parts.append(graph_to_dot(system.rules[c].graph, f"rule_{c}"))
        _write_output(args, "\n".join(parts))
    else:
        _write_output(args, json.dumps(system_to_json(system), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_validate(args):
    system = _load_system(args.system)
    report = system.validate()
    payload = {
        "expanding": report.expanding,
        "loop_uniform": report.loop_uniform,
        "undirected_colors": sorted(report.undirected_colors),
        "null_expanding_isolated_colors": sorted(report.null_expanding_isolated_colors),
        "finite_branching_sufficient": report.finite_branching_sufficient,
    }
    _emit(args, payload, "\n".join(f"{k}: {v}" for k, v in payload.items()))
    return EXIT_OK


def cmd_expand(args):
    from .replacement import full_expansion

    system = _load_system(args.system)
    exp = full_expansion(system, args.depth)
    if args.dot:
        from .graphs import graph_to_dot

        content = graph_to_dot(exp.leaf_graph, f"E{args.depth}")
        with open(args.dot, "w") as fh:
            fh.write(content + "\n")
        print(f"wrote {args.dot}")
    else:
        for w in exp.cells:
            print(" ".join(w))
    return EXIT_OK


def cmd_compose(args):
    from .rearrangement import compose

    system = _load_system(args.system)
    g = _load_element(system, args.g)
    h = _load_element(system, args.h)
    out = compose(g, h)
    print(json.dumps(out.to_json(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_invert(args):
    from .rearrangement import invert

    system = _load_system(args.system)
    g = _load_element(system, args.g)
    print(json.dumps(invert(g).to_json(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_eq(args):
    system = _load_system(args.system)
    g = _load_element(system, args.g)
    h = _load_element(system, args.h)
    same = g == h
    _emit(args, {"equal": same}, "equal" if same else "different")
    return EXIT_OK if same else EXIT_NEGATIVE


def cmd_apply(args):
    system = _load_system(args.system)
    g = _load_element(system, args.g)
    if "(" in args.word:
        s = _parse_rational(args.word)
        out = g.apply_rational(s)
        _emit(args, {"image": str(out)}, str(out))
    else:
        word = tuple(args.word.split())
        out = g.apply_word(word)
        _emit(args, {"image": list(out)}, " ".join(out))
    return EXIT_OK


def cmd_conj(args):
    from . import conjugacy as cj

    system = _load_system(args.system)
    g = _load_element(system, args.g)
    h = _load_element(system, args.h)
    rules = None
    if args.augment == "airplane":
        rules = cj.augment_airplane(system)
    k = cj.conjugate(g, h, rules=rules, assume_confluent=args.assume_confluent)
    if k is None:
        _emit(args, {"conjugate": False}, "not conjugate")
        return EXIT_NEGATIVE
    # conjugate returns only a k it has verified: k^-1 g k == h
    payload = {"conjugate": True, "conjugator": k.to_json()}
    _emit(args, payload, json.dumps(k.to_json(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_confluence(args):
    from . import conjugacy as cj

    system = _load_system(args.system)
    virtual = ()
    if args.augment == "airplane":
        virtual = cj.augment_airplane(system).virtual
    verdict = cj.check_reduction_confluence(system, args.depth, virtual=virtual)
    payload = {"verdict": verdict.kind, "joined_pairs": verdict.joined_pairs}
    _emit(args, payload, verdict.kind)
    if verdict.kind == "confluent":
        return EXIT_OK
    if verdict.kind == "inconclusive" and args.strict:
        return EXIT_COMPUTE
    return EXIT_NEGATIVE


def cmd_glue_automaton(args):
    from . import gluing as gl

    system = _load_system(args.system)
    aut = gl.build(system)
    if args.dot:
        content = gl.automaton_to_dot(aut)
        with open(args.dot, "w") as fh:
            fh.write(content + "\n")
        print(f"wrote {args.dot} ({aut.state_count()} states)")
    else:
        print(json.dumps(gl.automaton_to_json(aut), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_glued(args):
    from . import gluing as gl

    system = _load_system(args.system)
    s1 = _parse_rational(args.s1)
    s2 = _parse_rational(args.s2)
    verdict = gl.glued(system, s1, s2)
    _emit(args, {"glued": verdict}, "true" if verdict else "false")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_class(args):
    from . import gluing as gl

    system = _load_system(args.system)
    s = _parse_rational(args.s)
    cls = gl.gluing_class(system, s)
    members = sorted(str(x) for x in cls)
    _emit(args, {"class": members}, "\n".join(members))
    return EXIT_OK


def cmd_stabilizer(args):
    from . import constructions as con
    from .replacement import system_to_json

    system = _load_system(args.system)
    if args.vertex:
        words = [tuple(w.split()) for w in args.cells]
        from .replacement import expansion_containing

        exp = expansion_containing(system, words) if words else None
        if exp is None:
            raise UsageError("--vertex needs --cells to locate the expansion")
        marked, cmap = con.stabilizer_vertex(system, exp, args.vertex)
    elif args.point:
        s = _parse_rational(args.point)
        marked, cmap = con.stabilizer_rational(system, s)
    else:
        raise UsageError("need --vertex or --point")
    print(json.dumps(system_to_json(marked), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_embed_v(args):
    from . import constructions as con

    system = _load_system(args.system)
    g = _load_element(system, args.g)
    out = con.embed_in_V(g)
    print(json.dumps(out.to_json(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_torsion(args):
    from . import analysis as an

    system = _load_system(args.system)
    g = _load_element(system, args.g)
    torsion, order = an.is_torsion(g)
    if torsion:
        _emit(args, {"torsion": True, "order": order}, f"torsion of order {order}")
        return EXIT_OK
    w = an.wandering_cell(g)
    ok = an.wandering_certificate(g, w, args.powers)
    payload = {"torsion": False, "wandering_cell": list(w), "verified_powers": args.powers,
               "certificate_holds": ok}
    _emit(args, payload, f"infinite order; wandering cell: {' '.join(w)} (verified {ok})")
    # like conj, which prints no unverified conjugator, a failed certificate is an error
    return EXIT_OK if ok else EXIT_COMPUTE


def cmd_phi(args):
    from . import analysis as an

    system = _load_system(args.system)
    g = _load_element(system, args.g)
    parity, deriv = an.dendrite_phi(g)
    _emit(args, {"parity": parity, "derivative": deriv}, f"({parity}, {deriv})")
    return EXIT_OK


def cmd_dot(args):
    from . import strand as sd
    from .graphs import graph_to_dot

    system = _load_system(args.system)
    if args.g:
        g = _load_element(system, args.g)
        content = sd.strand_to_dot(sd.from_rearrangement(g))
    else:
        content = graph_to_dot(system.base, "base")
    _write_output(args, content)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rewrite-groups",
        description="rearrangement groups of edge replacement systems",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, system=True):
        if system:
            sp.add_argument("--system", required=True, help="catalog id or JSON path")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        return sp

    sp = sub.add_parser("catalog", help="list or dump built-in systems")
    sp.add_argument("action", choices=["list", "dump"])
    sp.add_argument("--system", help="catalog id (for dump)")
    sp.add_argument("--dot", action="store_true")
    sp.add_argument("--out")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_catalog)

    sp = common(sub.add_parser("validate", help="validation report of a system"))
    sp.set_defaults(func=cmd_validate)

    sp = common(sub.add_parser("expand", help="full expansion cells"))
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--dot", help="write the leaf graph to a DOT file")
    sp.set_defaults(func=cmd_expand)

    sp = common(sub.add_parser("compose", help="compose two elements (g after h)"))
    sp.add_argument("g")
    sp.add_argument("h")
    sp.set_defaults(func=cmd_compose)

    sp = common(sub.add_parser("invert", help="invert an element"))
    sp.add_argument("g")
    sp.set_defaults(func=cmd_invert)

    sp = common(sub.add_parser("eq", help="compare two elements"))
    sp.add_argument("g")
    sp.add_argument("h")
    sp.set_defaults(func=cmd_eq)

    sp = common(sub.add_parser("apply", help="apply an element to a word or sequence"))
    sp.add_argument("g")
    sp.add_argument("word", help='e.g. "s 0 1" or "s b2 (r2)"')
    sp.set_defaults(func=cmd_apply)

    sp = common(sub.add_parser("conj", help="decide conjugacy, print a conjugator"))
    sp.add_argument("g")
    sp.add_argument("h")
    sp.add_argument("--augment", choices=["airplane"])
    sp.add_argument("--assume-confluent", action="store_true")
    sp.set_defaults(func=cmd_conj)

    sp = common(sub.add_parser("confluence", help="reduction-confluence verdict"))
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--augment", choices=["airplane"])
    sp.add_argument("--strict", action="store_true",
                    help="treat an inconclusive verdict as an error")
    sp.set_defaults(func=cmd_confluence)

    sp = common(sub.add_parser("glue-automaton", help="compile the gluing automaton"))
    sp.add_argument("--dot", help="write DOT to this path")
    sp.set_defaults(func=cmd_glue_automaton)

    sp = common(sub.add_parser("glued", help="decide the gluing relation"))
    sp.add_argument("s1")
    sp.add_argument("s2")
    sp.set_defaults(func=cmd_glued)

    sp = common(sub.add_parser("class", help="gluing class of a rational sequence"))
    sp.add_argument("s")
    sp.set_defaults(func=cmd_class)

    sp = common(sub.add_parser("stabilizer", help="marked system for a stabilizer"))
    sp.add_argument("--vertex", help="vertex name in the expansion leaf graph")
    sp.add_argument("--cells", nargs="*", default=[], help="words pinning the expansion")
    sp.add_argument("--point", help="rational sequence")
    sp.set_defaults(func=cmd_stabilizer)

    sp = common(sub.add_parser("embed-v", help="embed an element into Thompson's V"))
    sp.add_argument("g")
    sp.set_defaults(func=cmd_embed_v)

    sp = common(sub.add_parser("torsion", help="torsion test / wandering cell"))
    sp.add_argument("g")
    sp.add_argument("--powers", type=int, default=8)
    sp.set_defaults(func=cmd_torsion)

    sp = common(sub.add_parser("phi", help="dendrite abelianization value"))
    sp.add_argument("g")
    sp.set_defaults(func=cmd_phi)

    sp = common(sub.add_parser("dot", help="DOT output for a system or element"))
    sp.add_argument("--g", help="element file (strand diagram output)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_dot)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as e:
        _error(args, str(e), EXIT_USAGE)
        return EXIT_USAGE
    except OSError as e:  # a file that cannot be read or written
        _error(args, str(e), EXIT_USAGE)
        return EXIT_USAGE
    except (ValueError, RuntimeError, KeyError) as e:
        _error(args, f"{type(e).__name__}: {e}", EXIT_COMPUTE)
        return EXIT_COMPUTE


def _error(args, message: str, code: int):
    if getattr(args, "json", False):
        print(json.dumps({"error": message, "code": code}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
