"""Command-line front end.

Every subcommand prints JSON on stdout, exactly as json.dumps(data,
indent=1) writes it, and a newline.  Exit codes: 0 on success, 1 when a
verification check fails, 2 on usage or notation errors, and 141 (128 +
SIGPIPE, as for a process killed by a closed pipe) when the reader of stdout
goes away first.  Rational numbers are serialized as "p/q" strings, never as
decimals.
"""

import functools
import json
import math
import os
import sys
import types

# the commands that need the pencil, polynomial, field or verification layer
# import it when they run, so the dual-graph commands never load them
from . import discrepancy, feasibility, graphs
from .graphs import DynkinSyntaxError


_escape = json.encoder.encode_basestring_ascii


def _encode(o, newline):
    """o as one string, the text json.dumps(o, indent=1) writes for it when
    it starts on the line that `newline` (a line break and the line's
    indentation) opens.  Takes dicts with str keys, lists, tuples, str,
    int, bool, None and finite float; anything else raises TypeError."""
    t = type(o)
    if t is int:
        return int.__repr__(o)
    if t is str:
        return _escape(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = newline + " "
        # most elements are ints or strs, written inline: a call for each
        # would cost more than its text
        return "[" + inner + ("," + inner).join([
            int.__repr__(x) if type(x) is int else _escape(x) if type(x) is str
            else _encode(x, inner) for x in o
        ]) + newline + "]"
    if t is dict:
        if not o:
            return "{}"
        inner = newline + " "
        # the C escape raises TypeError on a key that is not a str
        return "{" + inner + ("," + inner).join([
            _escape(k) + ": " + (_escape(v) if type(v) is str else _encode(v, inner))
            for k, v in o.items()
        ]) + newline + "}"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is float and math.isfinite(o):
        return float.__repr__(o)
    raise TypeError(f"cannot write {o!r} of type {t.__name__} as JSON")


def _write(o, newline, depth, write, lead=""):
    """Write lead and then o as _encode(o, newline) returns it, one piece
    per element of the containers `depth` levels down and each element
    below them as one string, so no whole document is held."""
    t = type(o)
    if not (depth and o and (t is dict or t is list or t is tuple)):
        write(lead + _encode(o, newline))
        return
    inner = newline + " "
    if t is dict:
        lead += "{"
        for k, v in o.items():
            _write(v, inner, depth - 1, write, lead + inner + _escape(k) + ": ")
            lead = ","
        write(newline + "}")
    else:
        lead += "["
        for v in o:
            _write(v, inner, depth - 1, write, lead + inner)
            lead = ","
        write(newline + "]")


def _emit(data):
    """Print data exactly as json.dumps(data, indent=1) and a newline, in
    one piece per top-level or second-level element."""
    write = sys.stdout.write
    _write(data, "\n", 2, write)
    write("\n")


def _type_json(t):
    return {
        "notation": graphs.format_dynkin(t),
        "components": [
            dict(graphs.graph_to_json(g), notation=graphs.format_graph(g))
            for g in t.sorted_components()
        ],
    }


def cmd_parse(args):
    _emit(_type_json(graphs.parse_dynkin(args.notation)))


def cmd_det(args):
    t = graphs.parse_dynkin(args.notation)
    comps = [
        {"notation": graphs.format_graph(g), "determinant": graphs.graph_determinant(g)}
        for g in t.sorted_components()
    ]
    total = 1
    for c in comps:
        total *= c["determinant"]
    _emit({"notation": graphs.format_dynkin(t), "components": comps, "determinant": total})


def _ratio(p, q):
    """str(Fraction(p, q)) for q > 0, without making the Fraction."""
    k = math.gcd(p, q)
    return str(p // k) if k == q else f"{p // k}/{q // k}"


def cmd_report(args):
    t = graphs.parse_dynkin(args.notation)
    rep = feasibility.feasibility_report(t)
    data = feasibility.report_to_json(rep)
    data["discrepancies"] = [
        {"component": graphs.format_graph(g), "e": [_ratio(x, delta) for x in scaled]}
        for g in t.sorted_components()
        for delta, scaled in [discrepancy.scaled_discrepancies(g)]
    ]
    try:
        comp, vertex, e0 = discrepancy.select_hunt_divisor(t)
        data["hunt"] = {
            "component": graphs.format_graph(comp),
            "vertex": vertex,
            "coefficient": str(e0),
        }
    except discrepancy.AllDuValError:
        data["hunt"] = None
    _emit(data)


def _integer(text):
    """int(text) for an optional sign and ASCII digits only, not whitespace,
    "_" or other digits.  Its error is a ValueError, and for argparse, whose
    type it is for --max-a and --char, int()'s message."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits and graphs._DIGITS.issuperset(digits):
        return int(text)
    import argparse

    class IntegerError(argparse.ArgumentTypeError, ValueError):
        pass

    raise IntegerError(f"invalid int value: {text!r}")


def _parse_incidence(text):
    """The comma-separated integers of --incidence, as a tuple."""
    try:
        return tuple(_integer(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--incidence {text!r}: expected comma-separated integers") from None


def cmd_lct(args):
    t = graphs.parse_dynkin(args.notation)
    comps = t.sorted_components()
    if len(comps) != 1:
        raise DynkinSyntaxError("lct expects a single connected graph", 0)
    g = comps[0]
    a = _parse_incidence(args.incidence)
    value = discrepancy.lct_min_resolution(g, a)
    cls = discrepancy.classify_incidence(g, a)
    _emit(
        {
            "notation": graphs.format_graph(g),
            "incidence": a,
            "lct_upper_bound": str(value),
            "exact_on_minimal_resolution": cls.verdict == discrepancy.LOG_RESOLUTION,
            "case": cls.case,
            "verdicts": cls.verdicts,
            "pairing": _ratio(cls.scaled, graphs.graph_determinant(g)),
        }
    )


# lemma42 sweeps C(max_a + n, n) - 1 incidence vectors on n vertices and
# prints n entries for each.  Both counts are bounded: at the cell bound,
# "[2^1000]" with --max-a 1 takes 0.7-1.1 s (Python 3.11, 2 cores), and the
# vector bound keeps 6 vertices near 1.1 s
MAX_SWEEP_VECTORS = 100_000
MAX_SWEEP_CELLS = 1_000_000


def _sweep_size(n, max_a):
    """C(max_a + n, n) - 1, or None once it passes 10**18."""
    small, large = sorted((n, max_a))
    count = 1
    for k in range(1, small + 1):
        count = count * (large + k) // k  # C(large + k, k), exactly
        if count > 10**18:
            return None
    return count - 1


def cmd_lemma42(args):
    if args.max_a < 1:
        raise ValueError(f"--max-a {args.max_a}: must be at least 1")
    t = graphs.parse_dynkin(args.notation)
    comps = t.sorted_components()
    if len(comps) != 1:
        raise DynkinSyntaxError("the incidence sweep expects a single connected graph", 0)
    g = comps[0]
    n = len(g.weights)
    count = _sweep_size(n, args.max_a)
    if count is None or count > MAX_SWEEP_VECTORS:
        shown = "more than 10^18" if count is None else count
        raise ValueError(
            f"--max-a {args.max_a} on {n} vertices gives {shown} incidence vectors, "
            f"above the bound of {MAX_SWEEP_VECTORS}"
        )
    if count * n > MAX_SWEEP_CELLS:
        raise ValueError(
            f"--max-a {args.max_a} on {n} vertices gives {count} incidence vectors of "
            f"{n} entries, {count * n} cells, above the bound of {MAX_SWEEP_CELLS}"
        )
    # every check that can raise runs here, before the first byte is written
    _, mismatches = discrepancy.closed_form_check(g, args.max_a)
    delta = graphs.graph_determinant(g)
    write = sys.stdout.write
    # the text _emit writes for the document, each row as one piece
    write(
        '{\n "notation": ' + _escape(graphs.format_graph(g))
        + ',\n "max_a": ' + str(args.max_a)
        + ',\n "closed_form_matches_solver": ' + ("false" if mismatches else "true")
        + ',\n "rows": ['
    )
    lead = "\n  {"
    for a, scaled, cls in discrepancy.incidence_sweep(g, args.max_a):
        row = (
            lead + '\n   "incidence": [\n    ' + ",\n    ".join(map(str, a))
            + '\n   ],\n   "pairing": "' + _ratio(scaled, delta) + '"'
        )
        if cls is not None:
            if cls.case is not None:
                row += ',\n   "case": ' + _escape(cls.case)
            row += ',\n   "verdicts": ' + _encode(cls.verdicts, "\n   ")
        write(row + "\n  }")
        lead = ",\n  {"
    write("\n ]\n}\n")


def cmd_hunt(args):
    t = graphs.parse_dynkin(args.notation)
    comp, vertex, e0 = discrepancy.select_hunt_divisor(t)
    _emit(
        {
            "component": graphs.format_graph(comp),
            "vertex": vertex,
            "coefficient": str(e0),
        }
    )


# table1's largest n or m: --n 0..100 --m 1..100 takes about 1 s, and
# the time grows faster than quadratically in the upper bounds
MAX_TABLE1_PARAM = 100


def _parse_range(flag, text):
    """'k' or 'lo..hi' with integer bounds, lo no less than the parameter's
    least value in Table 1 and lo <= hi <= MAX_TABLE1_PARAM, as (lo, hi)."""
    lo, sep, hi = text.partition("..")
    try:
        bounds = (_integer(lo), _integer(hi if sep else lo))
    except ValueError:
        raise ValueError(f"{flag} {text!r}: expected an integer or a range lo..hi") from None
    if bounds[0] > bounds[1]:
        raise ValueError(f"{flag} {text!r}: empty range, lower bound above upper bound")
    if bounds[1] > MAX_TABLE1_PARAM:
        raise ValueError(f"{flag} {text!r}: upper bound above {MAX_TABLE1_PARAM}")
    name = flag.lstrip("-")
    least = min(b[name][0] for b, _ in graphs.TABLE1_FAMILIES.values() if name in b)
    if bounds[0] < least:
        raise ValueError(f"{flag} {text!r}: lower bound below {least}")
    return bounds


def _parse_l(text):
    """None for 'all', else the set of comma-separated integers, each within
    the union of the Table 1 families' l ranges."""
    if text == "all":
        return None
    try:
        values = {_integer(x) for x in text.split(",")}
    except ValueError:
        raise ValueError(f"--l {text!r}: expected 'all' or comma-separated integers") from None
    allowed = {
        v
        for bounds, _ in graphs.TABLE1_FAMILIES.values()
        if "l" in bounds
        for v in range(bounds["l"][0], bounds["l"][1] + 1)
    }
    if not values <= allowed:
        raise ValueError(
            f"--l {text!r}: every value must lie in {min(allowed)}..{max(allowed)}, "
            "the l values of the Table 1 families"
        )
    return values


def cmd_table1(args):
    n_range = _parse_range("--n", args.n)
    m_range = _parse_range("--m", args.m)
    l_values = _parse_l(args.l)
    seen = set()
    out = []
    for inst, t in graphs.table1_enumerate(n_range, m_range, l_values):
        key = t.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        out.append(
            {
                "family": inst.family,
                "params": dict(inst.params),
                "type": graphs.format_dynkin(t),
            }
        )
    _emit({"count": len(out), "instances": out})


# pencil's largest characteristic: the members are found by trying every
# residue mod p, and the field checks p by trial division, so the time grows
# linearly in p; --char 1000003 takes 0.15-0.28 s in a fresh process, the
# residue loop nearly all of it (Python 3.11.7, 2 cores)
MAX_PENCIL_CHAR = 1_000_003


def cmd_pencil(args):
    p = args.char
    if p > MAX_PENCIL_CHAR:
        raise ValueError(f"--char {p}: above the bound of {MAX_PENCIL_CHAR}")
    from . import pencil
    from .fields import QQ, PrimeField
    from .poly import poly_to_json
    field = QQ if p == 0 else PrimeField(p)
    locus = pencil.pencil_singular_locus(field)
    double = pencil.quadratic_factor_double_root(field)
    data = {
        "characteristic": p,
        "singular_locus": poly_to_json(locus),
        "quadratic_factor_has_double_root": double,
        "members": [],
    }
    if p:
        # rational roots of the quadratic factor t^2 + 11st - s^2 at s = 1
        for t0 in range(p):
            if (t0 * t0 + 11 * t0 - 1) % p == 0:
                rep = pencil.classify_singular_member(field, (1, t0))
                data["members"].append(
                    {"parameter": [1, t0], "kind": rep.kind}
                )
    _emit(data)


def cmd_crossratio(args):
    from . import pencil
    quads = pencil.cross_ratio_minimal_polynomials()
    _emit(
        {
            "quadratics": [list(q) for q in quads],
            "discriminants": [pencil.quadratic_discriminant(q) for q in quads],
            "discriminant_cores": [
                pencil.squarefree_core(pencil.quadratic_discriminant(q)) for q in quads
            ],
        }
    )


def cmd_weighted_model(args):
    from . import pencil
    from .poly import poly_to_json
    out = {"surface": poly_to_json(pencil.weighted_surface_equation())}
    for i in (2, 3):
        rep = pencil.weighted_member_check(i)
        out[f"member_{i}"] = {
            "equation": poly_to_json(pencil.weighted_member(i)),
            "degree_ok": rep.degree_ok,
            "cusp_support_ok": rep.cusp_support_ok,
            "smooth": rep.smooth,
        }
    _emit(out)


def cmd_verify_paper(args):
    from . import verify
    outcomes = verify.run_checks()
    failed = [o for o in outcomes if o.status == verify.FAIL]
    if args.json:
        _emit(
            [
                {
                    "check_id": o.check_id,
                    "group": o.group,
                    "expected": o.expected,
                    "actual": o.actual,
                    "status": o.status,
                    "seconds": round(o.seconds, 6),
                }
                for o in outcomes
            ]
        )
    else:
        for o in outcomes:
            print(f"{o.status:4s}  {o.check_id}")
            if o.status == verify.FAIL:
                print(f"      expected: {json.dumps(o.expected)}")
                print(f"      actual:   {json.dumps(o.actual)}")
        print(f"{len(outcomes) - len(failed)}/{len(outcomes)} checks passed")
    return 1 if failed else 0


# The command grammar, which build_parser hands to argparse and _plain_args
# reads: each command's help, positional argument (or None) and options, as
# {flag: (dest, default, converter, help)}.  A converter of None keeps the
# text and bool marks a bare flag; an option without a default is required.
_COMMANDS = {
    "parse": ("parse bracket notation into components", "notation", {}),
    "det": ("intersection-matrix determinants", "notation", {}),
    "report": ("full feasibility report for a configuration", "notation", {}),
    "lct": ("log canonical threshold bound for a curve incidence", "notation",
            {"--incidence": ("incidence", None, None, "comma-separated multiplicities")}),
    "lemma42": ("sweep incidence vectors: classifications and closed-form check", "notation",
                {"--max-a": ("max_a", 4, _integer, None)}),
    "hunt": ("largest-discrepancy extraction target", "notation", {}),
    "table1": ("enumerate the tabulated configurations", None,
               {"--n": ("n", "0..2", None, None), "--m": ("m", "1..2", None, None),
                "--l": ("l", "all", None, None)}),
    "pencil": ("singular members of the cubic pencil", None,
               {"--char": ("char", 0, _integer, "0 for the rationals")}),
    "crossratio": ("cross-ratio minimal polynomials", None, {}),
    "weighted-model": ("weighted-hypersurface member checks", None, {}),
    "verify-paper": ("recompute and compare every pinned value", None,
                     {"--json": ("json", False, bool, None)}),
}


@functools.cache
def build_parser():
    """The argument parser of _COMMANDS, built on the first call and reused."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="ldp",
        description="Exact computations on resolution dual graphs, blowup "
        "lattices, and the associated cubic pencil.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (about, positional, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        if positional:
            p.add_argument(positional)
        for flag, (dest, default, convert, text) in options.items():
            if convert is bool:
                p.add_argument(flag, dest=dest, action="store_true", help=text)
            else:
                p.add_argument(flag, dest=dest, default=default, type=convert,
                               required=default is None, help=text)
    return parser


def _plain_args(argv):
    """What argparse reads from argv when argv has the plain form, else None.
    That form is a command, its positional argument if it takes one, and
    options spelled in full, each value a separate argument; no value or
    positional argument starts with "-", and integers are _integer's."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positional, options = _COMMANDS[argv[0]]
    values = {"command": argv[0]}
    rest = iter(argv[1:])
    if positional:
        # a missing argument reads as "-", which is refused like any such value
        values[positional] = value = next(rest, "-")
        if value[:1] == "-":
            return None
    values.update((dest, default) for dest, default, _, _ in options.values())
    for flag in rest:
        if flag not in options:
            return None
        dest, _, convert, _ = options[flag]
        if convert is bool:
            values[dest] = True
            continue
        value = next(rest, "-")
        if value[:1] == "-":
            return None
        try:
            values[dest] = value if convert is None else convert(value)
        except ValueError:
            return None
    # None where a required option is missing
    return None if None in values.values() else types.SimpleNamespace(**values)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # argparse only for help, usage errors and other spellings
    args = _plain_args(argv) or build_parser().parse_args(argv)
    # looked up per call, not held in the table or the cached parser, so
    # that a rebound cmd_* function takes effect
    fn = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`ldp table1 ... | head`); as the Python docs
        # advise, point stdout at devnull so the flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:  # DynkinSyntaxError and ldp's other input errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
