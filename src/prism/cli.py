"""Command-line front end.

Subcommands::

    prism show <space>                     describe a space
    prism heights <space>                  height table
    prism check-dispersion <space> <file>  test a candidate dispersion
    prism closed-sets <space>              clopen down-set classes, at most 65536
    prism noetherian <group>               Noetherian verdict for a group
    prism cube <group>                     decomposition diagram
    prism isomax <n>                       isomax dimension table, 0 <= n <= 12
    prism oracle <suite>                   run brute-force cross-checks:
                                           isomax | snf | cotoral |
                                           derivative | downsets | all

A ``<space>`` is a group identifier (``circle``, ``torus:<r>``, ``o2``,
``so3``, ``nsu3t``, ``finite:<path.json>``, ``semidirect:<path.json>``)
drawn at ``--bound``, or a path to a flagged-priestley/v1 JSON file.
Every command is a thin adapter over the library: resolve inputs, call
one operation, format.  Output collections are ordered lexicographically
by key string so identical invocations produce identical bytes.

Each subcommand imports only the layers it runs: ``isomax`` loads the cube
combinatorics alone, a flagged-space file loads no group catalog, and only
``oracle`` loads the oracles.

Exit codes: 0 success, 1 domain error (the error class name is printed
on stderr), 2 usage error.
"""

import argparse
import json
import sys
from math import inf

from .errors import PrismError

# Copies of library values, so that building the parser and telling a group
# from a file import nothing; tests pin each to its source: the suites of
# oracles.SUITES, cube.ISOMAX_MAX_N, and the names and "<kind>:" prefixes of
# liegroups._GROUP_NAMES and _GROUP_KINDS, which group_from_spec reads.
_ORACLE_SUITES = ("cotoral", "derivative", "downsets", "isomax", "snf")
_ISOMAX_MAX_N = 12
_GROUP_NAMES = frozenset({"circle", "nsu3t", "o2", "so3"})
_GROUP_KINDS = frozenset({"finite", "semidirect", "torus"})


def _is_group_spec(spec):
    """Whether ``spec`` names a group rather than a file; a group wins over a
    file of the same name."""
    kind, colon, _ = spec.partition(":")
    return spec in _GROUP_NAMES or bool(colon) and kind in _GROUP_KINDS


def _resolve_space(spec, bound):
    if _is_group_spec(spec):
        from .liegroups import flagged_snapshot, group_from_spec

        return flagged_snapshot(group_from_spec(spec), bound)
    from .priestley import flagged_from_json

    with open(spec, encoding="utf-8") as fh:
        return flagged_from_json(fh.read())


def _cmd_show(args):
    space = _resolve_space(args.space, args.bound)
    lines = ["points:", *("  %s" % p for p in sorted(space.concrete)), "order:"]
    lines += ["  %s < %s" % (a, b) for a, b in sorted(space.order) if a != b]
    lines.append("families:")
    for f in space.families:
        lines.append("  %s: limit=%s order=%s lt={%s} gt={%s} hint=%s" % (
            f.id, f.limit, f.member_order, ", ".join(sorted(f.member_lt)),
            ", ".join(sorted(f.member_gt)), f.member_height_hint))
    return "\n".join(lines) + "\n"


def heights_table(space):
    """The height report both as a dict (heights/v1) and as text lines."""
    from .dispersion import thomason_heights

    ha = thomason_heights(space)
    values = {**ha.heights, **ha.family_heights}
    flat = {name: "inf" if v == inf else v for name, v in values.items()}
    lines = ["%s %s" % (name, flat[name]) for name in sorted(flat)]
    return flat, lines


def _cmd_heights(args):
    flat, lines = heights_table(_resolve_space(args.space, args.bound))
    if args.format == "json":
        return json.dumps(flat, indent=2, sort_keys=True) + "\n"
    return "\n".join(lines) + "\n"


def _cmd_check_dispersion(args):
    from .dispersion import DispersionCandidate, is_dispersion
    from .priestley import _json_loads

    space = _resolve_space(args.space, args.bound)
    with open(args.candidate, encoding="utf-8") as fh:
        values = _json_loads(fh.read())
    if not (isinstance(values, dict) and all(type(v) is int for v in values.values())):
        raise ValueError("a candidate must be a JSON object of integers")
    ok, witness = is_dispersion(space, DispersionCandidate(values))
    return "true\n" if ok else "false witness=%s\n" % (witness,)


def _cmd_closed_sets(args):
    from .priestley import clopen_down_sets

    classes = clopen_down_sets(_resolve_space(args.space, args.bound))
    lines = ["%d clopen down-set classes" % len(classes)]
    for i, cls in enumerate(sorted(classes, key=lambda c: (sorted(c.required), c.family_tags))):
        lines.append("class %d: %s" % (i, cls.describe()))
    return "\n".join(lines) + "\n"


def _cmd_noetherian(args):
    from .liegroups import group_from_spec, spectrum_is_noetherian

    return "true\n" if spectrum_is_noetherian(group_from_spec(args.group)) else "false\n"


def _cmd_cube(args):
    from .cube import build_decomposition, cube_to_dot, cube_to_json, cube_to_text
    from .liegroups import group_from_spec

    group = group_from_spec(args.group)
    diagram = build_decomposition(group, args.bound)
    if args.format == "dot":
        return cube_to_dot(diagram)
    if args.format == "json":
        return cube_to_json(diagram) + "\n"
    return cube_to_text(diagram)


def _cmd_isomax(args):
    from .cube import isomax_table

    return isomax_table(args.n)


def _cmd_oracle(args):
    from .oracles import run_suite

    return "".join("ok %s (%d cases)\n" % (name, cases) for name, cases in run_suite(args.suite))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prism",
        description="exact order-topology toolkit for subgroup spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, handler, text, *positionals, bound=True, fmt=None):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=handler)
        for arg in positionals:
            p.add_argument(arg)
        if bound:
            p.add_argument("--bound", type=int, default=4)
        if fmt:
            p.add_argument("--format", choices=fmt, default="text")
        p.add_argument("--out", default=None)
        return p

    common("show", _cmd_show, "describe a space", "space")
    common("heights", _cmd_heights, "Thomason height table", "space", fmt=("text", "json"))
    common("check-dispersion", _cmd_check_dispersion, "test a candidate dispersion",
           "space", "candidate")
    common("closed-sets", _cmd_closed_sets, "clopen down-set classes", "space")
    common("noetherian", _cmd_noetherian, "Noetherian verdict for a group", "group", bound=False)
    common("cube", _cmd_cube, "decomposition diagram", "group", fmt=("text", "dot", "json"))
    common("isomax", _cmd_isomax, "isomax dimension table", bound=False).add_argument(
        "n", type=int, help="0 <= n <= %d" % _ISOMAX_MAX_N
    )
    common("oracle", _cmd_oracle, "run brute-force cross-checks", bound=False).add_argument(
        "suite", choices=list(_ORACLE_SUITES) + ["all"]
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        text = args.run(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (PrismError, OSError, ValueError) as err:
        sys.stderr.write("%s: %s\n" % (type(err).__name__, err))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
