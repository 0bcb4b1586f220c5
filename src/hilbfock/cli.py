"""
Command-line front end.  Every subcommand writes a TSV table (header row,
then data rows) to stdout or --output; series are rendered one q-power per
row with polynomials in a fixed monomial order, so output is
byte-deterministic for fixed inputs.

Exit codes: 0 success, 1 a verified identity failed, 2 usage or
configuration error.

Each cmd_* imports its own layer, so a request loads only the modules its
subcommand uses.

Surface configuration files are flat key=value lines:

    name=mysurface
    betti=1,0,2,0,1
    betti_c=1,0,2,0,1        (optional, defaults to betti)
    euler=4                  (optional, checked against betti)
    hodge=0,0,1              (optional, repeatable: p,q,h)
"""

import argparse
import sys

from ._base import IdentityFailed
from .surfaces import PRESETS, SurfaceModel


class ConfigError(ValueError):
    pass


def parse_surface_file(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError("cannot read surface file %s: %s" % (path, exc))
    fields = {"hodge": []}
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value" % (path, ln))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "name":
                fields["name"] = value
            elif key in ("betti", "betti_c"):
                fields[key] = [int(x) for x in value.split(",")]
            elif key == "euler":
                fields["euler"] = int(value)
            elif key == "hodge":
                p, q, h = (int(x) for x in value.split(","))
                fields["hodge"].append(((p, q), h))
            else:
                raise ConfigError("%s:%d: unknown field %r" % (path, ln, key))
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError("%s:%d: bad value for %r: %s"
                              % (path, ln, key, exc))
    if "betti" not in fields:
        raise ConfigError("%s: missing required field 'betti'" % path)
    hodge = dict(fields["hodge"]) if fields["hodge"] else None
    try:
        return SurfaceModel(fields.get("name", path),
                            fields["betti"],
                            betti_c=fields.get("betti_c"),
                            hodge=hodge,
                            euler=fields.get("euler"))
    except ValueError as exc:
        raise ConfigError("%s: %s" % (path, exc))


def resolve_surface(spec):
    if spec is None:
        raise ConfigError("missing --surface")
    key = spec.lower()
    if key in PRESETS:
        return PRESETS[key]
    return parse_surface_file(spec)


def _parse_partition(text, flag):
    from .partitions import Partition
    try:
        parts = [int(x) for x in text.split(",") if x.strip()]
        return Partition(sorted(parts, reverse=True))
    except ValueError as exc:
        raise ConfigError("bad partition for %s: %s" % (flag, exc))


def emit(rows, output):
    text = "".join("\t".join(str(c) for c in row) + "\n" for row in rows)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hilbfock",
        description="exact invariants of Hilbert schemes of points")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, surface=False, order=False, n=False):
        if surface:
            p.add_argument("--surface", required=True,
                           help="preset name (%s) or config file"
                           % ", ".join(sorted(set(PRESETS))))
        if order:
            p.add_argument("--order", type=int, required=True)
        if n:
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--output", default=None)

    common(sub.add_parser("goettsche", help="Poincare polynomials of the "
                          "Hilbert schemes, product route"),
           surface=True, order=True)
    common(sub.add_parser("sym", help="Poincare polynomials of symmetric "
                          "products"), surface=True, order=True)
    common(sub.add_parser("punctual", help="Poincare polynomials of "
                          "punctual fibers"), order=True)
    common(sub.add_parser("euler", help="Euler numbers of the Hilbert "
                          "schemes"), surface=True, order=True)
    common(sub.add_parser("hodge", help="Hodge polynomials of the Hilbert "
                          "schemes"), surface=True, order=True)
    common(sub.add_parser("fock", help="graded Fock characters"),
           surface=True, order=True)
    p = sub.add_parser("commutators", help="verify the commutation "
                       "relations on random states")
    common(p, surface=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("strata", help="strata supporting a direct image "
                       "degree")
    common(p, n=True)
    p.add_argument("--h", type=int, required=True, dest="h")
    p = sub.add_parser("adhm", help="inspect a matrix triple")
    common(p)
    p.add_argument("--triple", help="triple file")
    p.add_argument("--mu", help="partition for a monomial-ideal triple, "
                   "e.g. 2,1")
    common(sub.add_parser("ktheory", help="equivariant K-theory "
                          "dimensions"), surface=True, order=True)
    p = sub.add_parser("selfcheck", help="run every cross-identity")
    common(p, order=True)
    p.add_argument("--seed", type=int, default=0)
    return ap


def cmd_goettsche(args):
    from .goettsche import hilbert_poincare_series
    s = resolve_surface(args.surface)
    rows = [("n", "poincare")]
    rows += enumerate(hilbert_poincare_series(s, args.order).coeffs)
    emit(rows, args.output)
    return 0


def cmd_sym(args):
    from .goettsche import sym_poincare_table
    s = resolve_surface(args.surface)
    rows = [("m", "poincare")]
    rows += enumerate(sym_poincare_table(s, args.order))
    emit(rows, args.output)
    return 0


def cmd_punctual(args):
    from .goettsche import punctual_poincare
    rows = [("n", "poincare")]
    rows += [(n, punctual_poincare(n)) for n in range(1, args.order + 1)]
    emit(rows, args.output)
    return 0


def cmd_euler(args):
    from .goettsche import hilbert_euler_table
    s = resolve_surface(args.surface)
    rows = [("n", "euler")]
    rows += enumerate(hilbert_euler_table(s.euler, args.order))
    emit(rows, args.output)
    return 0


def cmd_hodge(args):
    from .goettsche import hilbert_hodge_table
    s = resolve_surface(args.surface)
    if not s.has_hodge:
        raise ConfigError("surface %r has no hodge field (--surface)" % s.name)
    rows = [("n", "hodge")]
    rows += enumerate(hilbert_hodge_table(s, args.order))
    emit(rows, args.output)
    return 0


def cmd_fock(args):
    from .heisenberg import graded_character
    s = resolve_surface(args.surface)
    rows = [("n", "character")]
    rows += enumerate(graded_character(s, args.order).coeffs)
    emit(rows, args.output)
    return 0


def cmd_commutators(args):
    from . import selfcheck
    s = resolve_surface(args.surface)
    ok, detail = selfcheck.check_commutators(trials=args.trials,
                                             seed=args.seed, models=(s,))
    rows = [("relation_battery", "status", "detail"),
            ("supercommuting", "pass" if ok else "FAIL", detail)]
    emit(rows, args.output)
    return 0 if ok else 1


def cmd_strata(args):
    from .stratification import support_strata
    rows = [("partition",)]
    rows += [(a,) for a in support_strata(args.n, args.h)]
    emit(rows, args.output)
    return 0


def cmd_adhm(args):
    from . import adhm
    if bool(args.triple) == bool(args.mu):
        raise ConfigError("give exactly one of --triple or --mu")
    if args.triple:
        try:
            with open(args.triple) as fh:
                tr = adhm.read_triple(fh.read())
        except (OSError, ValueError) as exc:
            raise ConfigError("--triple: %s" % exc)
    else:
        mu = _parse_partition(args.mu, "--mu")
        if not mu.n:
            raise ConfigError("--mu: the partition is empty")
        tr = adhm.from_monomial_ideal(mu)
    rows = [("key", "value"), ("size", tr.n)]
    commuting = adhm.is_commuting(tr)
    rows.append(("commuting", commuting))
    if not commuting:
        emit(rows, args.output)
        return 0
    rows.append(("stable", adhm.is_stable(tr)))
    traces = adhm.trace_table(tr, tr.n)
    try:
        cycle = adhm.support_cycle(tr, traces)
        rows.append(("support", cycle))
        rows.append(("in_bidisk", adhm.in_bidisk(tr, cycle)))
    except adhm.SpectrumNotSplit as exc:
        rows.append(("support", "not split (%s)" % exc))
    for k in range(tr.n + 1):
        for l in range(tr.n + 1 - k):
            rows.append(("trace[%d,%d]" % (k, l), traces[(k, l)]))
    emit(rows, args.output)
    return 0


def cmd_ktheory(args):
    from .goettsche import equivariant_k_table
    s = resolve_surface(args.surface)
    rows = [("n", "dim")]
    rows += enumerate(equivariant_k_table(s, args.order))
    emit(rows, args.output)
    return 0


def cmd_selfcheck(args):
    from . import selfcheck
    results = selfcheck.run_all(args.order, seed=args.seed)
    rows = [("identity", "status", "detail")]
    failed = []
    for name, ok, detail in results:
        rows.append((name, "pass" if ok else "FAIL", detail))
        if not ok:
            failed.append((name, detail))
    emit(rows, args.output)
    for name, detail in failed:
        print("FAILED %s: %s" % (name, detail), file=sys.stderr)
    return 1 if failed else 0


_COMMANDS = {
    "goettsche": cmd_goettsche,
    "sym": cmd_sym,
    "punctual": cmd_punctual,
    "euler": cmd_euler,
    "hodge": cmd_hodge,
    "fock": cmd_fock,
    "commutators": cmd_commutators,
    "strata": cmd_strata,
    "adhm": cmd_adhm,
    "ktheory": cmd_ktheory,
    "selfcheck": cmd_selfcheck,
}


# the least value of each count option; a selfcheck of order 0 checks nothing
_LEAST = {"order": 0, "trials": 1, "n": 1, "h": 0}


def _check_counts(args):
    """Reject a count option below its least value, for every subcommand."""
    least = dict(_LEAST, order=1) if args.command == "selfcheck" else _LEAST
    for name, low in least.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ConfigError("--%s must be at least %d, got %d"
                              % (name, low, value))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except IdentityFailed as exc:
        print("error: a verified identity failed: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
