"""
Command-line front end.  Every subcommand writes a TSV table (header row,
then data rows) to stdout or --output; series are rendered one q-power per
row with polynomials in a fixed monomial order, so output is
byte-deterministic for fixed inputs.

Exit codes: 0 success, 1 a verified identity failed, 2 usage or
configuration error, 3 an internal error (the traceback goes to stderr).

Each cmd_* imports its own layer, so a request loads only the modules its
subcommand uses, and returns (exit code, rows); main writes the rows, so
stdout stays empty when a request fails.

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
    """
    One declaration per subcommand: its help, its options, the least value
    of each count option and its handler.  main calls this on every run,
    so a cmd_* rebound in this module is the one that runs.
    """
    ap = argparse.ArgumentParser(
        prog="hilbfock",
        description="exact invariants of Hilbert schemes of points")
    sub = ap.add_subparsers(dest="command", required=True)

    def count(name, least, **kw):
        return "--" + name, least, dict(kw, type=int)

    surface = ("--surface", None, {
        "required": True, "help": "preset name (%s) or config file"
        % ", ".join(sorted(set(PRESETS)))})
    order = count("order", 0, required=True)
    output = ("--output", None, {"default": None})
    seed = count("seed", None, default=0)

    def add(name, handler, help, *options):
        p = sub.add_parser(name, help=help)
        for flag, _, kw in options:
            p.add_argument(flag, **kw)
        p.set_defaults(handler=handler, least={
            flag[2:]: low for flag, low, _ in options if low is not None})

    add("goettsche", cmd_goettsche, "Poincare polynomials of the Hilbert "
        "schemes, product route", surface, order, output)
    add("sym", cmd_sym, "Poincare polynomials of symmetric products",
        surface, order, output)
    add("punctual", cmd_punctual, "Poincare polynomials of punctual fibers",
        order, output)
    add("euler", cmd_euler, "Euler numbers of the Hilbert schemes", surface,
        order, output)
    add("hodge", cmd_hodge, "Hodge polynomials of the Hilbert schemes",
        surface, order, output)
    add("fock", cmd_fock, "graded Fock characters", surface, order, output)
    add("commutators", cmd_commutators, "verify the commutation relations "
        "on random states", surface, output, count("trials", 1, default=50),
        seed)
    add("strata", cmd_strata, "strata supporting a direct image degree",
        count("n", 1, required=True), output, count("h", 0, required=True))
    add("adhm", cmd_adhm, "inspect a matrix triple", output,
        ("--triple", None, {"help": "triple file"}),
        ("--mu", None, {"help": "partition for a monomial-ideal triple, "
                                "e.g. 2,1"}))
    add("ktheory", cmd_ktheory, "equivariant K-theory dimensions", surface,
        order, output)
    # a selfcheck of order 0 checks nothing
    add("selfcheck", cmd_selfcheck, "run every cross-identity",
        count("order", 1, required=True), output, seed)
    return ap


def cmd_goettsche(args):
    from .goettsche import hilbert_poincare_series
    s = resolve_surface(args.surface)
    return 0, [("n", "poincare"),
               *enumerate(hilbert_poincare_series(s, args.order).coeffs)]


def cmd_sym(args):
    from .goettsche import sym_poincare_table
    s = resolve_surface(args.surface)
    return 0, [("m", "poincare"), *enumerate(sym_poincare_table(s, args.order))]


def cmd_punctual(args):
    from .goettsche import punctual_poincare
    return 0, [("n", "poincare"), *((n, punctual_poincare(n))
                                    for n in range(1, args.order + 1))]


def cmd_euler(args):
    from .goettsche import hilbert_euler_table
    s = resolve_surface(args.surface)
    return 0, [("n", "euler"),
               *enumerate(hilbert_euler_table(s.euler, args.order))]


def cmd_hodge(args):
    from .goettsche import hilbert_hodge_table
    s = resolve_surface(args.surface)
    if not s.has_hodge:
        raise ConfigError("surface %r has no hodge field (--surface)" % s.name)
    return 0, [("n", "hodge"), *enumerate(hilbert_hodge_table(s, args.order))]


def cmd_fock(args):
    from .heisenberg import graded_character
    s = resolve_surface(args.surface)
    return 0, [("n", "character"),
               *enumerate(graded_character(s, args.order).coeffs)]


def cmd_commutators(args):
    from . import selfcheck
    s = resolve_surface(args.surface)
    ok, detail = selfcheck.check_commutators(trials=args.trials,
                                             seed=args.seed, models=(s,))
    return (0 if ok else 1), [
        ("relation_battery", "status", "detail"),
        ("supercommuting", "pass" if ok else "FAIL", detail)]


def cmd_strata(args):
    from .stratification import support_strata
    return 0, [("partition",), *((a,) for a in support_strata(args.n, args.h))]


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
    commuting = adhm.is_commuting(tr)
    rows = [("key", "value"), ("size", tr.n), ("commuting", commuting)]
    if not commuting:
        return 0, rows
    rows.append(("stable", adhm.is_stable(tr)))
    traces = adhm.trace_table(tr, tr.n)
    try:
        cycle = adhm.support_cycle(tr, traces)
        rows.append(("support", cycle))
        rows.append(("in_bidisk", adhm.in_bidisk(tr, cycle)))
    except adhm.SpectrumNotSplit as exc:
        rows.append(("support", "not split (%s)" % exc))
    rows += [("trace[%d,%d]" % (k, l), traces[(k, l)])
             for k in range(tr.n + 1) for l in range(tr.n + 1 - k)]
    return 0, rows


def cmd_ktheory(args):
    from .goettsche import equivariant_k_table
    s = resolve_surface(args.surface)
    return 0, [("n", "dim"), *enumerate(equivariant_k_table(s, args.order))]


def cmd_selfcheck(args):
    from . import selfcheck
    rows = [("identity", "status", "detail")]
    failed = 0
    for name, ok, detail in selfcheck.run_all(args.order, seed=args.seed):
        rows.append((name, "pass" if ok else "FAIL", detail))
        if not ok:
            failed = 1
            print("FAILED %s: %s" % (name, detail), file=sys.stderr)
    return failed, rows


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for name, low in args.least.items():
            if getattr(args, name) < low:
                raise ConfigError("--%s must be at least %d, got %d"
                                  % (name, low, getattr(args, name)))
        code, rows = args.handler(args)
        emit(rows, args.output)
        return code
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except IdentityFailed as exc:
        print("error: a verified identity failed: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception:
        import traceback
        traceback.print_exc()
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
