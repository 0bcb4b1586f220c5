"""
Command-line front end.  Every subcommand writes a TSV table (header row,
then data rows) to stdout or --output; series are rendered one q-power per
row with polynomials in a fixed monomial order, so output is
byte-deterministic for fixed inputs.

Exit codes: 0 success, 1 a verified identity failed, 2 usage, configuration
or out-of-memory error, 3 an internal error (the traceback goes to stderr).

Each cmd_* imports its own layer, so a request loads only the modules its
subcommand uses, and returns (exit code, rows); main writes the rows, so
stdout stays empty when a request fails.  A request reads its own
arguments from COMMANDS; usage, the argparse reader, loads only for help
and usage errors, and adhm reads and reports the adhm subcommand's triple.
"""

import sys
from types import SimpleNamespace

from ._base import ConfigError, IdentityFailed


def resolve_surface(spec):
    if spec is None:
        raise ConfigError("missing --surface")
    from .surfaces import PRESETS
    key = spec.lower()
    if key in PRESETS:
        return PRESETS[key]
    from .surface_file import parse_surface_file
    return parse_surface_file(spec)


def emit(rows, output):
    text = "".join("\t".join(str(c) for c in row) + "\n" for row in rows)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _count(name, least, **kw):
    return "--" + name, least, dict(kw, type=int)


_OUTPUT = ("--output", None, {"default": None})
_SEED = _count("seed", None, default=0)
_SURFACE = ("--surface", None, {"required": True})
_ORDER = _count("order", 0, required=True)
_TABLE = (_SURFACE, _ORDER, _OUTPUT)
# name: (help, *options), each option a flag, the least value of a count
# option (or None) and its add_argument keywords; cmd_<name> handles it
COMMANDS = {
    "goettsche": ("Poincare polynomials of the Hilbert schemes, product "
                  "route", *_TABLE),
    "sym": ("Poincare polynomials of symmetric products", *_TABLE),
    "punctual": ("Poincare polynomials of punctual fibers", _ORDER, _OUTPUT),
    "euler": ("Euler numbers of the Hilbert schemes", *_TABLE),
    "hodge": ("Hodge polynomials of the Hilbert schemes", *_TABLE),
    "fock": ("graded Fock characters", *_TABLE),
    "commutators": ("verify the commutation relations on random states",
                    _SURFACE, _OUTPUT, _count("trials", 1, default=50), _SEED),
    "strata": ("strata supporting a direct image degree",
               _count("n", 1, required=True), _OUTPUT,
               _count("h", 0, required=True)),
    "adhm": ("inspect a matrix triple", _OUTPUT,
             ("--triple", None, {"help": "triple file"}),
             ("--mu", None, {"help": "partition for a monomial-ideal "
                                     "triple, e.g. 2,1"})),
    "ktheory": ("equivariant K-theory dimensions", *_TABLE),
    # a selfcheck of order 0 checks nothing
    "selfcheck": ("run every cross-identity",
                  _count("order", 1, required=True), _OUTPUT, _SEED),
}


def _defaults(name):
    # looked up per request, so a cmd_* rebound after import is the one run
    _, *options = COMMANDS[name]
    return {"handler": globals()["cmd_" + name], "least": {
        flag[2:]: low for flag, low, _ in options if low is not None}}


def _read_args(argv):
    """
    What parse_args returns for the form a request takes, NAME (--OPTION
    VALUE)*, each option spelled as NAME declares it, no value starting
    with "-" and none required missing; None for any other argv.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, *options = COMMANDS[argv[0]]
    known = {flag: kw for flag, _, kw in options}
    args = {flag[2:]: kw.get("default") for flag, _, kw in options}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in known or value.startswith("-"):
            return None
        try:
            args[flag[2:]] = known[flag].get("type", str)(value)
        except ValueError:
            return None
    if any(kw.get("required") and flag not in argv for flag, _, kw in options):
        return None
    return SimpleNamespace(command=argv[0], **args, **_defaults(argv[0]))


def cmd_goettsche(args):
    from .product import hilbert_poincare_series
    s = resolve_surface(args.surface)
    return 0, [("n", "poincare"),
               *enumerate(hilbert_poincare_series(s, args.order).coeffs)]


def cmd_sym(args):
    from .goettsche import sym_poincare_table
    s = resolve_surface(args.surface)
    return 0, [("m", "poincare"), *enumerate(sym_poincare_table(s, args.order))]


def cmd_punctual(args):
    from .counts import punctual_poincare
    return 0, [("n", "poincare"), *((n, punctual_poincare(n))
                                    for n in range(1, args.order + 1))]


def cmd_euler(args):
    from .counts import hilbert_euler_table
    s = resolve_surface(args.surface)
    return 0, [("n", "euler"),
               *enumerate(hilbert_euler_table(s.euler, args.order))]


def cmd_hodge(args):
    from .product import hilbert_hodge_table
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
    if not s.ordinary_degrees:
        raise ConfigError("surface %r has no classes (--surface)" % s.name)
    ok, detail = selfcheck.check_commutators(trials=args.trials,
                                             seed=args.seed, models=(s,))
    return (0 if ok else 1), [
        ("relation_battery", "status", "detail"),
        ("supercommuting", "pass" if ok else "FAIL", detail)]


def cmd_strata(args):
    from .stratification import support_strata
    return 0, [("partition",), *((a,) for a in support_strata(args.n, args.h))]


def cmd_adhm(args):
    from .adhm import report, requested_triple
    return 0, report(requested_triple(args.triple, args.mu))


def cmd_ktheory(args):
    from .counts import equivariant_k_table
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
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv)
    if args is None:  # help or a usage error
        from .usage import build_parser
        args = build_parser(argv).parse_args(argv)
    size = "the request"  # what is too large when memory runs out
    try:
        for name, low in args.least.items():
            value = getattr(args, name)
            if value < low:
                raise ConfigError("--%s must be at least %d, got %d"
                                  % (name, low, value))
            # --order and --n size a table of at least that many rows (or
            # partitions), whose list must fit: it is claimed before any row
            if name in ("order", "n"):
                size = "--" + name
                if value >= sys.maxsize:
                    raise ConfigError("%s must be below %d, got %d"
                                      % (size, sys.maxsize, value))
                [None] * (value + 1)
        code, rows = args.handler(args)
        emit(rows, args.output)
        return code
    except IdentityFailed as exc:
        print("error: a verified identity failed: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: %s is too large" % size, file=sys.stderr)
        return 2
    except Exception:
        import traceback
        traceback.print_exc()
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
