"""
The argparse reader of the CLI's COMMANDS, for what cli._read_args
declines: help and usage errors, whose messages and exit codes are
argparse's own.  cli imports this module only then, so a well-formed
request compiles neither it nor argparse.
"""

import argparse

from .cli import COMMANDS, _defaults


def build_parser(argv):
    """
    The argparse reader of COMMANDS, with their help.  Only the subcommand
    argv[0] names is built (all are if it names none, as for --help).
    """
    ap = argparse.ArgumentParser(
        prog="hilbfock",
        description="exact invariants of Hilbert schemes of points")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in [argv[0]] if argv and argv[0] in COMMANDS else COMMANDS:
        help, *options = COMMANDS[name]
        p = sub.add_parser(name, help=help)
        for flag, _, kw in options:
            if flag == "--surface":  # only its preset list loads surfaces
                from .surfaces import PRESETS
                kw = dict(kw, help="preset name (%s) or config file"
                          % ", ".join(sorted(set(PRESETS))))
            p.add_argument(flag, **kw)
        p.set_defaults(**_defaults(name))
    return ap
