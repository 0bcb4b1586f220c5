"""
Surfaces from configuration files: the one reader of a --surface that
names no preset.  A preset request never loads it.
"""

from ._base import ConfigError
from .surfaces import SurfaceModel


def parse_surface_file(path):
    """
    The SurfaceModel of a configuration file of flat key=value lines:

        name=mysurface
        betti=1,0,2,0,1
        betti_c=1,0,2,0,1        (optional, defaults to the reverse of betti)
        euler=4                  (optional, checked against betti)
        hodge=0,0,1              (optional, repeatable: p,q,h)

    A repeated key or hodge=p,q, or any bad line, raises ConfigError.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError("cannot read surface file %s: %s" % (path, exc))
    fields, hodge = {}, {}
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key=value" % (path, ln))
        key, _, value = (part.strip() for part in line.partition("="))
        table, slot = fields, key
        if key not in ("name", "betti", "betti_c", "euler", "hodge"):
            raise ConfigError("%s:%d: unknown field %r" % (path, ln, key))
        try:
            if key in ("betti", "betti_c"):
                value = [int(x) for x in value.split(",")]
            elif key == "euler":
                value = int(value)
            elif key == "hodge":
                p, q, value = (int(x) for x in value.split(","))
                table, slot, key = hodge, (p, q), "hodge=%d,%d" % (p, q)
        except ValueError as exc:
            raise ConfigError("%s:%d: bad value for %r: %s"
                              % (path, ln, key, exc))
        if slot in table:
            raise ConfigError("%s:%d: duplicate field %r" % (path, ln, key))
        table[slot] = value
    if "betti" not in fields:
        raise ConfigError("%s: missing required field 'betti'" % path)
    try:
        return SurfaceModel(fields.get("name", path), fields["betti"],
                            betti_c=fields.get("betti_c"), hodge=hodge or None,
                            euler=fields.get("euler"))
    except ValueError as exc:
        raise ConfigError("%s: %s" % (path, exc))
