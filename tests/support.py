"""Helpers the tests share: the reference enumeration of P^n and the
catalog writer.  ffc itself needs neither, so they live with the tests."""

import json

from ffcn.catalog import DEFAULT_CATALOG


def projective_points(dim: int, field):
    """Every point of P^dim over the field exactly once, normalized, in
    ascending lexicographic coordinate order."""
    q = field.order
    for lead in range(dim, -1, -1):
        free = dim - lead
        prefix = (0,) * lead + (1,)
        if free == 0:
            yield prefix
            continue
        counters = [0] * free
        while True:
            yield prefix + tuple(counters)
            i = free - 1
            while i >= 0:
                counters[i] += 1
                if counters[i] < q:
                    break
                counters[i] = 0
                i -= 1
            if i < 0:
                break


def dump_catalog(catalog=DEFAULT_CATALOG) -> str:
    """The catalog as the JSON text ``catalog.load_catalog`` reads."""
    return json.dumps([e._asdict() for e in catalog], indent=2, sort_keys=True) + "\n"
