"""Cover census through the public ffcn API, in one process.

    python cover_census.py INPUTS.json

INPUTS.json is a list of covers as made by ``covergen.draw_covers``.
Catalog covers are built from the embedded catalog; the others from their
kind, field and f.  Each cover is censused to place degree 6 and run
through the program's zeta pipeline.  Prints one JSON report.
"""

import json
import sys

from ffcn.catalog import build_model, get_entry
from ffcn.covers import CoverKind, CoverModel, cover_genus, place_census
from ffcn.gf import make_field
from ffcn.polyring import parse_rational
from ffcn.zeta import (PointCounts, census_from_counts, census_to_counts,
                       class_number, extend_counts, l_polynomial)

DEGREE = 6


def census_one(spec: dict) -> dict:
    if spec.get("catalog"):
        model = build_model(get_entry(spec["id"]))
    else:
        field = make_field(spec["p"], spec["k"])
        model = CoverModel(CoverKind(spec["kind"]), parse_rational(spec["f"], field))
    q = model.field.order
    genus = cover_genus(model)
    census = place_census(model, DEGREE)
    counts = census_to_counts(census, DEGREE)
    L = l_polynomial(PointCounts(q, genus, tuple(counts[:genus])))
    return {
        "id": spec["id"],
        "f": spec["f"],
        "genus": genus,
        "census": list(census.counts),
        "l_coeffs": list(L.coeffs),
        "h": class_number(L),
        "extended_counts": list(extend_counts(L, DEGREE).counts),
        "census_from_counts": list(census_from_counts(counts).counts),
    }


def main(argv) -> int:
    with open(argv[1]) as fh:
        specs = json.load(fh)
    report = {"covers": [census_one(spec) for spec in specs]}
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
