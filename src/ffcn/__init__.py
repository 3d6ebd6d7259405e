"""Exact verification toolkit for function fields over small finite
fields: field arithmetic, places, covers, projective point searches,
zeta L-polynomials and class numbers."""

__version__ = "1.0.0"

from .catalog import (DEFAULT_CATALOG, CatalogEntry, build_model, get_entry,
                      load_catalog, model_from_spec, section_facts, verify_curve)
from .covers import (CoverKind, CoverModel, InvalidCoverError,
                     NonStandardCoverError, RamificationDatum, cover_genus,
                     place_census, ramification_data, splitting_type,
                     validate_standard_form)
from .gf import GF, FieldError, embed, make_field
from .polyring import (Place, PoleError, Poly, RationalFunction, element_str,
                       irreducible_count, is_irreducible, moebius_mu,
                       moebius_transport, monic_irreducibles, parse_element,
                       parse_poly, parse_rational, place_valuation,
                       places_of_degree, residue, residue_field)
from .table64 import (CUBICS, QUADRICS, SURVIVOR_FAMILY, SURVIVOR_MASK,
                      TableRow, build_family, find_survivors,
                      survivor_analysis, verify_row)
from .varieties import (MultiPoly, ProjectiveCurve, SingularModelError,
                        curve_point_counts, min_point_degree, parse_multipoly,
                        point_degree, points_on_model, smoothness_probe)
from .zeta import (CountInconsistencyError, LPoly, PlaceCensus, PointCounts,
                   census_from_counts, census_to_counts, class_number,
                   cyclic_extension_count, extend_counts,
                   hurwitz_different_degree, l_polynomial)
