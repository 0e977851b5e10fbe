"""Exact-arithmetic invariants and cones of multigraded systems of monomial ideals."""

from .cones import ConeRep, abs_sum_cone, cone_compare, eff_points, nef_points, ray_hull
from .invariants import (
    InvariantBracket,
    KinkTable,
    appendix_kink_table,
    ceiling_closed_forms,
    diff_quotient_scan,
    geometric_invariants,
    sequence_invariant,
    thm2_crossing,
    thm2_kink_locations,
    thm2_kink_table,
    thm2_ord0,
)
from .monomial import MonomialIdeal, minimalize
from .newton import NewtonPolyhedron, newton_polyhedron
from .regions import (
    PiecewiseLinearFn,
    appendix_boundary,
    build_g,
    build_kinked_f,
    epigraph_region,
    lattice_generators,
    region_from_halfspaces,
    region_intersect,
    region_minkowski,
)
from .systems import (
    CeilingSystem,
    ColonSystem,
    IdealPowers,
    Intersect,
    Product,
    Pullback,
    RegionSystem,
    Truncate,
    kinked_intersection_system,
    verify_gradedness,
)

__version__ = "0.1.0"
