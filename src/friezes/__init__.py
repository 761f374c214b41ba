"""Infinite friezes, quiddity sequences, and triangulations of the infinite strip.

The package evaluates infinite friezes of positive integers from eventually
periodic quiddity sequences, realizes them as admissible triangulations of
the infinite strip (and reads the quiddity back off), relates entries to the
Conway-Coxeter and Broline-Crowe-Isaacs counting methods through finite
polygon cuts, and handles Dehn twist equivalence on a bi-infinite upper
boundary.
"""

from .counting import bci_entry, cc_entry, cut_polygon
from .frieze import (EnoughOnes, FriezeError, FriezeView, entry_from_fg,
                     has_enough_ones, quiddity_from_f)
from .polygon import (FriezePattern, PolygonError, PolygonTriangulation,
                      all_triangulations, polygon_from_quiddity,
                      random_triangulation)
from .quiddity import (QuiddityDescriptor, QuiddityError, ValidationReport,
                       validate)
from .strip import (Arc, M2Class, MarkedPoint, StripError, StripTriangulation,
                    bridging, cross, peripheral)
from .synthesis import (Residual, SynthesisOutcome, psi, run_step_a, step_a_pass,
                        step_b)

__all__ = [
    "Arc", "EnoughOnes", "FriezeError", "FriezePattern", "FriezeView", "M2Class",
    "MarkedPoint", "PolygonError", "PolygonTriangulation", "QuiddityDescriptor",
    "QuiddityError", "Residual", "StripError", "StripTriangulation",
    "SynthesisOutcome", "ValidationReport", "all_triangulations", "bci_entry",
    "bridging", "cc_entry", "cross", "cut_polygon", "entry_from_fg",
    "has_enough_ones", "peripheral", "polygon_from_quiddity", "psi",
    "quiddity_from_f", "random_triangulation", "run_step_a", "step_a_pass",
    "step_b", "validate",
]
