"""Exact arithmetic for totally positive flag configurations of the n-gon:
triangulation charts, exchange-relation flips, the reversal involution, and
a cactus-group action with its verification harness."""

from .rational import Mat, det, SingularMatrixError
from .flags import (DecoratedFlag, Configuration, admissible_indices,
                    rotate, face, iota, theta)
from .polygon import Triangulation, ChartPoint, chart_indices, chart_dimension, glue_check
from .mutation import flip_transport, transport
from .reconstruct import flags_to_charts, charts_to_flags, random_positive
from .cactus import IntervalGen, act_generator, act_word, underlying_permutation, verify_relations
from .axioms import check_axiom, check_glue

__all__ = [
    "Mat", "det", "SingularMatrixError",
    "DecoratedFlag", "Configuration", "admissible_indices",
    "rotate", "face", "iota", "theta",
    "Triangulation", "ChartPoint", "chart_indices", "chart_dimension", "glue_check",
    "flip_transport", "transport",
    "flags_to_charts", "charts_to_flags", "random_positive",
    "IntervalGen", "act_generator", "act_word", "underlying_permutation",
    "verify_relations", "check_axiom", "check_glue",
]

__version__ = "0.1.0"
