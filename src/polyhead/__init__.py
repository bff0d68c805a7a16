"""Fixed polytope classifier heads with maximal angular-margin training."""

from .polytope import (ClassifierWeights, PolytopeKind, embedding_dim,
                       expected_angle, make_cube, make_orthoplex, make_simplex,
                       make_weights, verify_geometry)
from .losses import AngularMargin, FixedSoftmax, LossResult, NormScaled, PlainCE

__all__ = [
    "ClassifierWeights", "PolytopeKind", "embedding_dim", "expected_angle",
    "make_cube", "make_orthoplex", "make_simplex", "make_weights",
    "verify_geometry", "AngularMargin", "FixedSoftmax", "LossResult",
    "NormScaled", "PlainCE",
]
