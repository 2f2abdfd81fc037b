"""Numerical laboratory for rotationally symmetric translators of curvature flows."""

__version__ = "0.1.0"

from .curvature import (
    CurvatureFunction,
    build_family,
    check_homogeneity,
    from_key,
    registry_keys,
    zero_ray,
)

__all__ = [
    "CurvatureFunction",
    "build_family",
    "check_homogeneity",
    "from_key",
    "registry_keys",
    "zero_ray",
    "__version__",
]
