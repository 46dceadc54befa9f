"""Numeric tolerances used across the library.

The defaults are deliberate choices, not magic numbers scattered through the
code; tests reference them by name. Override by constructing a new
ToleranceConfig and passing it where accepted.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    # smallest image height an isometry may produce
    min_image_y: float = 1e-300
    # ball radii beyond this saturate cosh/sinh usefully
    max_ball_radius: float = 600.0
    # relative tolerance for adaptive quadrature
    quad_rel: float = 1e-10


DEFAULT_TOLERANCES = ToleranceConfig()
