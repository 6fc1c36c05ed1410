"""Demazure roots and unipotent automorphism structure of complete toric
varieties, computed exactly from ray data."""

from .errors import (
    CapExceededError,
    DegenerateRaysError,
    DegreeCapError,
    DomainError,
    IncompleteFanError,
    InputError,
    InvariantViolation,
    NoOpenOrbitError,
    NotBilateralError,
    NotCanonicalError,
    NotRadiantError,
    NotTypeIError,
    ResultCapError,
    ToricError,
)
from .fan import Bilateralization, RayList, RayMatrix, bilateralize, validate_ray_matrix
from .groups import (
    RootSet,
    center,
    enumerate_open_orbit_subgroups,
    has_open_orbit,
    is_saturated,
    root_graph,
    saturation_closure,
    series_report,
    split_projective_lines,
    umax_shape,
    uss_shape,
    variety_type,
)
from .roots import (
    DemazureRoot,
    canonical_reorder,
    column_preorder,
    demazure_roots,
    positive_roots,
)
from .surfaces import (
    SurfaceSequence,
    blow_up,
    enumerate_smooth_surfaces,
    is_radiant_sequence,
    sequence_to_rays,
    surface_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
