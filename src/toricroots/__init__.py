"""Demazure roots and unipotent automorphism structure of complete toric
varieties, computed exactly from ray data.

The exported names are resolved on first use (PEP 562), so importing the
package, or one submodule such as ``toricroots.cli``, loads no other module.
"""

import importlib

__version__ = "0.1.0"

#: The exported names of each submodule.
_EXPORTS = {
    "errors": "CapExceededError DegenerateRaysError DegreeCapError DomainError IncompleteFanError "
              "InputError InvariantViolation NoOpenOrbitError NotBilateralError NotCanonicalError "
              "NotRadiantError NotTypeIError ResultCapError ToricError",
    "fan": "Bilateralization RayList RayMatrix bilateralize validate_ray_matrix",
    "groups": "RootSet center enumerate_open_orbit_subgroups has_open_orbit is_saturated root_graph "
              "saturation_closure series_report split_projective_lines umax_shape uss_shape "
              "variety_type",
    "roots": "DemazureRoot canonical_reorder column_preorder demazure_roots positive_roots",
    "surfaces": "SurfaceSequence blow_up enumerate_smooth_surfaces is_radiant_sequence "
                "sequence_to_rays surface_report",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = ("errors", "fan", "groups", "lattice", "roots", "surfaces")

__all__ = sorted([*_HOMES, *_SUBMODULES])


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups do not come here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
