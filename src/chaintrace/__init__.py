"""chaintrace: exact chain-level homological algebra for finite presentations.

The package computes, with exact integer and rational arithmetic:

* Smith normal form and homology of bounded chain complexes with canonical
  generator coordinates (linalg, chain), and the unit-pivot reduction
  that shrinks a complex whose isomorphism types alone are printed
  (pivots, reduction);
* Hochschild homology of finite-dimensional algebras given by structure
  constants (algebra, hochschild), computed one weight block at a time
  for ``hh`` (weights), and cyclic homology over Q through Connes' B and
  the (b, B) total complex (cyclic); ring specs and built-in selectors
  (selectors);
* finite groups (groups) and their homology through the normalized bar
  complex (grouphomology), and GL_n(A) as a finite group (general_linear);
* the chain-level Dennis trace: the multitrace rule and homology classes
  the trace commands share (tracemaps), the trace of one invertible matrix
  in HH_1 (tracek1), the composite H_*(BGL_n(A)) -> HH_*(A) (tracehomology),
  the Morita maps HH_*(M_n(A)) -> HH_*(A) (morita), and the whole-level
  matrices of these chain maps that selftest checks (trace);
* Waldhausen-category bookkeeping: bounded categories and their axiom
  checks (wcat, axioms), S-construction grids and K_0 two ways
  (waldhausen), the w.S diagonal and the nerves of weak equivalences
  (nerve), the Sigma_Delta diagram of iterated S-constructions
  (sigma_delta), and the endomorphism category End(C) with the K_0
  retract through it (endo);
* a deterministic command line front end (cli) with JSON output
  (formats), text file formats (tables) and the structural property
  suites (selftest).

Everything is desk-scale and brute-force verified; no floating point, no
randomized algorithms, no approximation.

Importing the package loads no submodule.  A public name is imported from
the submodule that owns it on first access (PEP 562), so a command line job
pays only for the modules it runs: each algebra and group command has a
module of its own (weights, cyclic, grouphomology, tracek1, tracehomology,
morita) that no other command loads.  The imports under ``TYPE_CHECKING`` are
the same table, written for type checkers.
"""

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .rings import ZZ, QQ, GF, BaseRing, Zmod
    from .linalg import Matrix, SparseMap, smith_normal_form
    from .chain import ChainComplex, FPAbelianGroup, FPModule, HomologyData, homology
    from .groups import FiniteGroup, cyclic_group
    from .algebra import (
        Algebra,
        base_algebra,
        general_linear_group,
        group_algebra,
        make_algebra,
        matrix_algebra,
        truncated_polynomial,
    )
    from .hochschild import cyclic_bar, hochschild_homology
    from .cyclic import cyclic_homology
    from .grouphomology import group_homology
    from .tracek1 import dennis_trace_k1
    from .morita import morita_map
    from .tracehomology import dennis_trace_homology
    from .trace import group_to_hh, multitrace
    from .wcat import (
        category_from_selector,
        finite_modules,
        pointed_sets,
        trivial_category,
        validate_waldhausen,
        vect_gf,
    )
    from .waldhausen import (
        SCategory,
        grothendieck_k0,
        k0_presentation,
        k0_via_sdot,
        s_k_objects,
        ws_diagonal,
    )
    from .sigma_delta import free_sigma_delta, ktheory_sigma_delta, sigma_delta_validate
    from .endo import end_category, k0_retract_holds
    from .tables import (
        parse_algebra_file,
        parse_category_file,
        parse_group_file,
        serialize_category,
        validate_algebra,
        validate_group,
    )
    from .selftest import validate_cyclic_module

__version__ = "0.1.0"

# The submodule owning each public name: the TYPE_CHECKING imports above as
# data, which tests/test_public_api.py holds equal to them.  __all__ is
# these names and __version__.
_OWNERS = {
    "rings": ("ZZ", "QQ", "GF", "BaseRing", "Zmod"),
    "linalg": ("Matrix", "SparseMap", "smith_normal_form"),
    "chain": ("ChainComplex", "FPAbelianGroup", "FPModule", "HomologyData", "homology"),
    "groups": ("FiniteGroup", "cyclic_group"),
    "algebra": (
        "Algebra",
        "base_algebra",
        "general_linear_group",
        "group_algebra",
        "make_algebra",
        "matrix_algebra",
        "truncated_polynomial",
    ),
    "hochschild": ("cyclic_bar", "hochschild_homology"),
    "cyclic": ("cyclic_homology",),
    "grouphomology": ("group_homology",),
    "tracek1": ("dennis_trace_k1",),
    "morita": ("morita_map",),
    "tracehomology": ("dennis_trace_homology",),
    "trace": ("group_to_hh", "multitrace"),
    "wcat": (
        "category_from_selector",
        "finite_modules",
        "pointed_sets",
        "trivial_category",
        "validate_waldhausen",
        "vect_gf",
    ),
    "waldhausen": (
        "SCategory",
        "grothendieck_k0",
        "k0_presentation",
        "k0_via_sdot",
        "s_k_objects",
        "ws_diagonal",
    ),
    "sigma_delta": ("free_sigma_delta", "ktheory_sigma_delta", "sigma_delta_validate"),
    "endo": ("end_category", "k0_retract_holds"),
    "tables": (
        "parse_algebra_file",
        "parse_category_file",
        "parse_group_file",
        "serialize_category",
        "validate_algebra",
        "validate_group",
    ),
    "selftest": ("validate_cyclic_module",),
}
_OWNER = {name: module for module, names in _OWNERS.items() for name in names}
__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    """Import a public name from its submodule on first access.

    Any other name raises AttributeError, so ``from chaintrace import wcat``
    falls back to importing the submodule ``chaintrace.wcat``.
    """
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
