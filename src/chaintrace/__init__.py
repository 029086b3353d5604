"""chaintrace: exact chain-level homological algebra for finite presentations.

The package computes, with exact integer and rational arithmetic:

* Smith normal form and homology of bounded chain complexes with canonical
  generator coordinates (linalg, chain);
* Hochschild and cyclic homology of finite-dimensional algebras given by
  structure constants (algebra, hochschild);
* group homology, the multitrace, and the chain-level Dennis trace
  composite H_*(BGL_n(A)) -> HH_*(A) (trace);
* Waldhausen-category bookkeeping: bounded categories and their axiom
  checks (wcat, axioms), S-construction grids and K_0 two ways
  (waldhausen), the w.S diagonal and the nerves of weak equivalences
  (nerve), the Sigma_Delta diagram of iterated S-constructions
  (sigma_delta), and the endomorphism category End(C) with the K_0
  retract through it (endo);
* a deterministic command line front end (cli) with selectors and JSON
  output (formats), text file formats (tables) and the structural
  property suites (selftest).

Everything is desk-scale and brute-force verified; no floating point, no
randomized algorithms, no approximation.

Importing the package loads no submodule.  A public name is imported from
the submodule that owns it on first access (PEP 562), so a command line job
pays only for the modules it runs.  The imports under ``TYPE_CHECKING`` are
the same table, written for type checkers.
"""

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing at run time
if TYPE_CHECKING:
    from .rings import ZZ, QQ, GF, BaseRing, Zmod
    from .linalg import Matrix, SparseMap, smith_normal_form, solve_membership
    from .chain import ChainComplex, FPAbelianGroup, FPModule, HomologyData, homology
    from .algebra import (
        Algebra,
        FiniteGroup,
        base_algebra,
        cyclic_group,
        general_linear_group,
        group_algebra,
        make_algebra,
        matrix_algebra,
        truncated_polynomial,
    )
    from .hochschild import cyclic_bar, cyclic_homology, hochschild_homology
    from .trace import (
        dennis_trace_homology,
        dennis_trace_k1,
        group_homology,
        group_to_hh,
        morita_map,
        multitrace,
    )
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

__all__ = [
    "ZZ",
    "QQ",
    "GF",
    "Zmod",
    "BaseRing",
    "Matrix",
    "SparseMap",
    "smith_normal_form",
    "solve_membership",
    "ChainComplex",
    "FPAbelianGroup",
    "FPModule",
    "HomologyData",
    "homology",
    "Algebra",
    "FiniteGroup",
    "make_algebra",
    "base_algebra",
    "group_algebra",
    "matrix_algebra",
    "truncated_polynomial",
    "cyclic_group",
    "general_linear_group",
    "validate_algebra",
    "validate_group",
    "cyclic_bar",
    "validate_cyclic_module",
    "hochschild_homology",
    "cyclic_homology",
    "group_homology",
    "group_to_hh",
    "multitrace",
    "dennis_trace_k1",
    "dennis_trace_homology",
    "morita_map",
    "trivial_category",
    "vect_gf",
    "pointed_sets",
    "finite_modules",
    "end_category",
    "category_from_selector",
    "validate_waldhausen",
    "SCategory",
    "s_k_objects",
    "ws_diagonal",
    "k0_via_sdot",
    "k0_presentation",
    "grothendieck_k0",
    "k0_retract_holds",
    "ktheory_sigma_delta",
    "free_sigma_delta",
    "sigma_delta_validate",
    "parse_algebra_file",
    "parse_group_file",
    "parse_category_file",
    "serialize_category",
    "__version__",
]

# The submodule owning each public name: the TYPE_CHECKING imports above as
# data, which tests/test_public_api.py holds equal to them.
_OWNERS = {
    "rings": ("ZZ", "QQ", "GF", "BaseRing", "Zmod"),
    "linalg": ("Matrix", "SparseMap", "smith_normal_form", "solve_membership"),
    "chain": ("ChainComplex", "FPAbelianGroup", "FPModule", "HomologyData", "homology"),
    "algebra": (
        "Algebra",
        "FiniteGroup",
        "base_algebra",
        "cyclic_group",
        "general_linear_group",
        "group_algebra",
        "make_algebra",
        "matrix_algebra",
        "truncated_polynomial",
    ),
    "hochschild": ("cyclic_bar", "cyclic_homology", "hochschild_homology"),
    "trace": (
        "dennis_trace_homology",
        "dennis_trace_k1",
        "group_homology",
        "group_to_hh",
        "morita_map",
        "multitrace",
    ),
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
