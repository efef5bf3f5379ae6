"""Exact computational algebra for corings over finite-dimensional algebras.

Everything is computed over the rationals or a prime field with exact
arithmetic: algebras by structure constants, bimodules by action matrices,
tensor products over an algebra as explicit quotients, corings, right coring
extensions, whose composition is checked by an oracle that reads E as the
cotensor product E box_C C along the coaction, and the two monoidal categories
built on them.  Every construction is paired with a machine checker that
verifies the defining axioms as exact matrix identities.

Of the linear algebra, the package exports the scalar fields, matrices and the
quotient presentations the program builds (`quotient_by_rows`); the only
elimination it runs is that routine's and `linalg._Eliminator`'s.  A quotient
records its relations once, in its projection.  Kernels, inverses, relation
subspaces and the eliminating quotient, which only the tests use, live in
`tests/reference.py`.
"""

from .algebras import (
    AlgebraMorphism,
    FinDimAlgebra,
    check_algebra,
    check_algebra_morphism,
    dual_numbers,
    ground_algebra,
    group_algebra,
    identity_morphism,
    tensor_algebra,
)
from .bimodules import (
    Bimodule,
    PresentedTensor,
    induced_map_on_tensor,
    regular_bimodule,
    scalar_bimodule,
    tensor_over_alg,
    tensor_over_k,
)
from .category import (
    CATEGORIES,
    CORINGS,
    EXT,
    Category,
    CoringsMorphism,
    ExtMorphism,
    base_ring_extension,
    check_corings_morphism,
    check_ext_morphism,
    corings_compose,
    corings_identity,
    corings_tensor_morphisms,
    counit_corings_morphism,
    ext_compose,
    ext_compose_via_cotensor,
    ext_identity,
    ext_morphisms_equal,
    ext_tensor_morphisms,
    ext_to_trivial,
    ext_to_unit,
    grouplike_corings_morphism,
    trivial_corings_morphism,
    verify_monoidal,
)
from .constructions import (
    grouplike_coalgebra,
    matrix_coalgebra,
    sweedler_coring,
    tensor_coring,
    trivial_coring,
    unit_coring,
)
from .coring import Coring, check_coring
from .linalg import Field, Mat, QuotientSpace, quotient_by_rows
from .verdict import Verdict
from .workspace import Workspace, load_workspace, parse_workspace

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
