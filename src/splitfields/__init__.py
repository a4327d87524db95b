"""Exact computations with finite-dimensional algebras and their splitting fields."""

from .fields import (
    FieldDescriptor,
    FieldElement,
    FieldEmbedding,
    adjoin_root,
    compose_embeddings,
    embed_find,
    embedding_preimage,
    finite_field,
    finite_field_of_degree,
    identity_embedding,
    number_field,
    poly_roots,
    prime_field,
    rationals,
    subfield_generated,
)
from .linalg import Matrix, row_space_basis
from .algebras import (
    Algebra,
    algebra_validate,
    cyclic_group_algebra,
    diagonal_algebra,
    field_algebra,
    group_algebra,
    matrix_algebra,
    quaternion_algebra,
    quotient_algebra,
    upper_triangular_algebra,
)
from .modules import (
    Module,
    direct_sum,
    end_algebra,
    hom_space,
    is_isomorphic,
    module_validate,
    spin,
    sub_quotient,
)
from .structure import (
    composition_factors,
    is_semisimple,
    oracle_composition_series_dims,
    oracle_is_simple,
    oracle_submodules,
    radical,
    simple_modules,
)
from .basechange import (
    ExtensionContext,
    descend_module,
    extend_algebra,
    extend_module,
    map_matrix,
    theta_apply,
    theta_dim_check,
    write_in,
)
from .splitting import (
    SplitReport,
    SplittingFieldResult,
    find_splitting_field,
    is_absolutely_simple,
    is_split,
    is_splitting_field,
    verify_chain_theorem,
    verify_split_radical,
)

__version__ = "0.1.0"
