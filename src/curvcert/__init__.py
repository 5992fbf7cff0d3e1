"""Numerical certificates of quasi-positive curvature for homogeneous bundles."""

from .algebra import (
    AlgElement,
    FieldTag,
    GroupElement,
    adjoint,
    bracket,
    group_exp,
    inner,
)
from .catalog import (
    CatalogEntry,
    build_entry,
    m_kl,
    pt_projective,
    sp_example,
    t1_projective,
    t1_sphere,
    t1s3_product,
)
from .certify import (
    CertReport,
    Method,
    StartBudget,
    Verdict,
    certify_part2,
    certify_part3,
    check_fatness,
    min_ad_singular,
    scan_along_A,
)
from .flatness import (
    FlatPairWitness,
    horizontal_flat_residual,
)
from .triple import (
    Part,
    Subspace,
    Triple,
    is_symmetric_pair,
    load_triple,
    make_triple,
    project,
    stabilizer_subalgebra,
    triple_from_dict,
    triple_to_json,
)

__version__ = "0.1.0"
