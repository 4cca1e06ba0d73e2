"""Exact diagram algebras over fusion label sets.

The package builds, over the Laurent ring Z[v, v^-1]:

- table algebras (based rings with nonnegative integer structure
  constants and a basis-permuting anti-involution), including the
  truncated Clebsch-Gordan fusion algebras V_r;
- the diagram algebras P(n, A) of labeled non-crossing diagrams, with
  stacking product, star, closure traces, fusion twist, and the exposed
  subalgebra;
- cellular-style data on P(n, A): half-diagram bases, the degree
  function, the bilinear form, and executable axioms;
- Coxeter groups, Hecke algebras with their canonical bases, and the
  generalized Temperley-Lieb quotients, together with the label-driven
  embeddings of those quotients into diagram algebras.
"""

from .laurent import DELTA, Laurent, ONE, QSqrt2, SQRT2, V, V_INV, ZERO, vneg_congruent
from .table_algebra import (
    TableAlgebra,
    check_algebra,
    cyclic_group_algebra,
    permutation_group_algebra,
    tensor,
)
from .verlinde import make_verlinde, reduction_structure_constants, w_identities
from .diagram import (
    HalfDiagram,
    LabeledDiagram,
    e_matching,
    edge_kinds,
    half_arcs,
    half_join,
    identity_diagram,
    matchings,
    principal_pairs,
    stack_matchings,
    star_diagram,
)
from .planar import (
    Context,
    Element,
    diagram_product,
    fusion_twist,
    is_exposed,
    p_tensor_embed,
    trace_of_diagram,
    verify_tensor_iso,
)
from .coxeter import CoxeterGroup, coxeter_group, wc_classify
from .hecke import Hecke, hecke
from .tl import TL, tl
from .tabular import AxiomReport, TabularDatum, datum_build, prop434_test
from .embed import (
    AdmissibleSet,
    ConjectureReport,
    DiagramEmbedding,
    EmbeddingReport,
    admissible,
    admissible_closed_under_mul,
    conjecture_436_check,
    drank_sequence,
    omega_rho_check,
    rho_build,
    rho_verify_bijection,
)

__version__ = "0.1.0"
