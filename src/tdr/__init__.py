"""Exact linear algebra on tensor diagrams.

Tensor diagrams are directed semi-graphs whose wires may dangle at
either end.  The package classifies their connected components
(finite / tame / wild), decomposes representations of the non-wild
shapes into canonical indecomposable blocks over Q, evaluates closed
diagrams exactly, extends partial edge flows, and embeds arbitrary
matrix-pair problems into the two smallest wild shapes.  The name
tdr.decompose is the function decompose, so import tdr.decompose as m gives
the function; the module is sys.modules["tdr.decompose"].
"""

from .classify import ComponentClass, WildWitness, classify_diagram, find_forbidden_witness
from .decompose import (
    Band,
    Decomposition,
    Interval,
    StringBlock,
    block_alias,
    canonical_diagram,
    decompose,
    isomorphic,
    monodromy,
    realize,
)
from .errors import (
    ContractionTooLarge,
    DiagramMismatch,
    DomainMismatch,
    DuplicateId,
    InvalidDescriptor,
    InvalidDims,
    InvalidPartialFlow,
    NotALoop,
    NotAMorphism,
    NotAPartition,
    NotASimilarity,
    NotASubdiagram,
    NotClosed,
    NotConnected,
    NotDecidableWild,
    NotDecomposable,
    NotMonic,
    NotNilpotent,
    NotNormalized,
    NotQuiverLike,
    NotSquare,
    ParseError,
    RestrictedDimViolation,
    ShapeMismatch,
    SingularMatrix,
    SizeMismatch,
    TdrError,
    TensorTooLarge,
    UnknownCommand,
    UnknownVertexRef,
    UnknownWire,
    ZeroPolynomial,
)
from .exactalg import Matrix, Poly, charpoly, factor_poly, rational_canonical
from .flows import extend_flow, verify_partial_flow
from .generate import GenResult, gen_random
from .rational import Q, format_rational, parse_rational
from .representation import (
    Representation,
    apply_group_element,
    cokernel,
    contract,
    direct_sum,
    dual_rep,
    hom_dim,
    is_morphism,
    kernel,
    reverse_wire_rep,
    split_functor,
    tensor_product,
    unit,
    validate_representation,
)
from .semigraph import (
    SubdiagramRef,
    TensorDiagram,
    Wire,
    connected_components,
    degree,
    diagram_to_record,
    isolate_subdiagram,
    neighborhood,
    normalize,
    restrict,
    reverse_wire,
    slots,
    split_vertex,
    subdiagram_ref,
    validate_diagram,
)
from .wildness import (
    MatrixPair,
    build_Y_pair,
    eight_diagram,
    eight_rep_from_pair,
    eight_tuple,
    iso_from_similarity,
    mix_tuple,
    needle_diagram,
    needle_rep_from_pair,
    sim_similarity_solve,
)

__version__ = "0.1.0"
