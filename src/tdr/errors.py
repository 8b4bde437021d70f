"""Exception hierarchy shared by all tdr modules."""


class TdrError(Exception):
    """Base class for every error raised by this package."""


# diagram construction and surgery

class DuplicateId(TdrError):
    pass


class UnknownVertexRef(TdrError):
    pass


class UnknownWire(TdrError):
    pass


class NotAPartition(TdrError):
    pass


class NotASubdiagram(TdrError):
    pass


class NotNormalized(TdrError):
    pass


class NotConnected(TdrError):
    pass


# exact linear algebra

class NotSquare(TdrError):
    pass


class SingularMatrix(TdrError):
    pass


class ZeroPolynomial(TdrError):
    pass


class NotNilpotent(TdrError):
    pass


# representations

class ShapeMismatch(TdrError):
    pass


class SizeMismatch(ShapeMismatch):
    pass


class InvalidDims(ShapeMismatch):
    pass


class DiagramMismatch(TdrError):
    pass


class NotAMorphism(TdrError):
    pass


class NotMonic(TdrError):
    pass


class NotClosed(TdrError):
    pass


class ContractionTooLarge(TdrError):
    pass


class TensorTooLarge(TdrError):
    pass


class NotALoop(TdrError):
    pass


class NotQuiverLike(TdrError):
    # hom_dim / kernel / cokernel need <=1 slot per side at every vertex so
    # that the commuting squares stay linear and homogeneous; see README.
    pass


class RestrictedDimViolation(TdrError):
    pass


# flows

class DomainMismatch(TdrError):
    pass


class InvalidPartialFlow(TdrError):
    pass


# decomposition

class NotDecomposable(TdrError):
    pass


class NotDecidableWild(TdrError):
    pass


class InvalidDescriptor(TdrError):
    pass


# wildness constructions

class NotASimilarity(TdrError):
    pass


# cli / io

class ParseError(TdrError):
    pass


class UnknownCommand(TdrError):
    pass
