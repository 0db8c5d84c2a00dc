"""Exception types shared across the involq package."""


class InvolqError(Exception):
    """Base class for all involq errors."""


class InputError(InvolqError):
    """The target, document or option cannot be used (exit code 2)."""


# -- near-field construction ------------------------------------------------

class NotPrime(InvolqError):
    pass


class OrderCapExceeded(InvolqError):
    pass


class NotDicksonPair(InvolqError):
    pass


class EvenCharacteristicUnsupported(InvolqError):
    pass


class ConstructionSanityFailure(InvolqError):
    """A constructed table violated an invariant the construction guarantees.

    Raised instead of returning a bad value; always indicates a bug in the
    construction, never a property of valid inputs.
    """


# -- permutation groups -----------------------------------------------------

class MalformedDocument(InputError):
    pass


class NotABijection(InputError):
    def __init__(self, message: str, generator_index: int | None = None):
        super().__init__(message)
        self.generator_index = generator_index


class NotAMember(InvolqError):
    pass


class AxiomFailure(InvolqError):
    pass


# -- sharp 2-transitivity ---------------------------------------------------

class NotSharply2Transitive(InvolqError):
    pass


class CharacteristicAnomaly(InvolqError):
    """A state the finite theory rules out was reached (bad input or bug)."""


class CharacteristicTwo(InvolqError):
    """The requested computation is undefined for fixed-point-free involutions."""


# -- geometry ---------------------------------------------------------------

class GeometryConditionsFailed(InvolqError):
    pass


class CharacterizationMismatch(InvolqError):
    pass


# -- splitting --------------------------------------------------------------

class NotSplit(InvolqError):
    pass


class AxiomRecoveryFailure(InvolqError):
    pass
