"""Exception hierarchy.

Everything raised on purpose derives from TilelabError so the CLI can map
library failures to exit codes: bad input -> 2, broken invariant -> 3.
"""


class TilelabError(Exception):
    """Base class for all tilelab errors."""


class InputError(TilelabError, ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class ContextMismatchError(InputError):
    """Operands built over different moduli."""


class NotATilingError(InputError):
    """A pair given as a tiling does not tile Z_M."""


class InvariantViolationError(TilelabError):
    """A proved statement failed on concrete data (CLI exit code 3).

    Any instance of this is either corrupted input that slipped past
    validation or a genuine bug; the message carries a full witness.
    """


class NeitherParityError(InvariantViolationError):
    """A fiber of a verified tiling split with neither parity."""


class TheoremViolationError(InvariantViolationError):
    """A coprime dilation collapsed a tile or broke the tiling."""


class LemmaViolationError(InvariantViolationError):
    """A checked lemma conclusion failed; message names the witness."""


class EquivalenceViolationError(InvariantViolationError):
    """Two provably equivalent conditions disagreed on concrete data."""


class ImplicationViolationError(InvariantViolationError):
    """A verified hypothesis failed to yield its proved conclusion."""


class NotFiberedError(InputError):
    """Tile is not a disjoint union of one-direction fibers on some grid."""


class PipelineStuckError(TilelabError):
    """No reduction step applies; reported with full state, disproves nothing."""
