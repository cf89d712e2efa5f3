"""Exception hierarchy shared by all modules."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


# -- exact linear algebra -----------------------------------------------------

class ShapeMismatch(EngineError):
    """Matrix shapes are not composable."""


class NotAComplex(EngineError):
    """d_out . d_in != 0, so the pair does not define a chain complex."""


class NotSquare(EngineError):
    """Operation requires a square matrix."""


# -- Novikov ring ---------------------------------------------------------------

class NonPositiveTau(EngineError):
    """The radius parameter tau must be a positive rational."""


# -- chain complexes ----------------------------------------------------------

class NotAChainMap(EngineError):
    """The per-degree matrices do not commute with the boundaries."""


class DegreeOutOfRange(EngineError):
    """An empty degree range, or a degree that a complex's window does not determine."""


# -- base models / Floer complexes ---------------------------------------------

class EmptyWindow(EngineError):
    """An action window (a, b) with a >= b selects no generators."""


class UnsupportedModel(EngineError):
    """The model data violates the monotonicity constraints."""


# -- Rabinowitz pipeline --------------------------------------------------------

class ConsecutiveIndexModel(EngineError):
    """The fiberwise boundary rules need a Morse function without
    critical points of consecutive index."""


class UnstabilizedTruncation(EngineError):
    """A finite truncation did not determine the answer."""


class TruncationTooNarrow(EngineError):
    """The requested k-truncation cannot hold the admissible supports."""
