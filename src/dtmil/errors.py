"""Exception hierarchy shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class DegenerateInputError(InvalidInputError):
    """Data that would pin the algorithm at a fixed point: an instance pool
    whose every instance is the zero vector, so no codeword could move."""


class DatasetFormatError(InvalidInputError):
    """A dataset file does not conform to the JSON-lines bag format."""


class ModelFormatError(InvalidInputError):
    """A model file is malformed, has the wrong version, or holds the wrong
    model kind for the requested loader."""
