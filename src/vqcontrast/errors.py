"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value, file content, or violated precondition."""


class ShapeError(ValueError):
    """Operands whose shapes do not agree."""


class NumericError(ArithmeticError):
    """Non-finite values or numerically degenerate inputs."""


class TensorFormatError(ValueError):
    """Malformed tensor file. Carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset

