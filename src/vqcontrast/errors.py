"""The package's two exception types, one per failing exit code of the CLI."""


class ConfigurationError(ValueError):
    """Malformed input (exit 1): a bad configuration value, file content or
    shape, or a violated precondition."""


class NumericError(ArithmeticError):
    """Numeric failure (exit 2): non-finite values or numerically degenerate inputs."""
