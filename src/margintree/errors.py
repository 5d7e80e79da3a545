"""Exception hierarchy shared across the package."""


class ValidationError(ValueError):
    """Invalid user-supplied data or arguments."""


class ParseError(ValidationError):
    """File could not be parsed; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(ValidationError):
    """Infeasible or inconsistent configuration (e.g. balance bounds)."""


class StructureError(ValidationError):
    """Malformed hierarchy: unknown node, missing models, broken links."""


class SolverError(RuntimeError):
    """Numerical optimization failed; message carries diagnostics."""
