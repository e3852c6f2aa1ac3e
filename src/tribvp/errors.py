"""Exception types shared across the package."""


class TribvpError(Exception):
    """Base class for all package errors."""


class ConfigError(TribvpError):
    """Malformed or inconsistent run configuration."""


class FunctionSpecError(ConfigError):
    """Nonlinearity specification rejected at construction time."""


class FunctionDomainError(TribvpError):
    """Nonlinearity evaluated outside its domain (u < 0 beyond tolerance)."""


class SingularConfigurationError(TribvpError):
    """Boundary-condition parameters make the linear problem singular."""


class GammaDomainError(TribvpError):
    """The third compression-ratio term has a nonpositive denominator."""

    def __init__(self, denominator):
        self.denominator = denominator
        super().__init__(
            f"compression-ratio term undefined: 2T - alpha*(beta+1)*eta^2 = "
            f"{denominator} <= 0"
        )


class CertificationError(TribvpError):
    """Nonlinearity evaluation failed while bounding it on a growth-condition box."""
