"""Exception types shared across the package, and the reader of input files.

Two families matter for the command line: configuration problems
(exit code 2) and numerical-contract violations (exit code 3).
"""


class McmagError(Exception):
    """Base class for all package-specific errors."""


class DomainError(McmagError, ValueError):
    """An argument is outside the documented domain of an operation."""


class ConfigError(McmagError, ValueError):
    """A sweep/validate/neumark config file is malformed or incomplete."""


class NumericalContractError(McmagError):
    """A numerical invariant the code relies on was violated."""


class HermiticityError(NumericalContractError, ValueError):
    """Input tagged Hermitian is not Hermitian within tolerance."""


class PsdViolationError(NumericalContractError, ValueError):
    """Input tagged positive semidefinite has a clearly negative eigenvalue."""


class DilationRankError(NumericalContractError, ValueError):
    """A measurement operator handed to the dilation has rank above one."""


class UndefinedConditionalError(NumericalContractError, ZeroDivisionError):
    """Conditional error requested for an (almost) all-inconclusive measurement."""


def read_utf8(path: str) -> str:
    """The text of the config or CSV file at ``path``; bytes that are not
    UTF-8 are a :class:`ConfigError` naming the file and the byte offset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()  # decoded in one piece: the offset counts from the file's start
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
