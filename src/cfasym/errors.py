class DomainError(ValueError):
    """An input violates an operation's domain contract."""


class FoldedFormError(DomainError):
    """A quotient sequence failed to match any of the folded quotient patterns."""
