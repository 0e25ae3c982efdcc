class DomainError(ValueError):
    """An input violates an operation's domain contract."""


class FoldedFormError(DomainError):
    """A quotient sequence failed to match any of the folded quotient patterns."""


def is_int(value) -> bool:
    """An int but not a bool: a count or bound refuses True, though bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)
