"""Exception hierarchy.

Everything raised on purpose by this package derives from ComdbError, so
callers can catch one class at the boundary.  Any of them found in query
text, such as a path error, can carry a 1-based source position.
"""

from __future__ import annotations


class ComdbError(Exception):
    """Base class for every error raised by comdb.

    An error found in query or schema text carries its 1-based line and
    column, which the message starts with; otherwise both are None.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


# schema construction

class SchemaError(ComdbError):
    """Invalid schema definition."""


class UnknownConcept(SchemaError):
    pass


class DuplicateConcept(SchemaError):
    pass


class DuplicateField(SchemaError):
    pass


class CyclicSchema(SchemaError):
    pass


class NestedIdentity(SchemaError):
    """Identity fields must be flat primitives in this version."""


# element data

class DataError(ComdbError):
    """Invalid element data."""


class DuplicateIdentity(DataError):
    pass


class DanglingReference(DataError):
    pass


class NullViolation(DataError):
    pass


class TypeMismatch(DataError):
    pass


# dimension paths and set algebra

class PathError(ComdbError):
    """Invalid dimension path or unreachable collection."""


class PathNotComposable(PathError):
    pass


class NoPath(PathError):
    pass


class ViaNotCommonLesser(PathError):
    pass


class UnknownAlias(PathError):
    pass


class DuplicateAlias(PathError):
    pass


class NonNumericPath(PathError):
    pass


# query execution

class ProductTooLarge(ComdbError):
    """A product would enumerate more factor combinations than comdb allows."""


# query and DDL text

class QueryError(ComdbError):
    """Error in query or schema text."""


class LexError(QueryError):
    pass


class ParseError(QueryError):
    pass


class ResolveError(QueryError):
    pass


class UnknownCollection(ResolveError):
    pass


class UnknownDimension(ResolveError):
    pass


class AmbiguousPath(ResolveError):
    pass


# file ingestion

class IngestError(ComdbError):
    """Error while loading external data files."""


class FileError(IngestError):
    pass


class HeaderMismatch(IngestError):
    pass
