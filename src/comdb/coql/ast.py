"""Syntax tree for queries, product definitions and concept definitions.

Nodes are frozen and compare structurally; source positions ride along but
never take part in equality, so a reprinted and reparsed tree equals the
original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

NOPOS = (0, 0)


@dataclass(frozen=True)
class Node:
    pass


@dataclass(frozen=True)
class Literal(Node):
    """A constant: string, integer, decimal or NULL (None)."""

    value: str | int | Decimal | None
    pos: tuple[int, int] = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class PathTerm(Node):
    """Dotted field path, optionally starting with a factor alias."""

    parts: tuple[str, ...]
    pos: tuple[int, int] = field(default=NOPOS, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class AggTerm(Node):
    """COUNT or SUM over a one-hop de-projection from the subject element.

    COUNT(dim <- (Coll | pred)) counts the matching lesser elements;
    SUM(dim <- (Coll | pred).path) sums a numeric field path over them.
    """

    func: str                      # COUNT | SUM
    dim: str
    collection: str
    predicate: Node | None = None
    path: tuple[str, ...] | None = None
    pos: tuple[int, int] = field(default=NOPOS, compare=False)

    def __post_init__(self):
        if self.path is not None:
            object.__setattr__(self, "path", tuple(self.path))


@dataclass(frozen=True)
class Comparison(Node):
    op: str                        # == != < <= > >=
    left: Node
    right: Node
    pos: tuple[int, int] = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class And(Node):
    items: tuple[Node, ...]
    pos: tuple[int, int] = field(default=NOPOS, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class Or(Node):
    items: tuple[Node, ...]
    pos: tuple[int, int] = field(default=NOPOS, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class Not(Node):
    item: Node
    pos: tuple[int, int] = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Factor(Node):
    """One collection in a set expression, optionally aliased."""

    collection: str
    alias: str | None = None
    pos: tuple[int, int] = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class SetExpr(Node):
    """Factors plus an optional predicate: a filter or an inline product."""

    factors: tuple[Factor, ...]
    predicate: Node | None = None
    pos: tuple[int, int] = field(default=NOPOS, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class ProjectStep(Node):
    """'-> d1 -> d2 -> (Coll)'; dims may be empty (single implied path) and
    the target may be absent when the last name settles it."""

    dims: tuple[str, ...]
    target: SetExpr | None = None
    pos: tuple[int, int] = field(default=NOPOS, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))


@dataclass(frozen=True)
class DeprojectStep(Node):
    """'<- d1 <- d2 <- (Coll)'; mirror image of ProjectStep."""

    dims: tuple[str, ...]
    target: SetExpr | None = None
    pos: tuple[int, int] = field(default=NOPOS, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))


@dataclass(frozen=True)
class StarProjectStep(Node):
    """'*-> (Coll)': union of projections over every upward path."""

    target: SetExpr
    pos: tuple[int, int] = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class StarDeprojectStep(Node):
    """'<-* (Coll)': union of de-projections over every downward path."""

    target: SetExpr
    pos: tuple[int, int] = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class InferStep(Node):
    """'<-*-> (Coll)': constraint propagation to an arbitrary collection."""

    target: SetExpr
    pos: tuple[int, int] = field(default=NOPOS, compare=False)


Step = ProjectStep | DeprojectStep | StarProjectStep | StarDeprojectStep | InferStep


@dataclass(frozen=True)
class Query(Node):
    """An anchor (set expression or literal constants) and the steps after it."""

    anchor: SetExpr | tuple[Literal, ...]
    steps: tuple[Step, ...] = ()
    pos: tuple[int, int] = field(default=NOPOS, compare=False)

    def __post_init__(self):
        if not isinstance(self.anchor, SetExpr):
            object.__setattr__(self, "anchor", tuple(self.anchor))
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass(frozen=True)
class ProductDef(Node):
    """'Name = (A a, B b | pred)': register a named product collection."""

    name: str
    body: SetExpr
    pos: tuple[int, int] = field(default=NOPOS, compare=False)
