"""comdb: an in-memory concept database.

Collections of elements form a partial order through their reference
fields.  Queries move sets of elements up (projection), down
(de-projection) or across the order (inference through common lesser
collections), with products of collections supplying background knowledge
where the schema alone holds none.
"""

from .algebra import (
    ElementSet,
    FieldPath,
    PrimitiveDomain,
    ProductCollection,
    common_lesser_collections,
    deproject,
    deproject_values,
    infer,
    intersect_deprojections,
    make_product,
    project,
    project_values,
    star_deproject,
    star_project,
)
from .engine import (
    Database,
    ResultSet,
    execute,
    execute_statement,
    load_csv,
    load_data_dir,
    load_schema,
    render,
)
from .errors import ComdbError
from .model import (
    Collection,
    Concept,
    Dimension,
    DimensionPath,
    Element,
    FieldSpec,
    Schema,
    build_schema,
    insert_element,
)

__version__ = "0.1.0"

__all__ = [
    "ElementSet",
    "FieldPath",
    "PrimitiveDomain",
    "ProductCollection",
    "common_lesser_collections",
    "deproject",
    "deproject_values",
    "infer",
    "intersect_deprojections",
    "make_product",
    "project",
    "project_values",
    "star_deproject",
    "star_project",
    "Database",
    "ResultSet",
    "execute",
    "execute_statement",
    "load_csv",
    "load_data_dir",
    "load_schema",
    "render",
    "ComdbError",
    "Collection",
    "Concept",
    "Dimension",
    "DimensionPath",
    "Element",
    "FieldSpec",
    "Schema",
    "build_schema",
    "insert_element",
    "__version__",
]
