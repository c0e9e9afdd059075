"""Field acquisition: JSONL ingestion and built-in enumerators over Q."""

from .cubic import enumerate_cubic
from .cyclic import cyclic_count_oracle, enumerate_cyclic
from .records import FieldList, FieldRecord, LocalRamification, parse_field_file
from .uniformity import abelian_uniformity_check

__all__ = [
    "FieldList",
    "FieldRecord",
    "LocalRamification",
    "parse_field_file",
    "enumerate_cyclic",
    "cyclic_count_oracle",
    "enumerate_cubic",
    "abelian_uniformity_check",
]
