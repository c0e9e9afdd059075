"""Field acquisition: JSONL ingestion and built-in enumerators over Q."""
