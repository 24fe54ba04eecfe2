"""Published documents: immutable objects, catalogs and popularity models."""
