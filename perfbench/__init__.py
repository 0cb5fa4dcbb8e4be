"""The repository's wall-clock benchmark of the serving stack (see README.md)."""
