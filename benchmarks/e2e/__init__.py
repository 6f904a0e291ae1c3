"""End-to-end benchmark of the design pipeline (see README.md)."""
