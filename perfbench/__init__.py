"""The repository benchmark: see README.md; the entry point is run.py."""
