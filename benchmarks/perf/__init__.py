"""The perf ledger: the repository's benchmark (see README.md here)."""
