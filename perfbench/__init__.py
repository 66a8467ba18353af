"""End-to-end benchmark with a per-layer trace; see perfbench/README.md."""
