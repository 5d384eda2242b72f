"""The repo's performance benchmark: see ``perf/README.md``."""
