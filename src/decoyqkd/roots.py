"""Empty: kept while ``Library.MODULES`` in ``bench/workloads.py`` imports it by name."""
