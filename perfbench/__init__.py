"""The repository's benchmark: four workloads over the foveated render/serve stack.

Run ``python3 perfbench/run.py`` from the repository root; see
``perfbench/README.md``.
"""
