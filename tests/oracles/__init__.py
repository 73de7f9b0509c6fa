"""Semantic oracles: the slow, obviously-correct paths the library is pinned to.

Each production kernel in ``src/`` has one implementation; the reference it
must agree with lives here, next to the tests (and benchmarks) that compare
against it.
"""
