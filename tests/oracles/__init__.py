"""Reference implementations the test suite compares the library against.

Each module holds the slow, obviously-correct form of a production path:
the unfiltered pair scan of the similarity join (:mod:`.simjoin`), the
two-row edit-distance dynamic program (:mod:`.kernels`), and the
set-based and brute-force maximal-independent-set enumerators
(:mod:`.mis`). None of them runs in the library.
"""
