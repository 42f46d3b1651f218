"""Indexed per-record repair: the serving-path rebuild of the hot loop.

:meth:`repro.core.incremental._Component.consistent_everywhere` scans
every fitted element per FD — O(|elements|) exact projection checks per
arriving record. At serving rates that linear scan dominates the
per-record cost. :class:`IndexedRepairer` replaces it with candidate
generation over the shared per-attribute indexes of
:class:`~repro.index.registry.AttributeIndexRegistry`:

* for each FD attribute with positive Eq. (2) weight, the per-attribute
  distance of a violating element is at most ``tau / weight`` — a sound
  necessary condition per attribute;
* string attributes answer that condition from q-gram postings
  (:meth:`~repro.index.registry.AttributeIndexRegistry.qgram_probe`),
  numeric attributes from the sorted band order (``band_probe``);
* the per-attribute candidate sets are intersected (most selective
  filter wins automatically) and only the surviving elements are
  verified with a :class:`~repro.core.violation.PreparedProjection` —
  the record pattern's Myers PEQ tables prepared **once per FD** and
  streamed over the candidates.

The filter is a strict superset of the violating elements and the
verifier is the exact pairwise predicate, so the serve path's verdict —
and therefore every repair — is byte-identical to
:meth:`IncrementalRepairer.repair_record` (the hypothesis equivalence
suite in ``tests/test_serve_equivalence.py`` asserts this, absorb mode
included). Candidate identity is carried as PR-6 dictionary value ids
where the fitted relation's intern tables are available, falling back
to raw values for unseen strings.

Counters (merged into ``repro.obs`` by the service):

* ``serve_elements_total`` — elements the linear scan would examine;
* ``serve_elements_examined`` — elements the indexed path verified;
* ``serve_index_probes`` — per-FD index probes;
* ``serve_index_rebuilds`` — per-FD index builds after the first, i.e.
  the lazy rebuild after an absorb invalidated the index.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.constraints import FD
from repro.core.incremental import (
    IncrementalRepairer,
    NotFittedError,
    _Component,
)
from repro.core.repair import CellEdit
from repro.core.violation import PreparedProjection
from repro.index.registry import AttributeIndexRegistry

#: mirror of the blocker's float-budget slack (see index/blocking.py)
_EPS = 1e-9


class _FDIndex:
    """Per-FD candidate index over one component's fitted elements."""

    def __init__(
        self,
        fd: FD,
        elements: Sequence[Tuple],
        model,
        registry: AttributeIndexRegistry,
        namespace: str,
    ) -> None:
        self.fd = fd
        self.n_elements = len(elements)
        self._registry = registry
        n_lhs = len(fd.lhs)
        w_lhs, w_rhs = model.weights.lhs, model.weights.rhs
        #: (pos, attr, registry key, limit ratio/band spec) per usable attr
        self._filters: List[Tuple[int, str, str, float, bool]] = []
        self._distinct: List[Optional[List]] = []
        self._postings: List[Optional[Dict]] = []
        for pos, attr in enumerate(fd.attributes):
            weight = w_lhs if pos < n_lhs else w_rhs
            usable = (
                weight > 0.0
                and not model.has_override(attr)
            )
            if not usable:
                self._filters.append((pos, attr, "", 0.0, False))
                self._distinct.append(None)
                self._postings.append(None)
                continue
            numeric = model.is_numeric(attr)
            # distinct values of this FD position with element postings
            distinct: List = []
            postings: Dict = {}
            index_of: Dict = {}
            for ei, element in enumerate(elements):
                value = (
                    float(element[pos]) if numeric else str(element[pos])
                )
                vid = index_of.get(value)
                if vid is None:
                    vid = len(distinct)
                    index_of[value] = vid
                    distinct.append(value)
                    postings[vid] = []
                postings[vid].append(ei)
            key = f"{namespace}:{fd.name}:{attr}"
            self._filters.append((pos, attr, key, weight, numeric))
            self._distinct.append(distinct)
            self._postings.append(postings)
        self._spread = {}
        for _, attr, key, _, numeric in self._filters:
            if key and numeric:
                self._spread[attr] = model.spread(attr)

    def candidates(
        self, pattern: Tuple, tau: float
    ) -> Optional[List[int]]:
        """Element indexes possibly FT-violating *pattern*, or ``None``.

        ``None`` means "no usable filter" — the caller scans linearly.
        The returned list is a superset of the elements within *tau*
        (per-attribute necessary conditions, intersected); the caller
        verifies each exactly.
        """
        survivors: Optional[set] = None
        filtered = False
        for pos, attr, key, weight, numeric in self._filters:
            if not key:
                continue
            limit = tau / weight
            if limit >= 1.0:
                continue  # every value passes: no filtering power
            distinct = self._distinct[pos]
            postings = self._postings[pos]
            assert distinct is not None and postings is not None
            if numeric:
                query = float(pattern[pos])
                spread = self._spread[attr]
                vids = self._registry.band_probe(
                    key, distinct, query, limit * spread + _EPS
                )
            else:
                query = str(pattern[pos])
                vids = self._registry.qgram_probe(
                    key, distinct, query, limit
                )
            hits: set = set()
            for vid in vids:
                hits.update(postings[vid])
            survivors = hits if survivors is None else (survivors & hits)
            filtered = True
            if not survivors:
                return []
        if not filtered:
            return None
        assert survivors is not None
        return sorted(survivors)


class _ComponentIndex:
    """Indexed serving view over one fitted :class:`_Component`."""

    def __init__(
        self,
        component: _Component,
        model,
        registry: AttributeIndexRegistry,
        namespace: str,
    ) -> None:
        self.component = component
        self._model = model
        self._registry = registry
        self._namespace = namespace
        self._fd_indexes: List[Optional[_FDIndex]] = [
            None for _ in component.fds
        ]
        self._built = [False for _ in component.fds]

    def invalidate(self) -> None:
        """Drop the per-FD indexes (after an absorb grew the sets)."""
        self._fd_indexes = [None for _ in self.component.fds]

    def _index_for(self, pos: int, counters: Dict[str, int]) -> _FDIndex:
        index = self._fd_indexes[pos]
        if index is None or index.n_elements != len(
            self.component.elements_per_fd[pos]
        ):
            # first build, invalidated by an absorb, or grown under us
            index = _FDIndex(
                self.component.fds[pos],
                self.component.elements_per_fd[pos],
                self._model,
                self._registry,
                self._namespace,
            )
            self._fd_indexes[pos] = index
            if self._built[pos]:
                counters["serve_index_rebuilds"] += 1
            self._built[pos] = True
        return index

    def consistent_everywhere(
        self,
        record: Mapping[str, object],
        thresholds: Dict[FD, float],
        counters: Dict[str, int],
    ) -> bool:
        """Indexed twin of ``_Component.consistent_everywhere``.

        Same verdict for every record: candidates are a superset of the
        violating elements and the verifier is the exact prepared
        projection predicate the linear scan applies.
        """
        component = self.component
        for pos, (fd, elements) in enumerate(
            zip(component.fds, component.elements_per_fd)
        ):
            pattern = tuple(record[a] for a in fd.attributes)
            tau = thresholds[fd]
            counters["serve_elements_total"] += len(elements)
            index = self._index_for(pos, counters)
            candidate_ids = index.candidates(pattern, tau)
            if candidate_ids is None:
                candidate_ids = range(len(elements))
                counters["serve_elements_examined"] += len(elements)
            else:
                counters["serve_elements_examined"] += len(candidate_ids)
            counters["serve_index_probes"] += 1
            prepared: Optional[PreparedProjection] = None
            for ei in candidate_ids:
                element = elements[ei]
                if element == pattern:
                    continue
                if prepared is None:
                    prepared = PreparedProjection(self._model, fd, pattern)
                if prepared.distance_within(element, tau) is not None:
                    return False
        return True


class IndexedRepairer:
    """Serving-path repairer over a fitted :class:`IncrementalRepairer`.

    Wraps (and shares state with) a fitted repairer; ``repair_record``
    is byte-identical to the wrapped repairer's, with the
    ``consistent_everywhere`` scan replaced by indexed candidate
    generation. Thread-confined, like the underlying model.

    >>> from repro.core.incremental import IncrementalRepairer
    >>> from repro.dataset.citizens import (
    ...     CITIZENS_FDS, CITIZENS_THRESHOLDS, citizens_clean)
    >>> base = IncrementalRepairer(
    ...     CITIZENS_FDS, thresholds=CITIZENS_THRESHOLDS
    ... ).fit(citizens_clean())
    >>> serving = IndexedRepairer(base)
    >>> record = citizens_clean().as_record(0)
    >>> serving.repair_record(record) == (dict(record), [])
    True
    """

    def __init__(
        self,
        repairer: IncrementalRepairer,
        registry: Optional[AttributeIndexRegistry] = None,
    ) -> None:
        if not repairer.is_fitted:
            raise NotFittedError("fit() the repairer before indexing it")
        self.repairer = repairer
        self.registry = registry if registry is not None else AttributeIndexRegistry()
        assert repairer._components is not None
        self.counters: Dict[str, int] = {
            "serve_elements_total": 0,
            "serve_elements_examined": 0,
            "serve_index_probes": 0,
            "serve_index_rebuilds": 0,
        }
        self._indexes = [
            _ComponentIndex(
                component, repairer._model, self.registry, f"serve{i}"
            )
            for i, component in enumerate(repairer._components)
        ]

    # -- delegated model surface ---------------------------------------
    @property
    def is_fitted(self) -> bool:
        return True

    @property
    def absorb(self) -> bool:
        return self.repairer.absorb

    @property
    def fds(self) -> List[FD]:
        return self.repairer.fds

    @property
    def records_seen(self) -> int:
        return self.repairer.records_seen

    @property
    def records_repaired(self) -> int:
        return self.repairer.records_repaired

    @property
    def records_absorbed(self) -> int:
        return self.repairer.records_absorbed

    def examined_fraction(self) -> float:
        """Elements verified / elements the linear scan would touch."""
        total = self.counters["serve_elements_total"]
        if not total:
            return 0.0
        return self.counters["serve_elements_examined"] / total

    # ------------------------------------------------------------------
    def repair_record(
        self, record: Mapping[str, object]
    ) -> Tuple[Dict[str, object], List[CellEdit]]:
        """Indexed :meth:`IncrementalRepairer.repair_record`.

        Identical control flow, verdicts, edits, and counters — only the
        consistency scan is indexed.
        """
        repairer = self.repairer
        if repairer._components is None:
            raise NotFittedError("call fit() before repair_record()")
        assert repairer._thresholds is not None
        repairer.records_seen += 1
        repaired = dict(record)
        edits: List[CellEdit] = []
        counters = self.counters
        for component, index in zip(repairer._components, self._indexes):
            missing = [
                a for a in component.attributes if a not in repaired
            ]
            if missing:
                raise KeyError(f"record is missing attribute(s): {missing}")
            if component.resolved(repaired):
                continue
            if repairer.absorb and index.consistent_everywhere(
                repaired, repairer._thresholds, counters
            ):
                component.absorb(repaired)
                index.invalidate()
                repairer.records_absorbed += 1
                continue
            values = tuple(repaired[a] for a in component.attributes)
            target, _cost = component.tree.nearest_target(values)
            for attr, new in zip(component.attributes, target.values):
                old = repaired[attr]
                if old != new:
                    edits.append(CellEdit(0, attr, old, new))
                    repaired[attr] = new
        if edits:
            repairer.records_repaired += 1
        return repaired, edits
