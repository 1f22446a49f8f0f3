"""Index samplers.

``Sampler`` objects generate the order in which dataset indices are visited.
Besides the standard sequential/random samplers this module provides
:class:`WeightedClusterSampler`, which draws historical samples so that the
retrieved dataset follows a target cluster probability distribution — the
mechanism fairDS uses to return "a labeled dataset with similar
characteristics to the input data".
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.utils.errors import ValidationError
from repro.utils.rng import SeedLike, default_rng
from repro.utils.stats import normalize_distribution


class Sampler:
    """Abstract sampler yielding dataset indices."""

    def __iter__(self) -> Iterator[int]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class SequentialSampler(Sampler):
    def __init__(self, n: int):
        if n < 1:
            raise ValidationError("n must be >= 1")
        self.n = int(n)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __len__(self) -> int:
        return self.n


class RandomSampler(Sampler):
    """Random permutation of the index range, reshuffled each epoch."""

    def __init__(self, n: int, seed: SeedLike = None):
        if n < 1:
            raise ValidationError("n must be >= 1")
        self.n = int(n)
        self._rng = default_rng(seed)

    def __iter__(self) -> Iterator[int]:
        return iter(self._rng.permutation(self.n).tolist())

    def __len__(self) -> int:
        return self.n


def cluster_members(cluster_ids: np.ndarray) -> Dict[int, np.ndarray]:
    """Positions of each cluster id present in ``cluster_ids``, ascending,
    keyed in ascending id order — ``np.nonzero(cluster_ids == c)[0]`` for
    every ``c``, from one stable sort instead of one pass per cluster."""
    if cluster_ids.size == 0:
        return {}
    order = np.argsort(cluster_ids, kind="stable")
    sorted_ids = cluster_ids[order]
    starts = np.flatnonzero(np.diff(sorted_ids)) + 1
    return {
        int(group_id): members
        for group_id, members in zip(sorted_ids[np.r_[0, starts]], np.split(order, starts))
    }


class WeightedClusterSampler(Sampler):
    """Draws indices so the sampled cluster histogram matches a target PDF.

    Parameters
    ----------
    cluster_ids:
        Cluster assignment of every candidate sample (length = dataset size).
    target_pdf:
        Desired probability of each cluster in the output (length = #clusters).
    n_samples:
        How many indices to draw (with replacement across clusters, without
        replacement within a cluster where possible).
    seed:
        RNG seed.
    members_by_cluster:
        Precomputed :func:`cluster_members` of ``cluster_ids``, for callers
        that draw repeatedly from one large candidate set: ``cluster_ids`` is
        then never scanned, and construction costs O(#clusters).
    """

    def __init__(
        self,
        cluster_ids: Sequence[int],
        target_pdf: Sequence[float],
        n_samples: int,
        seed: SeedLike = None,
        members_by_cluster: Optional[Mapping[int, np.ndarray]] = None,
    ):
        cluster_ids = np.asarray(cluster_ids, dtype=int)
        if cluster_ids.ndim != 1 or cluster_ids.size == 0:
            raise ValidationError("cluster_ids must be a non-empty 1-D sequence")
        if n_samples < 1:
            raise ValidationError("n_samples must be >= 1")
        if members_by_cluster is None:
            members_by_cluster = cluster_members(cluster_ids)
        pdf = normalize_distribution(target_pdf)
        if max(members_by_cluster) >= pdf.size:
            raise ValidationError("cluster id exceeds the PDF length")
        self.cluster_ids = cluster_ids
        self.target_pdf = pdf
        self.n_samples = int(n_samples)
        self._members_by_cluster = members_by_cluster
        self._rng = default_rng(seed)

    def _draw(self) -> List[int]:
        rng = self._rng
        # Expected number of samples per cluster, largest-remainder rounding.
        raw = self.target_pdf * self.n_samples
        counts = np.floor(raw).astype(int)
        remainder = self.n_samples - counts.sum()
        if remainder > 0:
            order = np.argsort(-(raw - counts))
            counts[order[:remainder]] += 1
        chosen: List[int] = []
        members_by_cluster = self._members_by_cluster
        # Ascending id order, whatever order the mapping was handed over in:
        # the donor draw below indexes this list.
        nonempty = sorted(c for c, members in members_by_cluster.items() if members.size > 0)
        for cluster, want in enumerate(counts):
            if want == 0:
                continue
            members = members_by_cluster.get(cluster)
            if members is None or members.size == 0:
                # No historical data in this cluster: borrow uniformly from the
                # clusters that do have data so the output size is preserved.
                donor = nonempty[int(rng.integers(0, len(nonempty)))]
                members = members_by_cluster[donor]
            replace = want > members.size
            chosen.extend(rng.choice(members, size=want, replace=replace).tolist())
        rng.shuffle(chosen)
        return chosen

    def __iter__(self) -> Iterator[int]:
        return iter(self._draw())

    def __len__(self) -> int:
        return self.n_samples


class BatchSampler(Sampler):
    """Groups another sampler's indices into mini-batch lists."""

    def __init__(self, base: Sampler, batch_size: int, drop_last: bool = False):
        if batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        self.base = base
        self.batch_size = int(batch_size)
        self.drop_last = bool(drop_last)

    def __iter__(self) -> Iterator[List[int]]:
        batch: List[int] = []
        for idx in self.base:
            batch.append(idx)
            if len(batch) == self.batch_size:
                yield batch
                batch = []
        if batch and not self.drop_last:
            yield batch

    def __len__(self) -> int:
        n = len(self.base)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size
