"""Monte-Carlo dropout uncertainty quantification.

Fig. 2 of the paper plots the 95 % confidence bound of a BraggNN model,
quantified with MC dropout [Gal & Ghahramani 2016], alongside the prediction
error while the experiment drifts.  These helpers implement the same
procedure: run ``n_samples`` stochastic forward passes with dropout active
and summarise the spread of the predictions.

The fast path exploits two structural facts:

1. Every layer *before the first Dropout* is deterministic, so the looped
   implementation recomputed an identical prefix (for BraggNN: the entire
   convolutional trunk and first dense layer) ``n_samples`` times.  The
   prefix now runs **once** per probe.
2. The stochastic suffix folds the ``n_samples`` passes into the batch
   dimension — one forward pass over ``(n_samples * batch, ...)`` rows
   instead of ``n_samples`` passes — keeping the BLAS kernels saturated.

Because every :class:`~repro.nn.layers.Dropout` owns an independent RNG and
consumes its float64 stream row-major, the folded suffix draws exactly the
same masks as the historical looped implementation, so results match it to
float rounding for a given RNG state (asserted by the test suite).  Models
containing BatchNorm fall back to the looped path, since folding would
change the batch statistics.
"""

from __future__ import annotations

from statistics import NormalDist
from typing import List, Tuple

import numpy as np

from repro.nn.layers import Dropout, Layer
from repro.nn.network import Sequential
from repro.utils.errors import ConfigurationError

#: Default cap on rows per folded forward pass; bounds workspace memory and
#: keeps the folded intermediates cache-resident.
DEFAULT_MAX_ROWS = 1024


def _split_at_first_dropout(model: Sequential) -> Tuple[List[Layer], List[Layer]]:
    """(deterministic prefix, stochastic suffix starting at the first Dropout)."""
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Dropout):
            return model.layers[:i], model.layers[i:]
    return model.layers, []  # unreachable behind the has_dropout() guard


def _folded_draws(
    model: Sequential, x: np.ndarray, n_samples: int, max_rows: int
) -> np.ndarray:
    """Stack of ``n_samples`` stochastic predictions, prefix shared + folded."""
    prefix, suffix = _split_at_first_dropout(model)
    h = x
    for layer in prefix:  # deterministic: run once for all samples
        h = layer.forward(h, training=False)
    batch = h.shape[0]
    samples_per_chunk = max(1, min(n_samples, max_rows // max(1, batch)))
    chunks = []
    done = 0
    while done < n_samples:
        k = min(samples_per_chunk, n_samples - done)
        tiled = np.broadcast_to(h, (k,) + h.shape).reshape((k * batch,) + h.shape[1:])
        out = tiled
        for layer in suffix:
            out = layer.forward(out, training=True)
        chunks.append(out.reshape((k, batch) + out.shape[1:]))
        done += k
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)


def _looped_draws(model: Sequential, x: np.ndarray, n_samples: int) -> np.ndarray:
    return np.stack([model.forward(x, training=True) for _ in range(n_samples)], axis=0)


def mc_dropout_predict(
    model: Sequential,
    x: np.ndarray,
    n_samples: int = 20,
    max_rows: int = DEFAULT_MAX_ROWS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(mean, std)`` of ``n_samples`` stochastic forward passes.

    The model must contain at least one :class:`~repro.nn.layers.Dropout`
    layer, otherwise the passes would be deterministic and the reported
    uncertainty meaningless.  ``max_rows`` caps the rows per folded forward
    pass (memory/throughput trade-off); set it to ``0`` to force the looped
    path.
    """
    if n_samples < 2:
        raise ConfigurationError("n_samples must be >= 2 for an uncertainty estimate")
    if not model.has_dropout():
        raise ConfigurationError(
            "MC dropout requires a model with at least one Dropout layer"
        )
    x = np.asarray(x)
    if max_rows and not model.has_batchnorm():
        draws = _folded_draws(model, x, n_samples, max_rows)
    else:
        draws = _looped_draws(model, x, n_samples)
    return draws.mean(axis=0), draws.std(axis=0)


# -- confidence intervals ---------------------------------------------------
def _z_value(confidence: float) -> float:
    """Two-sided standard-normal z value for a confidence level (0.95 -> 1.96)."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def prediction_interval_width(
    model: Sequential,
    x: np.ndarray,
    n_samples: int = 20,
    confidence: float = 0.95,
    max_rows: int = DEFAULT_MAX_ROWS,
) -> float:
    """Mean width of the symmetric ``confidence`` interval across outputs.

    For a Gaussian approximation the 95 % interval width is ``2 * 1.96 * std``;
    we report the mean over all samples and output dimensions, matching the
    scalar "uncertainty" series of Fig. 2.
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    _, std = mc_dropout_predict(model, x, n_samples=n_samples, max_rows=max_rows)
    return float(np.mean(2.0 * _z_value(confidence) * std))
