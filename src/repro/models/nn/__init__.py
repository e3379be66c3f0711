"""Trainable NumPy models for the convergence experiments.

Each model exposes the same interface the distributed trainer consumes:

* ``init_params(rng) -> dict[str, np.ndarray]``
* ``loss_and_grad_workers(params, xs, ys, out=None) -> (losses, grads, metrics)``,
  one blocked pass over ``W`` workers' stacked batches, each gradient
  with a leading worker axis

Parameters are plain NumPy arrays, and gradients are computed into the
caller's ``out`` arrays when given (views of the trainer's flat fusion
buffer; see :class:`repro.train.trainer.TrainableModel`); one batch
alone is a one-worker block (``x[None]``).  The autodiff tape is an
internal detail.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.models.nn.convnet": ["SmallConvNet"],
        "repro.models.nn.mlp": ["MLPClassifier"],
        "repro.models.nn.transformer": ["TinyTransformer"],
    },
)
