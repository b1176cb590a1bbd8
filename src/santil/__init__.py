"""Task-incremental learning with per-task adjustment networks.

A frozen backbone and classifier shared across tasks, one small trainable
adjustment block per task, reference strategies (baseline, finetune,
independent), and a reproducible experiment harness. All computation runs
on a from-scratch reverse-mode autodiff core over numpy buffers.

The API is the modules (``from santil import engine``); this package root
re-exports nothing, so importing one module loads only what it needs.
"""

__version__ = "0.1.0"
