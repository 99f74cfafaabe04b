"""Event-adaptive fake news detection on propagation graphs.

Trains a graph-convolutional target predictor with adaptive
representation-space augmentation and contrastive learning, an event-only
predictor that captures per-event bias, and removes that bias at inference
by weighted logit subtraction.  Ships with an event-separated splitter and
a synthetic biased-dataset generator for end-to-end validation.
"""

import os

# One BLAS thread whatever the environment says, since another thread count can
# change a checkpoint's last bits.  Set before any fade module imports numpy, and
# inherited by child processes; a caller that imported numpy first is unaffected.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

__version__ = "0.1.0"
