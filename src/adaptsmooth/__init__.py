"""Adaptive Gaussian smoothing of 3D volumes with an end-to-end trained width.

A width-predicting network estimates per-volume noise through a fixed
Laplacian response and emits a Gaussian filter width; the main path builds
the filter, smooths the volume and classifies it, and the whole graph is
trained jointly so the smoothing degree serves the decoding task.
"""

__version__ = "0.1.0"
