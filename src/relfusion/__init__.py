"""Late-fusion visual relationship scoring over precomputed detections."""

__version__ = "0.1.0"
