"""Application workloads exercising the all-to-all collective."""

from .fft3d import FFT3DResult, DistributedFFT3D

__all__ = [
    "FFT3DResult",
    "DistributedFFT3D",
]
