"""Wavelet denoising under a mean-linked, possibly unknown noise variance."""

from .estimator import (EstimateResult, EstimatorConfig, apply_threshold,
                        baseline_mad_estimate, estimate, hard_threshold, soft_threshold,
                        thresholds_data_driven, thresholds_known_h, universal_factor)
from .signals import (EXPONENTIAL, GAUSSIAN, POISSON, NoiseModel, SeedSpec,
                      make_blocks, make_bumps, make_doppler, make_heavisine,
                      rescale_to_range, sample_noise, true_variance_function)
from .varfn import (PreliminaryFit, VarFnConfig, VarianceEstimate, default_bandwidth,
                    estimate_variance_function, nw_variance_raw, pava_isotone,
                    preliminary_fit, running_mean, triangular_kernel)
from .vst import VstState, denoise_via_vst, forward_vst, inverse_vst
from .wavelet import CoeffPyramid, WaveletBasis, dwt_forward, dwt_inverse, haar, local_means

__version__ = "0.1.0"
