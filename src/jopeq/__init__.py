"""
Joint privacy-quantization uplink for federated learning.

Lattice quantizers with shared-seed subtractive dithering, privacy-
preserving noise designed in the characteristic-function domain so the
end-to-end distortion realizes a local-DP mechanism, a bit-exact codec,
a deterministic FL simulator, and the statistical tests that verify the
distortion laws.
"""

from .codec import CorruptPayloadError, EncodedUpdate, decode, encode, snr
from .dither import SharedRandomness, dither_block, sdq
from .flsim import (BASELINES, CodecSpec, DivergenceError, FlConfig,
                    RoundMetrics, Task, TaskSpec, build_task, calibrate_xi,
                    fedavg_round, heterogeneity_gap, local_sgd,
                    run_experiment, theorem6_bound, theorem7_bound)
from .lattice import (ConfigurationError, Lattice, cell_cf, hexagonal_lattice,
                      nearest_point, quantize_clipped, scalar_uniform,
                      square_lattice)
from .privacy import (InfeasibleParametersError, MechanismInfeasibleError,
                      MechanismSpec, PpnSampler, build_ppn_sampler,
                      laplace_spec, mechanism_reference_sample,
                      pq_tradeoff_check, required_ppn_variance,
                      solve_t_params, t_mech_epsilon, t_spec)
from .stattests import TestReport, energy_distance_test, ks_test

__version__ = "0.1.0"
