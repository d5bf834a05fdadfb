"""Disordered polymer depinning: exact recursions, estimation, analysis."""

from .kernel import (ReturnKernel, srw_kernel, power_kernel, geometric_kernel,
                     kernel_from_file)
from .pure_solver import (PureSolution, PureAsymptotics, solve_free_energy_pure,
                          hc_pure, pure_asymptotics)
from .disorder import (DisorderLaw, DisorderSample, disorder_law, sample_disorder,
                       spawn_seed, shift_entropy, tilt_entropy,
                       smoothing_constant, SmoothingConstants, normal_quantile)
from .engine import (ModelSpec, LogPartitionTable, log_partition_pinning,
                     log_partition_free_endpoint, log_partition_copolymer,
                     log_partition_constrained, constrained_window, logsumexp_1d)
from .oracle import (OracleResult, brute_force_pinning, brute_force_copolymer,
                     brute_force_constrained)
from .estimator import (FreeEnergyEstimate, PhiCurve, estimate_free_energy,
                        estimate_phi, default_epsilon)
from .analysis import (CriticalFit, SmoothingReport, locate_hc, fit_exponent,
                       smoothing_check, critical_power_fit, extrapolate_free_energy,
                       select_fit_points)

__version__ = "0.1.0"
