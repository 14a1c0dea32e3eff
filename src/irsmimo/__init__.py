"""Channel estimation and passive beamforming for IRS-assisted mm-wave
MIMO: sparse channel synthesis, a fixed-rank manifold estimator, a
three-stage greedy estimator, alternating-WMMSE beamforming, and a seeded
Monte-Carlo harness."""

from .channel import (ChannelRealization, Dictionaries, PathSet, PilotBlock,
                      SystemGeometry, build_dictionaries, cascaded,
                      effective_channel, make_pilots, sample_paths,
                      simulate_uplink)
from .cs_est import CsEstConfig, CsEstResult, cs_est
from .harness import (ExperimentConfig, TrialRecord, nmse, parse_config,
                      pnr_to_sigma2, run_trial, sweep)
from .manifold import CgOptions, FixedRankPoint, cg_minimize
from .mo_est import MoEstConfig, MoEstResult, mo_est
from .wmmse import (BeamformingSolution, DownlinkScenario, alt_wmmse,
                    spectral_efficiency)

__version__ = "0.1.0"

__all__ = [
    "BeamformingSolution", "CgOptions", "ChannelRealization", "CsEstConfig",
    "CsEstResult", "Dictionaries", "DownlinkScenario", "ExperimentConfig",
    "FixedRankPoint", "MoEstConfig", "MoEstResult", "PathSet", "PilotBlock",
    "SystemGeometry", "TrialRecord", "alt_wmmse", "build_dictionaries",
    "cascaded", "cg_minimize", "cs_est", "effective_channel", "make_pilots",
    "mo_est", "nmse", "parse_config", "pnr_to_sigma2", "run_trial",
    "sample_paths", "simulate_uplink", "spectral_efficiency", "sweep",
]
