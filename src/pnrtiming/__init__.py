"""Photon-number resolution from SNSPD pulse edge timing.

Simulates time-tag streams of trigger/rise/fall channels, calibrates the
projection that separates photon-number clusters on the (rise delay, fall
delay) plane, decodes per-event photon numbers, and analyzes the
resulting photon statistics.
"""

from .calibrate import (
    CalibrationModel,
    VoigtComponent,
    adjacent_pair_crosstalk,
    boundaries_with_fallback,
    build_histogram,
    calibrate_both,
    calibrate_events,
    classify,
    crosstalk_matrix,
    mixture_pdf,
    project,
    total_offdiagonal,
    voigt_pdf,
)
from .decode import PhotonRecordSet, confusion_report, decode_events
from .photostat import (
    JointDistribution,
    NumberDistribution,
    build_jpnd,
    estimate_efficiency,
    fit_poisson_mu,
    hom_contrast,
)
from .simulate import (
    JitterParams,
    PulseModelParams,
    SourceSpec,
    TruthBlock,
    default_params,
    edge_delays,
    sample_source,
    simulate_stream,
)
from .timetags import (
    EdgeEventSet,
    TagBlock,
    iter_tag_blocks,
    pair_edges,
    read_tag_block,
    write_stream,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationModel",
    "EdgeEventSet",
    "JitterParams",
    "JointDistribution",
    "NumberDistribution",
    "PhotonRecordSet",
    "PulseModelParams",
    "SourceSpec",
    "TagBlock",
    "TruthBlock",
    "VoigtComponent",
    "adjacent_pair_crosstalk",
    "boundaries_with_fallback",
    "build_histogram",
    "build_jpnd",
    "calibrate_both",
    "calibrate_events",
    "classify",
    "confusion_report",
    "crosstalk_matrix",
    "decode_events",
    "default_params",
    "edge_delays",
    "estimate_efficiency",
    "fit_poisson_mu",
    "hom_contrast",
    "iter_tag_blocks",
    "mixture_pdf",
    "pair_edges",
    "project",
    "total_offdiagonal",
    "read_tag_block",
    "sample_source",
    "simulate_stream",
    "voigt_pdf",
    "write_stream",
]
