"""Remote nondestructive parity measurement: link statistics, exact optics,
density-matrix gadgets, repeater chains, distillation and time optimization.
"""

from .formulas import (DetectorKind, DetectorModel, InteractionParams,
                       LinkGeometry, PerfPoint, performance,
                       performance_oracle, link_transmittance)
from .optics import (ProtocolConfig, OutcomeEnsemble, Variant, run_protocol,
                     fock_oracle, ensemble_performance, phase_error_split)
from .chain import (ChainConfig, ChainResult, GeometryKind, Hardware,
                    chain_closed_form, chain_iterated, key_rate,
                    direct_transmission_time, simulate_waiting_time,
                    waiting_time_stats)
from .distill import (WernerState, RecurrenceResult, recurrence_oracle,
                      recurrence_step, recurrence_via_gadgets)
from .optimize import (OptimumRecord, SweepSpec, optimize_chain, sweep,
                       brute_force_chain)

__all__ = [
    "DetectorKind", "DetectorModel", "InteractionParams", "LinkGeometry",
    "PerfPoint", "performance", "performance_oracle", "link_transmittance",
    "ProtocolConfig", "OutcomeEnsemble", "Variant", "run_protocol",
    "fock_oracle", "ensemble_performance", "phase_error_split",
    "ChainConfig", "ChainResult", "GeometryKind", "Hardware",
    "chain_closed_form", "chain_iterated", "key_rate",
    "direct_transmission_time", "simulate_waiting_time",
    "waiting_time_stats",
    "WernerState", "RecurrenceResult", "recurrence_oracle",
    "recurrence_step", "recurrence_via_gadgets",
    "OptimumRecord", "SweepSpec", "optimize_chain", "sweep",
    "brute_force_chain",
]

__version__ = "0.1.0"
