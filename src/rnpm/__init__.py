"""Remote nondestructive parity measurement: link statistics, exact optics,
density-matrix gadgets, repeater chains, distillation and time optimization.
"""

import importlib

#: module -> its public names, which resolve on first access (PEP 562), so
#: that ``import rnpm.cli`` loads only the modules a subcommand runs
_EXPORTS = {
    "formulas": ("DetectorKind", "DetectorModel", "InteractionParams",
                 "LinkGeometry", "PerfPoint", "performance",
                 "performance_oracle", "link_transmittance"),
    "optics": ("ProtocolConfig", "OutcomeEnsemble", "Variant", "run_protocol",
               "fock_oracle", "ensemble_performance", "phase_error_split"),
    "chain": ("ChainConfig", "ChainResult", "GeometryKind", "Hardware",
              "chain_closed_form", "chain_iterated", "key_rate",
              "direct_transmission_time", "simulate_waiting_time",
              "waiting_time_stats"),
    "distill": ("WernerState", "RecurrenceResult", "recurrence_oracle",
                "recurrence_step", "recurrence_via_gadgets"),
    "optimize": ("OptimumRecord", "SweepSpec", "optimize_chain", "sweep"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached in globals(), so that a rebinding in the module shows here
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
