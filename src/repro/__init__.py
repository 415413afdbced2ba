"""repro: a reproduction of "Mitigating Voltage Drop in Resistive
Memories by Dynamic RESET Voltage Regulation and Partition RESET"
(Zokaee & Jiang, HPCA 2020).

The package layers:

* :mod:`repro.circuit` — selectors, cells, wires and nodal IR-drop
  solvers for cross-point arrays;
* :mod:`repro.xpoint` — full-array effective-voltage / latency /
  endurance maps;
* :mod:`repro.techniques` — DRVR, PR, UDRVR and every prior scheme the
  paper compares against;
* :mod:`repro.mem`, :mod:`repro.cpu`, :mod:`repro.workloads` — the
  NVDIMM memory system (its controller enforces the charge pump's
  current budget and charge latency), CMP simulator and synthetic
  Table-IV workloads;
* :mod:`repro.analysis` — one driver per paper figure/table.

Quick start::

    from repro import default_config, get_ir_model
    from repro.techniques import make_udrvr_pr

    config = default_config()
    model = get_ir_model(config)
    print(model.v_eff(511, 511))            # worst-corner effective Vrst
    scheme = make_udrvr_pr(config)          # the paper's headline scheme
"""

from .config import (
    ArrayParams,
    CellParams,
    CpuParams,
    LifetimeParams,
    MemoryParams,
    PumpParams,
    SelectorParams,
    SystemConfig,
    config_hash,
    default_config,
)
from .xpoint import ArrayIRModel, get_ir_model

__version__ = "1.1.0"

from .engine import (  # noqa: E402  (engine needs config/__version__ above)
    ExperimentResult,
    RunContext,
    run_experiment,
)

__all__ = [
    "ArrayParams",
    "CellParams",
    "CpuParams",
    "LifetimeParams",
    "MemoryParams",
    "PumpParams",
    "SelectorParams",
    "SystemConfig",
    "config_hash",
    "default_config",
    "ArrayIRModel",
    "get_ir_model",
    "ExperimentResult",
    "RunContext",
    "run_experiment",
    "__version__",
]
