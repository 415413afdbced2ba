"""Voltage-drop mitigation techniques: the paper's DRVR / PR / UDRVR and
every prior scheme it compares against (Table II)."""

from .base import (
    ChipOverheads,
    IdentityPartitioner,
    MatrixRegulator,
    Partitioner,
    RowSectionRegulator,
    Scheme,
    SchemeLatencyModel,
    StaticRegulator,
    VoltageRegulator,
    WritePlan,
    WritePlans,
)
from .baseline import make_baseline, make_naive_high_voltage
from .drvr import drvr_levels, make_drvr
from .dsgb import make_dsgb
from .dswd import make_dswd
from .dummy_bl import DummyBitlinePartitioner, make_dbl
from .oracle import make_oracle, oracle_bias
from .partition_reset import PartitionResetPartitioner
from .rbdl import make_rbdl
from .sch import make_sch, scheduled_row, scheduled_rows
from .stacks import make_drvr_pr, make_hard, make_hard_sys, standard_schemes
from .udrvr import make_udrvr_high_voltage, make_udrvr_pr, udrvr_col_deltas

__all__ = [
    "ChipOverheads",
    "IdentityPartitioner",
    "MatrixRegulator",
    "Partitioner",
    "RowSectionRegulator",
    "Scheme",
    "SchemeLatencyModel",
    "StaticRegulator",
    "VoltageRegulator",
    "WritePlan",
    "WritePlans",
    "make_baseline",
    "make_naive_high_voltage",
    "drvr_levels",
    "make_drvr",
    "make_dsgb",
    "make_dswd",
    "DummyBitlinePartitioner",
    "make_dbl",
    "make_oracle",
    "oracle_bias",
    "PartitionResetPartitioner",
    "make_rbdl",
    "make_sch",
    "scheduled_row",
    "scheduled_rows",
    "make_drvr_pr",
    "make_hard",
    "make_hard_sys",
    "standard_schemes",
    "make_udrvr_high_voltage",
    "make_udrvr_pr",
    "udrvr_col_deltas",
]
