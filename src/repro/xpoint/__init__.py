"""Array micro-architecture layer: full-array voltage / latency /
endurance maps built on the circuit substrate."""

from .vmap import ArrayIRModel, get_ir_model

__all__ = [
    "ArrayIRModel",
    "get_ir_model",
]
