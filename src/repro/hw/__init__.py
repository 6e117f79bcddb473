"""The RSQP hardware model: ISA, cycle-accurate machine, compiler,
frequency/resource/power models, and the host-side accelerator wrapper."""

from .accelerator import (Accelerator, RSQPAccelerator, RSQPResult,
                          compile_for_customization)
from .asm import (ROM_WORD_BYTES, decode_program, disassemble,
                  encode_program, rom_words)
from .batched import BatchExecutor, BatchMachine, BatchMatrixResource
from .compiled import BACKENDS, CompiledExecutor, validate_backend
from .compiler import (ADMM_LOOP, PCG_LOOP, PDHG_LOOP, CompiledProgram,
                       attach_costs, compile_osqp_program,
                       compile_pdqp_program)
from .frequency import FMAX_CAP_MHZ, fmax_mhz
from .isa import (PIPELINE_OVERHEAD, Control, DataTransfer, Instruction,
                  Loop, Program, ScalarOp, ScalarOpKind, SpMV, VecDup,
                  VectorOp, VectorOpKind)
from .machine import (CYCLE_CLASSES, ExecutionStats, Machine,
                      MatrixResource)
from .memory import (HBMConfig, HBMPlan, MatrixPlacement, U50_HBM,
                     plan_hbm_layout)
from .pdqp import PDQPAccelerator, compile_pdqp_for_customization
from .power import (FPGA_DYNAMIC_MAX_W, FPGA_STATIC_W, fpga_power_watts)
from .spmv_engine import SpMVTrace, simulate_spmv
from .resources import (U50_LIMITS, ResourceEstimate, estimate_resources,
                        fits_device)

#: Algorithm name -> the accelerator class that runs its program. Adding
#: an algorithm is one :class:`Accelerator` subclass plus one entry here.
ACCELERATORS: dict[str, type[Accelerator]] = {
    "admm": RSQPAccelerator,
    "pdqp": PDQPAccelerator,
}


def accelerator_class(algorithm: str) -> type[Accelerator]:
    """The accelerator class for ``algorithm`` (``ValueError`` if none)."""
    if algorithm not in ACCELERATORS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one "
                         f"of {', '.join(ACCELERATORS)}")
    return ACCELERATORS[algorithm]


__all__ = [
    "Accelerator",
    "ACCELERATORS",
    "accelerator_class",
    "RSQPAccelerator",
    "compile_for_customization",
    "disassemble",
    "rom_words",
    "encode_program",
    "decode_program",
    "ROM_WORD_BYTES",
    "HBMConfig",
    "HBMPlan",
    "MatrixPlacement",
    "U50_HBM",
    "plan_hbm_layout",
    "SpMVTrace",
    "simulate_spmv",
    "RSQPResult",
    "PDQPAccelerator",
    "compile_pdqp_for_customization",
    "CompiledProgram",
    "compile_osqp_program",
    "compile_pdqp_program",
    "attach_costs",
    "ADMM_LOOP",
    "PCG_LOOP",
    "PDHG_LOOP",
    "fmax_mhz",
    "FMAX_CAP_MHZ",
    "Machine",
    "MatrixResource",
    "ExecutionStats",
    "CYCLE_CLASSES",
    "BACKENDS",
    "CompiledExecutor",
    "validate_backend",
    "BatchExecutor",
    "BatchMachine",
    "BatchMatrixResource",
    "Instruction",
    "ScalarOp",
    "ScalarOpKind",
    "VectorOp",
    "VectorOpKind",
    "DataTransfer",
    "VecDup",
    "SpMV",
    "Control",
    "Loop",
    "Program",
    "PIPELINE_OVERHEAD",
    "estimate_resources",
    "ResourceEstimate",
    "fits_device",
    "U50_LIMITS",
    "fpga_power_watts",
    "FPGA_STATIC_W",
    "FPGA_DYNAMIC_MAX_W",
]
