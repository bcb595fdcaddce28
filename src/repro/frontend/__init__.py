"""Front-end tools: the ISA frontends (MIPS, RV32IM) and the query generator.

Importing this package registers the built-in frontends in
:data:`repro.isa.registry.ISA_FRONTENDS`; :func:`repro.isa.registry.get_frontend`
does that import lazily, so looking a frontend up by name is enough.
"""

from ..isa.registry import ISA_FRONTENDS, register_frontend
from .mips import (MIPS_ABI, MIPS_FRONTEND, MIPS_REGISTERS, MipsFrontend,
                   MipsTranslationError, MipsTranslator, translate_mips)
from .riscv import (RISCV_ABI, RISCV_FRONTEND, RISCV_REGISTERS, RiscvFrontend,
                    RiscvTranslationError, translate_riscv)
from .querygen import QUERY_KINDS, generate_campaign, generate_query

for _frontend in (MIPS_FRONTEND, RISCV_FRONTEND):
    if _frontend.name not in ISA_FRONTENDS:
        register_frontend(_frontend)

__all__ = [
    "MIPS_ABI", "MIPS_FRONTEND", "MIPS_REGISTERS", "MipsFrontend",
    "MipsTranslationError", "MipsTranslator", "translate_mips",
    "RISCV_ABI", "RISCV_FRONTEND", "RISCV_REGISTERS", "RiscvFrontend",
    "RiscvTranslationError", "translate_riscv",
    "QUERY_KINDS", "generate_campaign", "generate_query",
]
