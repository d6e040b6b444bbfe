"""Kernel registry.

Every kernel is a :class:`Kernel`: OR1K assembly source, a pure-Python
golden reference producing the expected architectural results, and mix
metadata.  The test suite assembles each kernel, co-simulates the
functional ISS against the cycle-accurate pipeline, and checks both against
the golden reference.
"""

import importlib
from dataclasses import dataclass, field

from repro.asm import assemble

#: Register that kernels leave their primary result in (OR1K ABI rv).
RESULT_REGISTER = 11


@dataclass
class Kernel:
    """One benchmark kernel.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"crc32"``.
    source:
        OR1K assembly text (must halt with ``l.nop 0x1``).
    expected_regs:
        Register index -> expected value at halt.
    description:
        One-line description for reports.
    category:
        Mix category: ``"alu"``, ``"mul"``, ``"memory"``, ``"control"``,
        ``"mixed"``.
    """

    name: str
    source: str
    expected_regs: dict
    description: str = ""
    category: str = "mixed"
    _program: object = field(default=None, repr=False)

    def program(self):
        """Assemble (cached) into a Program."""
        if self._program is None:
            self._program = assemble(self.source, name=self.name)
        return self._program

    def verify_state(self, state):
        """Raise AssertionError if the architectural state mismatches."""
        for reg, expected in self.expected_regs.items():
            actual = state.regs[reg]
            if actual != expected & 0xFFFFFFFF:
                raise AssertionError(
                    f"kernel {self.name}: r{reg} = {actual:#010x}, "
                    f"expected {expected & 0xFFFFFFFF:#010x}"
                )
        return True


_REGISTRY = {}


def register(kernel):
    if kernel.name in _REGISTRY:
        raise ValueError(f"kernel {kernel.name!r} already registered")
    _REGISTRY[kernel.name] = kernel
    return kernel


def get_kernel(name):
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_kernels():
    """All registered kernels, sorted by name."""
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


_LOADED = False

#: The kernel modules under this package (each registers its kernels on
#: import), plus the CoreMark-style composite.
KERNEL_MODULES = (
    "repro.workloads.kernels.bits",
    "repro.workloads.kernels.crc",
    "repro.workloads.kernels.fib",
    "repro.workloads.kernels.gcd",
    "repro.workloads.kernels.histogram",
    "repro.workloads.kernels.matmult",
    "repro.workloads.kernels.memops",
    "repro.workloads.kernels.primes",
    "repro.workloads.kernels.search",
    "repro.workloads.kernels.signal",
    "repro.workloads.kernels.sort",
    "repro.workloads.kernels.statemachine",
    "repro.workloads.coremark",
)


def _ensure_loaded():
    """Import all kernel modules (they register themselves)."""
    global _LOADED
    if _LOADED:
        return
    for name in KERNEL_MODULES:
        importlib.import_module(name)
    _LOADED = True
