"""The simulated machine: memory, caches, costs, CPU."""

from .cache import L1Cache
from .cpu import Machine, Thread
from .memory import Memory

__all__ = ["Machine", "Thread", "Memory", "L1Cache"]
