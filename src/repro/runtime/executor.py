"""Compatibility name for the runtime executor.

The closure executor that used to live here was replaced by
:class:`~repro.runtime.codegen.CodegenExecutor`.  The repository
benchmark (``perfbench/layers.py``) imports ``CompiledExecutor`` from
this module to time executor builds, so the name stays as an alias.
"""

from .codegen import CodegenExecutor as CompiledExecutor  # noqa: F401
