"""Runtime: Tensor IR executors, memory arena and compiled partitions.

In the paper, Tensor IR is lowered to LLVM IR plus microkernel calls.
Here the same Tensor IR is executed by one of two backends:

* :class:`~repro.runtime.codegen.CodegenExecutor` — the default: each
  Tensor IR function is ``exec``-generated as one Python function
  (literal loops, inline slice subscripts, locals instead of environment
  dicts, each parallel-loop body emitted once and fanned out over a
  persistent thread pool);
* :class:`~repro.runtime.interpreter.Interpreter` — the reference
  backend: walks the statement tree per call.

All compiler decisions (fusion, layout, blocking, buffer reuse) are
taken *before* this stage, so both backends exercise exactly the code
structure the paper generates; the differential tests assert they are
bit-identical.
"""

from .codegen import CodegenExecutor
from .interpreter import ExecutionStats, Interpreter
from .partition import EXECUTOR_BACKENDS, CompiledPartition

__all__ = [
    "CodegenExecutor",
    "CompiledPartition",
    "EXECUTOR_BACKENDS",
    "ExecutionStats",
    "Interpreter",
]
