// Baseline template-JIT tier over the prepared instruction stream.
//
// The tier stitches per-op x86-64 stencils over exactly the stream the
// threaded interpreter executes: superinstructions stay fused, fuel is
// charged per linear_cost[pc] segment at the same gates, and all operands
// live in the interpreter's plain-form stack slots (operand k of a frame at
// stack slot stack_base + k, i32 values zero-extended to the full 8-byte
// slot). Because compiled code never caches a value anywhere the
// interpreter would not, every segment gate is an OSR seam: compiled code
// can exit at any gate (or deopt at any instruction boundary) and the
// interpreter continues with bit-identical executed_instrs, fuel
// accounting, trap kinds, and suspension/snapshot state. Anything the
// stencil table does not cover — floating point, truncations, atomics,
// memory.grow/fill/copy — exits to the interpreter, which RE-EXECUTES the
// instruction from an unconsumed state (the exit uncharges the remainder of
// the segment first), so the slow ops have exactly one implementation and
// the switch loop stays the semantics oracle. Calls exit too, but the
// dispatcher runs them itself: a wasm callee gets a frame, a host import
// (a WALI syscall) runs through the interpreter's own CallHost, and
// compiled code re-enters at call_pc + 1.
//
// Entry points are the threaded loop's frame_entry and loop-header hooks
// (RequestEnter), which also drive count-based tier-up; RunLoop's driver
// then trampolines into compiled code (Execute) and reconciles its exits.
#ifndef SRC_WASM_JIT_H_
#define SRC_WASM_JIT_H_

#include <cstddef>
#include <memory>

#include "src/wasm/interp.h"
#include "src/wasm/module.h"
#include "src/wasm/types.h"

// The tier rides on the threaded loop's OSR seams and emits x86-64 with a
// GCC/Clang top-level-asm trampoline; anywhere that stack is unavailable
// the tier compiles out entirely and JitAvailable() reports false.
#if defined(WASM_JIT) && defined(WASM_THREADED_DISPATCH) && \
    defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WASM_JIT_OK 1
#else
#define WASM_JIT_OK 0
#endif

namespace wasm {
namespace jit {

// Allocates the module's tier state (per-function slots + counters). Called
// by PrepareModule; returns null when the tier is compiled out. Re-prepare
// REPLACES the state: compiled code is keyed to the prepared stream's pcs.
std::shared_ptr<JitModuleState> CreateModuleState(size_t num_functions);

#if WASM_JIT_OK

// Tier-up decision point, called from the threaded loop's OSR hooks with
// fr->pc / ctx.executed already synced. Bumps the frame's function heat,
// triggers compilation past ExecOptions::jit_threshold (CAS latch: exactly
// one compiler per function across concurrent instances), and returns true
// when compiled code is ready to enter at fr->pc — the hook then spills its
// TOS cache and returns to RunLoop's driver with ctx.jit_enter set.
bool RequestEnter(ExecContext& ctx);

// Runs compiled code starting at ctx.frames.back() (validated by
// RequestEnter) and keeps executing natively across calls and returns while
// callees/callers are compiled. Returns kNone either with the run finished
// (frames empty, results in plain form at the stack top) or with the
// interpreter expected to continue at frames.back() (fr->pc / ctx.executed
// / stack all exact); returns a trap kind on traps raised from native state
// (safepoint polls, stack exhaustion at a native call) and on every trap a
// host call raises, kSyscallPending and kExit included, with the state the
// interpreter's call op leaves (fr->pc past the call, args popped). All
// other traps deopt to the interpreter first so their billing and messages
// come from the oracle path.
TrapKind Execute(ExecContext& ctx);

// interp.cc's PushFrame and CallHost, exported for Execute's native call
// path so frame geometry and host calls each have exactly one
// implementation.
bool PushFrameForJit(ExecContext& ctx, const FuncRef& ref);
TrapKind CallHostForJit(ExecContext& ctx, const HostFunc& host);

#endif  // WASM_JIT_OK

}  // namespace jit
}  // namespace wasm

#endif  // SRC_WASM_JIT_H_
