// Runtime structures: function references, tables, globals, instances and the
// Linker that resolves imports. Mirrors the spec's store/instance split in a
// compact form; Linker owns host functions and must outlive instances.
#ifndef SRC_WASM_INSTANCE_H_
#define SRC_WASM_INSTANCE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/wasm/memory.h"
#include "src/wasm/module.h"
#include "src/wasm/types.h"

namespace wasm {

class Instance;
class ExecContext;

// Host functions receive raw 64-bit slots (types statically validated).
using HostFn =
    std::function<TrapKind(ExecContext&, const uint64_t* args, uint64_t* results)>;

struct HostFunc {
  FuncType type;
  HostFn fn;
  std::string name;
};

// A callable reference: either a wasm function (code+owner) or a host
// function. Null refs have type == nullptr.
struct FuncRef {
  const FuncType* type = nullptr;
  const Function* code = nullptr;
  Instance* owner = nullptr;
  const HostFunc* host = nullptr;

  bool IsNull() const { return type == nullptr; }
  bool IsHost() const { return host != nullptr; }
};

struct TableInst {
  Limits limits;
  std::vector<FuncRef> elems;
};

struct GlobalInst {
  GlobalType type;
  uint64_t bits = 0;
};

// Paper Table 3 safepoint insertion schemes (§3.3/§4.2).
enum class SafepointScheme : uint8_t {
  kNone = 0,      // baseline: no async signal delivery
  kLoop,          // poll on backward branches (loop headers) — WALI default
  kFunction,      // poll on function entry
  kEveryInstr,    // poll after every instruction
};

const char* SafepointSchemeName(SafepointScheme s);

// Interpreter dispatch strategy. kThreaded (computed-goto with
// block-granular fuel/safepoint accounting over prepared code) needs
// compiler support and a WASM_THREADED_DISPATCH build; kAuto picks it when
// available. SafepointScheme::kEveryInstr always runs the portable switch
// loop over the unfused stream so per-instruction polling stays exact.
enum class DispatchMode : uint8_t {
  kAuto = 0,
  kSwitch,
  kThreaded,
};

const char* DispatchModeName(DispatchMode m);
// True when this build carries the computed-goto loop.
bool ThreadedDispatchAvailable();

// Baseline template-JIT tier selection. The tier only ever engages on top
// of the threaded dispatch loop (its frame-entry/loop-header hooks are the
// OSR seams); kAuto therefore means "on when this build carries the JIT and
// the resolved dispatch is kThreaded", and is a no-op everywhere else —
// notably under SafepointScheme::kEveryInstr, which pins the switch loop.
enum class JitTier : uint8_t {
  kAuto = 0,
  kOff,
  kOn,
};

const char* JitTierName(JitTier t);
// True when this build carries the x86-64 template JIT (WASM_JIT build with
// threaded dispatch available).
bool JitAvailable();

// Reusable interpreter buffers (operand stack + frame stack). Host layers
// keep one per pooled process slot so repeated runs reuse grown capacity
// instead of reallocating; defined in interp.h.
struct ExecBuffers;
struct Suspension;

struct ExecOptions {
  SafepointScheme scheme = SafepointScheme::kLoop;
  uint32_t max_frames = 4096;
  uint64_t max_value_stack = 1ULL << 22;  // slots
  uint64_t fuel = 0;                      // 0 = unlimited instructions
  DispatchMode dispatch = DispatchMode::kAuto;
  // Optional recycled stack/frame storage; must not be shared by two
  // concurrent invocations. Nested re-entry (signal handlers) is safe: the
  // outer Invoke has already swapped the live vectors out.
  ExecBuffers* buffers = nullptr;
  // When non-null, host calls may suspend the invocation instead of
  // blocking (TrapKind::kSyscallPending): the interpreter state is parked
  // into this slot and ResumeInvoke(*suspend_to, ...) continues the run
  // with the host call's results materialized on the operand stack. Null
  // (the default) means suspension is unavailable and host functions must
  // complete synchronously. One slot per invocation; re-entrant invocations
  // (signal handlers, guest threads) must clear it.
  Suspension* suspend_to = nullptr;
  // Frame-entry profiling: bump Module::func_profile slots (entries, and
  // entry-sampled fuel attribution) on every wasm frame push. Costs one
  // predicted-not-taken branch per call when off.
  bool profile = false;
  // Baseline-JIT tier selection (see JitTier). kAuto/kOn engage the tier
  // when the build carries it and dispatch resolves to kThreaded.
  JitTier jit = JitTier::kAuto;
  // Frame entries + loop back-edges a function must accumulate before it is
  // compiled (JitFuncSlot::heat). 0 compiles at first entry; the default
  // keeps one-shot code interpreted while anything loop-shaped tiers up
  // within a few iterations.
  uint32_t jit_threshold = 16;
};

// The dispatch loop that would actually run for `opts` in this build
// (resolves kAuto, unavailable kThreaded, and the kEveryInstr slow path).
DispatchMode ResolveDispatch(const ExecOptions& opts);

// Outcome of an invocation.
struct RunResult {
  TrapKind trap = TrapKind::kNone;
  std::string trap_message;
  int32_t exit_code = 0;  // valid when trap == kExit
  std::vector<Value> values;
  uint64_t executed_instrs = 0;

  bool ok() const { return trap == TrapKind::kNone; }
  // Treats a clean exit(0) as success too (process-style programs).
  bool ok_or_exit0() const {
    return ok() || (trap == TrapKind::kExit && exit_code == 0);
  }
};

// Callback polled at safepoints; may re-enter the instance (signal handlers).
using SafepointFn = std::function<TrapKind(ExecContext&)>;

class Instance {
 public:
  const Module& module() const { return *module_; }
  const std::shared_ptr<const Module>& module_ptr() const { return module_; }
  const std::string& name() const { return name_; }

  std::shared_ptr<Memory> memory(uint32_t index = 0) const {
    return index < memories_.size() ? memories_[index] : nullptr;
  }
  std::shared_ptr<TableInst> table(uint32_t index = 0) const {
    return index < tables_.size() ? tables_[index] : nullptr;
  }
  GlobalInst& global(uint32_t index) { return globals_[index]; }
  const FuncRef& func(uint32_t index) const { return funcs_[index]; }
  uint32_t num_funcs() const { return static_cast<uint32_t>(funcs_.size()); }

  common::StatusOr<uint32_t> FindExportedFuncIndex(const std::string& name) const;

  // Invokes function `func_index` with `args` (one slot per param).
  RunResult Call(uint32_t func_index, const std::vector<Value>& args,
                 const ExecOptions& opts = {});
  RunResult CallExport(const std::string& export_name, const std::vector<Value>& args,
                       const ExecOptions& opts = {});
  // Invokes an arbitrary reference (used for table-dispatched signal handlers).
  RunResult CallRef(const FuncRef& ref, const std::vector<Value>& args,
                    const ExecOptions& opts = {});

  void set_user_data(void* p) { user_data_ = p; }
  void* user_data() const { return user_data_; }

  void set_safepoint_fn(SafepointFn fn) { safepoint_fn_ = std::move(fn); }
  const SafepointFn& safepoint_fn() const { return safepoint_fn_; }

 private:
  friend class Linker;
  friend class ExecContext;
  friend TrapKind RunLoop(ExecContext& ctx);

  Instance() = default;

  std::shared_ptr<const Module> module_;
  std::vector<FuncRef> funcs_;
  std::vector<std::shared_ptr<Memory>> memories_;
  std::vector<std::shared_ptr<TableInst>> tables_;
  std::vector<GlobalInst> globals_;
  void* user_data_ = nullptr;
  SafepointFn safepoint_fn_;
  std::string name_;
};

class Linker {
 public:
  Linker() = default;
  Linker(const Linker&) = delete;
  Linker& operator=(const Linker&) = delete;

  void DefineHostFunc(const std::string& module, const std::string& name,
                      FuncType type, HostFn fn);
  void DefineMemory(const std::string& module, const std::string& name,
                    std::shared_ptr<Memory> memory);
  void DefineTable(const std::string& module, const std::string& name,
                   std::shared_ptr<TableInst> table);
  void DefineGlobal(const std::string& module, const std::string& name,
                    GlobalType type, uint64_t bits);
  // Re-exports `instance`'s function and memory exports under module name
  // `as_module` (layering: e.g. a WASI implementation module over WALI).
  common::Status DefineInstanceExports(const std::string& as_module, Instance* instance);

  struct InstantiateOptions {
    // Replaces memory 0 (whether imported or locally declared). Used for the
    // instance-per-thread clone model: the clone shares the parent's memory.
    std::shared_ptr<Memory> memory0_override;
    bool apply_data = true;  // false for thread clones (memory already live)
    bool run_start = true;
    std::string instance_name;
    void* user_data = nullptr;
  };

  common::StatusOr<std::unique_ptr<Instance>> Instantiate(
      std::shared_ptr<const Module> module);
  common::StatusOr<std::unique_ptr<Instance>> Instantiate(
      std::shared_ptr<const Module> module, const InstantiateOptions& opts);

  // Looks up a previously defined function export (host or re-exported wasm
  // function). Lets layered APIs (e.g. WASI-over-WALI) call through the same
  // name-bound interface a guest module would import. Null ref if undefined.
  FuncRef FindFunc(const std::string& module, const std::string& name) const {
    auto it = defs_.find(Key(module, name));
    if (it == defs_.end() || it->second.kind != ExternKind::kFunc) {
      return FuncRef{};
    }
    return it->second.funcref;
  }

 private:
  struct ExternVal {
    ExternKind kind = ExternKind::kFunc;
    FuncRef funcref;
    std::shared_ptr<Memory> memory;
    std::shared_ptr<TableInst> table;
    GlobalType global_type;
    uint64_t global_bits = 0;
  };

  static std::string Key(const std::string& module, const std::string& name) {
    return module + '\0' + name;
  }

  std::map<std::string, ExternVal> defs_;
  std::vector<std::unique_ptr<HostFunc>> host_funcs_;
};

}  // namespace wasm

#endif  // SRC_WASM_INSTANCE_H_
