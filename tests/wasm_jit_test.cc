// Differential tests for the baseline template-JIT tier: threaded dispatch
// with the JIT enabled (immediate and mid-run tier-up) must be bit-identical
// to the switch-loop oracle and to the JIT-off threaded loop — same result
// values, same trap kinds at the same points, same executed_instrs across
// dense fuel sweeps that land INSIDE compiled segments, same
// suspension/resume behavior. On builds where the tier is compiled out
// (JitAvailable() == false) every configuration still runs and must still
// agree; the tier-engagement assertions are gated.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/wasm/prepare.h"
#include "src/wasm/wasm.h"
#include "tests/wali_test_util.h"
#include "tests/wat_test_util.h"

namespace {

using wasm::DispatchMode;
using wasm::ExecOptions;
using wasm::JitTier;
using wasm::RunResult;
using wasm::SafepointScheme;
using wasm::TrapKind;
using wasm::Value;

struct JitCase {
  std::string label;
  DispatchMode dispatch = DispatchMode::kThreaded;
  JitTier jit = JitTier::kOff;
  uint32_t threshold = 0;
};

// The comparison matrix: the switch oracle, the JIT-off threaded loop, the
// JIT entered immediately (threshold 0 tiers up at the first OSR seam), and
// the JIT entered mid-run (a warm threshold, so early iterations/calls are
// interpreted and compiled code takes over at a loop back-edge or call),
// once more at WaliRuntime's default threshold of 16.
std::vector<JitCase> Matrix() {
  return {
      {"switch", DispatchMode::kSwitch, JitTier::kOff, 0},
      {"threaded", DispatchMode::kThreaded, JitTier::kOff, 0},
      {"jit0", DispatchMode::kThreaded, JitTier::kOn, 0},
      {"jit-warm", DispatchMode::kThreaded, JitTier::kOn, 13},
      {"jit16", DispatchMode::kThreaded, JitTier::kOn, 16},
  };
}

// Sum of a module's per-function deopt counters (JitFuncSlot::deopts).
uint64_t ModuleDeopts(const wasm::Module& m) {
  if (m.jit == nullptr) return 0;
  uint64_t sum = 0;
  for (size_t i = 0; i < m.functions.size(); ++i) {
    sum += m.jit->slots[i].deopts.load();
  }
  return sum;
}

struct CaseRun {
  std::string label;
  RunResult result;
  uint64_t mem_pages = 0;
  uint64_t tierups = 0;
  uint64_t compiles = 0;
  uint64_t osr_exits = 0;
  uint64_t deopts = 0;  // ModuleDeopts
};

// Copies a module's tier counters into `run`.
void ReadJitCounters(const wasm::Module& m, CaseRun* run) {
  if (m.jit == nullptr) return;
  run->tierups = m.jit->tierups.load();
  run->compiles = m.jit->compiles.load();
  run->osr_exits = m.jit->osr_exits.load();
  run->deopts = ModuleDeopts(m);
}

// Defines a case's imports on its linker; called once per case, in order.
using ImportFn = std::function<void(wasm::Linker&)>;

CaseRun RunCase(const std::string& wat, const JitCase& jc,
                const std::string& func, const std::vector<Value>& args,
                ExecOptions base = {}, bool fuse = true,
                const ImportFn& add_imports = {}) {
  CaseRun out;
  out.label = jc.label + (fuse ? "" : "+unfused");
  wasm_test::WatFixture fx = wasm_test::Instantiate(wat, add_imports);
  if (fx.instance == nullptr) {
    out.result.trap = TrapKind::kHostError;
    return out;
  }
  if (!fuse) {
    wasm::PrepareOptions popts;
    popts.fuse = false;
    wasm::PrepareModule(*fx.module, popts);
  }
  ExecOptions opts = base;
  opts.dispatch = jc.dispatch;
  opts.jit = jc.jit;
  opts.jit_threshold = jc.threshold;
  out.result = fx.instance->CallExport(func, args, opts);
  auto mem = fx.instance->memory(0);
  if (mem != nullptr) {
    out.mem_pages = mem->size_pages();
  }
  ReadJitCounters(*fx.module, &out);
  return out;
}

// Runs the whole matrix (each case in a fresh instance AND fresh module, so
// heat/code never leak between cases) and checks bit-identical agreement.
// Returns the runs for extra per-test assertions.
std::vector<CaseRun> ExpectMatrixAgrees(const std::string& wat,
                                        const std::string& func,
                                        const std::vector<Value>& args,
                                        ExecOptions base = {},
                                        const ImportFn& add_imports = {}) {
  std::vector<CaseRun> runs;
  for (bool fuse : {true, false}) {
    for (const JitCase& jc : Matrix()) {
      runs.push_back(RunCase(wat, jc, func, args, base, fuse, add_imports));
    }
  }
  const CaseRun& ref = runs.front();
  for (const CaseRun& r : runs) {
    EXPECT_EQ(r.result.trap, ref.result.trap) << r.label;
    EXPECT_EQ(r.result.trap_message, ref.result.trap_message) << r.label;
    EXPECT_EQ(r.result.exit_code, ref.result.exit_code) << r.label;
    EXPECT_EQ(r.result.executed_instrs, ref.result.executed_instrs) << r.label;
    EXPECT_EQ(r.result.values.size(), ref.result.values.size()) << r.label;
    if (r.result.values.size() != ref.result.values.size()) continue;
    for (size_t i = 0; i < r.result.values.size(); ++i) {
      EXPECT_EQ(r.result.values[i].bits, ref.result.values[i].bits)
          << r.label << " value " << i;
    }
    EXPECT_EQ(r.mem_pages, ref.mem_pages) << r.label;
  }
  return runs;
}

// Expects every JIT leg (label "jit...", on builds with the tier) to have
// tiered up and left compiled code exactly `exits` times, each a counted
// deopt. Host calls are neither: they run from compiled code.
void ExpectJitLegs(const std::vector<CaseRun>& runs, uint64_t exits) {
  if (!wasm::JitAvailable()) return;
  for (const CaseRun& r : runs) {
    if (r.label.rfind("jit", 0) != 0) continue;
    EXPECT_GE(r.tierups, 1u) << r.label;
    EXPECT_EQ(r.osr_exits, exits) << r.label;
    EXPECT_EQ(r.deopts, exits) << r.label;
  }
}

// When the tier is built in, the jit0 case of a hot program must actually
// have compiled and entered — otherwise this whole file would vacuously
// pass on a tier that never engages.
void ExpectTierEngaged(const std::vector<CaseRun>& runs) {
  if (!wasm::JitAvailable()) return;
  bool engaged = false;
  for (const CaseRun& r : runs) {
    if (r.label.rfind("jit", 0) == 0 && r.compiles > 0 && r.tierups > 0) {
      engaged = true;
    }
  }
  EXPECT_TRUE(engaged) << "JIT never tiered up on a hot workload";
}

// ---------------------------------------------------------------- programs

// Branch-dense integer compute: shifts/rotates, clz, i32<->i64 width
// changes, xorshift mixing. Exercises most ALU stencils in one hot loop.
const char* kCompute = R"((module
  (func (export "f") (param $n i32) (result i64)
    (local $i i32) (local $a i64) (local $b i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $b (i32.xor (local.get $b) (i32.rotl (local.get $i) (i32.const 5))))
      (local.set $b (i32.add (local.get $b) (i32.clz (local.get $i))))
      (local.set $b (i32.sub (local.get $b) (i32.ctz (i32.or (local.get $i) (i32.const 16)))))
      (local.set $a (i64.add (local.get $a) (i64.extend_i32_u (local.get $b))))
      (local.set $a (i64.xor (local.get $a) (i64.shr_u (local.get $a) (i64.const 9))))
      (local.set $a (i64.mul (local.get $a) (i64.const 2654435761)))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $a)))
)";

// Call-dense recursion: tier-up heat comes from frame entries (including
// the threaded loop's direct-call fast path), and compiled frames call
// compiled frames natively.
const char* kFib = R"((module
  (func $fib (param $n i32) (result i32)
    (if (result i32) (i32.lt_u (local.get $n) (i32.const 2))
      (then (local.get $n))
      (else (i32.add (call $fib (i32.sub (local.get $n) (i32.const 1)))
                     (call $fib (i32.sub (local.get $n) (i32.const 2)))))))
  (func (export "f") (param $n i32) (result i32) (call $fib (local.get $n))))
)";

// Memory traffic at mixed widths, all in-bounds via masking.
const char* kMemory = R"((module
  (memory 1)
  (func (export "f") (param $n i32) (result i32)
    (local $i i32) (local $h i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (i32.store (i32.and (i32.mul (local.get $i) (i32.const 4)) (i32.const 65532))
                 (i32.add (local.get $i) (local.get $h)))
      (local.set $h (i32.xor (local.get $h)
          (i32.load (i32.and (i32.mul (local.get $h) (i32.const 4)) (i32.const 65532)))))
      (i32.store8 (i32.add (i32.const 4096) (i32.and (local.get $i) (i32.const 255)))
                  (local.get $h))
      (local.set $h (i32.add (local.get $h)
          (i32.load8_u (i32.add (i32.const 4096) (i32.and (local.get $h) (i32.const 255))))))
      (local.set $h (i32.add (local.get $h)
          (i32.load16_s (i32.and (local.get $h) (i32.const 65534)))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (i32.add (local.get $h) (i32.load (i32.const 0)))))
)";

// br_table in a hot loop: the compiled jump table must land on the same
// targets (including the clamped default) as the interpreter's.
const char* kBrTable = R"((module
  (func (export "f") (param $n i32) (result i32)
    (local $i i32) (local $acc i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (block $out
        (block $b2
          (block $b1
            (block $b0
              (br_table $b0 $b1 $b2 (i32.and (local.get $i) (i32.const 3))))
            (local.set $acc (i32.add (local.get $acc) (i32.const 7)))
            (br $out))
          (local.set $acc (i32.mul (local.get $acc) (i32.const 3)))
          (br $out))
        (local.set $acc (i32.xor (local.get $acc) (local.get $i))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $acc)))
)";

// Mutable globals updated every iteration.
const char* kGlobals = R"((module
  (global $g (mut i32) (i32.const 1))
  (global $h (mut i64) (i64.const 7))
  (func (export "f") (param $n i32) (result i64)
    (local $i i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (global.set $g (i32.add (global.get $g) (i32.const 3)))
      (global.set $h (i64.add (global.get $h) (i64.extend_i32_u (global.get $g))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (i64.add (global.get $h) (i64.extend_i32_u (global.get $g)))))
)";

// Divides by (m - i): traps kDivByZero at iteration i == m, INSIDE the
// compiled loop, long after tier-up. Also signed-overflow and rem cases.
const char* kDivTrap = R"((module
  (func (export "f") (param $n i32) (param $m i32) (result i32)
    (local $i i32) (local $acc i32)
    (local.set $acc (i32.const 1234567))
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $acc (i32.add (local.get $acc)
          (i32.div_u (local.get $acc) (i32.sub (local.get $m) (local.get $i)))))
      (local.set $acc (i32.add (local.get $acc)
          (i32.rem_s (local.get $acc) (i32.sub (local.get $m) (local.get $i)))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $acc))
  (func (export "overflow") (param $n i32) (result i32)
    (local $i i32) (local $acc i32)
    (local.set $acc (i32.const 1))
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $acc (i32.div_s (i32.const -2147483648)
          (i32.sub (i32.const 30) (i32.sub (local.get $n) (local.get $i)))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $acc)))
)";

// Walks loads up the address space: traps kMemOob mid-loop when i*8 + 8
// crosses the single page.
const char* kOob = R"((module
  (memory 1)
  (func (export "f") (param $n i32) (result i64)
    (local $i i32) (local $a i64)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $a (i64.add (local.get $a) (i64.load (i32.mul (local.get $i) (i32.const 8)))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $a)))
)";

// Indirect dispatch in a hot loop, plus an OOB index past the end.
const char* kIndirect = R"((module
  (type $op (func (param i32) (result i32)))
  (table 3 funcref)
  (func $a (type $op) (i32.add (local.get 0) (i32.const 13)))
  (func $b (type $op) (i32.mul (local.get 0) (i32.const 3)))
  (func $c (type $op) (i32.xor (local.get 0) (i32.const 255)))
  (elem (i32.const 0) $a $b $c)
  (func (export "f") (param $n i32) (result i32)
    (local $i i32) (local $acc i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $acc (call_indirect (type $op)
          (local.get $acc)
          (i32.rem_u (local.get $i) (i32.const 3))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $acc))
  (func (export "oob") (param $n i32) (result i32)
    (local $i i32) (local $acc i32)
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $acc (call_indirect (type $op)
          (local.get $acc)
          (i32.rem_u (local.get $i) (i32.const 4))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $acc)))
)";

// A hot loop whose body deopts every iteration (f64 ops have no stencils):
// exercises the deopt/reenter seam and, eventually, the deopt blacklist —
// results must stay exact throughout.
const char* kFpDeopt = R"((module
  (func (export "f") (param $n i32) (result i64)
    (local $i i32) (local $x f64) (local $a i64)
    (local.set $x (f64.const 1.5))
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $x (f64.add (local.get $x) (f64.const 0.25)))
      (local.set $a (i64.add (local.get $a) (i64.reinterpret_f64 (local.get $x))))
      (local.set $a (i64.rotl (local.get $a) (i64.const 7)))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $a)))
)";

// ------------------------------------------------------------------- tests

TEST(WasmJit, AvailabilityIsConsistent) {
  // kAuto/kOn never change observable behavior even when unavailable.
  for (JitTier t : {JitTier::kAuto, JitTier::kOn, JitTier::kOff}) {
    ExecOptions opts;
    opts.jit = t;
    opts.jit_threshold = 0;
    RunResult r = wasm_test::RunWat(kCompute, "f", {Value::I32(100)}, opts);
    EXPECT_EQ(r.trap, TrapKind::kNone) << wasm::JitTierName(t);
  }
}

TEST(WasmJit, ComputeLoopParity) {
  auto runs = ExpectMatrixAgrees(kCompute, "f", {Value::I32(20000)});
  ExpectTierEngaged(runs);
}

TEST(WasmJit, RecursionParity) {
  auto runs = ExpectMatrixAgrees(kFib, "f", {Value::I32(18)});
  ExpectTierEngaged(runs);
}

TEST(WasmJit, MemoryParity) {
  auto runs = ExpectMatrixAgrees(kMemory, "f", {Value::I32(4000)});
  ExpectTierEngaged(runs);
}

TEST(WasmJit, BrTableParity) {
  auto runs = ExpectMatrixAgrees(kBrTable, "f", {Value::I32(4000)});
  ExpectTierEngaged(runs);
}

TEST(WasmJit, GlobalsParity) {
  auto runs = ExpectMatrixAgrees(kGlobals, "f", {Value::I32(4000)});
  ExpectTierEngaged(runs);
}

TEST(WasmJit, IndirectCallParity) {
  auto runs = ExpectMatrixAgrees(kIndirect, "f", {Value::I32(3000)});
  ExpectTierEngaged(runs);
}

TEST(WasmJit, DivTrapInsideCompiledLoop) {
  // Trap fires at iteration 500 of a loop compiled long before: kind,
  // executed count, and the partial state must match the oracle.
  auto runs =
      ExpectMatrixAgrees(kDivTrap, "f", {Value::I32(1000), Value::I32(500)});
  EXPECT_EQ(runs.front().result.trap, TrapKind::kDivByZero);
  ExpectTierEngaged(runs);
  // Signed INT_MIN / -1 overflow, also mid-loop.
  auto ov = ExpectMatrixAgrees(kDivTrap, "overflow", {Value::I32(40)});
  EXPECT_EQ(ov.front().result.trap, TrapKind::kIntOverflow);
}

TEST(WasmJit, OobTrapInsideCompiledLoop) {
  auto runs = ExpectMatrixAgrees(kOob, "f", {Value::I32(10000)});
  EXPECT_EQ(runs.front().result.trap, TrapKind::kMemOutOfBounds);
  ExpectTierEngaged(runs);
}

TEST(WasmJit, IndirectOobTrapParity) {
  auto runs = ExpectMatrixAgrees(kIndirect, "oob", {Value::I32(100)});
  EXPECT_EQ(runs.front().result.trap, TrapKind::kIndirectOob);
}

TEST(WasmJit, FpDeoptLoopParity) {
  // Every iteration deopts at the f64 ops; past kDeoptBlacklist the enter
  // sites stop selecting the code. Exactness must hold the whole way.
  auto runs = ExpectMatrixAgrees(kFpDeopt, "f", {Value::I32(3000)});
  if (wasm::JitAvailable()) {
    bool deopted = false;
    for (const CaseRun& r : runs) {
      if (r.osr_exits > 0) deopted = true;
    }
    EXPECT_TRUE(deopted) << "expected OSR deopt exits from the f64 loop";
  }
}

TEST(WasmJit, FuelSweepAcrossCompiledSegments) {
  // The acceptance bar for fuel: for every limit, a fuel-exhausted run must
  // stop at executed == fuel + 1 with identical partial semantics, even
  // when the boundary lands INSIDE a segment that compiled code charged at
  // its gate. Sweep densely around segment sizes, coarsely elsewhere.
  ExecOptions probe;
  probe.dispatch = DispatchMode::kSwitch;
  RunResult full = wasm_test::RunWat(kCompute, "f", {Value::I32(64)}, probe);
  ASSERT_EQ(full.trap, TrapKind::kNone);
  const uint64_t total = full.executed_instrs;
  ASSERT_GT(total, 100u);
  for (uint64_t fuel = 1; fuel <= total + 1;
       fuel += (fuel < 40 || fuel + 40 > total) ? 1 : 7) {
    ExecOptions base;
    base.fuel = fuel;
    CaseRun oracle =
        RunCase(kCompute, Matrix()[0], "f", {Value::I32(64)}, base);
    CaseRun jit = RunCase(kCompute, Matrix()[2], "f", {Value::I32(64)}, base);
    ASSERT_EQ(jit.result.trap, oracle.result.trap) << "fuel=" << fuel;
    ASSERT_EQ(jit.result.executed_instrs, oracle.result.executed_instrs)
        << "fuel=" << fuel;
    if (oracle.result.trap == TrapKind::kFuelExhausted) {
      ASSERT_EQ(oracle.result.executed_instrs, fuel + 1) << "fuel=" << fuel;
    } else {
      ASSERT_EQ(jit.result.values[0].bits, oracle.result.values[0].bits);
    }
  }
}

TEST(WasmJit, FuelSweepAcrossNativeCalls) {
  // Same sweep over call-dense recursion: boundaries land on frame pushes,
  // returns, and the call instruction itself.
  ExecOptions probe;
  probe.dispatch = DispatchMode::kSwitch;
  RunResult full = wasm_test::RunWat(kFib, "f", {Value::I32(10)}, probe);
  ASSERT_EQ(full.trap, TrapKind::kNone);
  const uint64_t total = full.executed_instrs;
  for (uint64_t fuel = 1; fuel <= total + 1; ++fuel) {
    ExecOptions base;
    base.fuel = fuel;
    CaseRun oracle = RunCase(kFib, Matrix()[0], "f", {Value::I32(10)}, base);
    CaseRun jit = RunCase(kFib, Matrix()[2], "f", {Value::I32(10)}, base);
    ASSERT_EQ(jit.result.trap, oracle.result.trap) << "fuel=" << fuel;
    ASSERT_EQ(jit.result.executed_instrs, oracle.result.executed_instrs)
        << "fuel=" << fuel;
  }
}

TEST(WasmJit, DeepRecursionStackExhaustedParity) {
  const char* wat = R"((module
    (func $down (param $n i32) (result i32)
      (i32.add (i32.const 1)
               (call $down (i32.add (local.get $n) (i32.const 1)))))
    (func (export "f") (result i32) (call $down (i32.const 0)))
  ))";
  auto runs = ExpectMatrixAgrees(wat, "f", {});
  EXPECT_EQ(runs.front().result.trap, TrapKind::kStackExhausted);
}

TEST(WasmJit, SafepointSchemesParity) {
  // kFunction polls at calls (the JIT's native call path must poll there
  // too); kLoop polls at back-edges (the compiled loop-header stencil).
  for (SafepointScheme scheme :
       {SafepointScheme::kLoop, SafepointScheme::kFunction}) {
    ExecOptions base;
    base.scheme = scheme;
    auto runs = ExpectMatrixAgrees(kFib, "f", {Value::I32(15)}, base);
    ExpectTierEngaged(runs);
  }
}

TEST(WasmJit, HostCallDeoptLoopParity) {
  // A host call inside a hot loop exits compiled code every iteration, and
  // the dispatcher runs it through the interpreter's CallHost and re-enters
  // compiled code after the call op: results and executed counts must stay
  // exact, the loop must not wedge, and the call must not deopt.
  const char* wat = R"((module
    (import "env" "mix" (func $mix (param i64) (result i64)))
    (func (export "f") (param $n i32) (result i64)
      (local $i i32) (local $a i64)
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $a (i64.add (local.get $a)
            (call $mix (i64.extend_i32_u (local.get $i)))))
        (local.set $a (i64.xor (local.get $a) (i64.shl (local.get $a) (i64.const 5))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (local.get $a)))
  )";
  auto with_host = [&](wasm::Linker& linker) {
    wasm::FuncType type;
    type.params = {wasm::ValType::kI64};
    type.results = {wasm::ValType::kI64};
    linker.DefineHostFunc(
        "env", "mix", type,
        [](wasm::ExecContext&, const uint64_t* args, uint64_t* results) {
          results[0] = args[0] * 2654435761u + 99991u;
          return TrapKind::kNone;
        });
  };
  RunResult ref;
  for (const JitCase& jc : Matrix()) {
    wasm_test::WatFixture fx = wasm_test::Instantiate(wat, with_host);
    ASSERT_NE(fx.instance, nullptr);
    ExecOptions opts;
    opts.dispatch = jc.dispatch;
    opts.jit = jc.jit;
    opts.jit_threshold = jc.threshold;
    RunResult r = fx.instance->CallExport("f", {Value::I32(2000)}, opts);
    ASSERT_EQ(r.trap, TrapKind::kNone) << jc.label;
    if (jc.label == "switch") {
      ref = r;
      continue;
    }
    EXPECT_EQ(r.values[0].bits, ref.values[0].bits) << jc.label;
    EXPECT_EQ(r.executed_instrs, ref.executed_instrs) << jc.label;
    CaseRun counters{jc.label};
    ReadJitCounters(*fx.module, &counters);
    ExpectJitLegs({counters}, 0);
  }
}

TEST(WasmJit, SuspensionFromCompiledLoopParity) {
  // The host call parks (kSyscallPending) from a loop that tiered up: the
  // suspended-and-resumed run must be bit-identical to a blocking run with
  // the JIT off. This is the snapshot/park interop contract: a parked guest
  // never observes whether its caller was compiled.
  const char* wat = R"((module
    (import "env" "syscall" (func $sc (param i64) (result i64)))
    (func (export "f") (param $n i32) (result i64)
      (local $i i32) (local $a i64)
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $a (i64.add (local.get $a)
            (call $sc (i64.extend_i32_u (local.get $i)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (local.get $a)))
  )";
  auto scripted = [](int64_t arg) { return arg * 7 + 3; };

  // Blocking reference, JIT off, switch dispatch.
  auto blocking = wasm_test::Instantiate(wat, [&](wasm::Linker& linker) {
    wasm::FuncType type;
    type.params = {wasm::ValType::kI64};
    type.results = {wasm::ValType::kI64};
    linker.DefineHostFunc(
        "env", "syscall", type,
        [scripted](wasm::ExecContext&, const uint64_t* args,
                   uint64_t* results) {
          results[0] = static_cast<uint64_t>(
              scripted(static_cast<int64_t>(args[0])));
          return TrapKind::kNone;
        });
  });
  ASSERT_NE(blocking.instance, nullptr);
  ExecOptions ref_opts;
  ref_opts.dispatch = DispatchMode::kSwitch;
  ref_opts.jit = JitTier::kOff;
  RunResult want =
      blocking.instance->CallExport("f", {Value::I32(40)}, ref_opts);
  ASSERT_EQ(want.trap, TrapKind::kNone);

  // Suspending run, JIT on with threshold 4: the loop tiers up after a few
  // parks, so later parks unwind from a compiled caller.
  std::vector<int64_t> parked;
  auto suspending = wasm_test::Instantiate(wat, [&](wasm::Linker& linker) {
    wasm::FuncType type;
    type.params = {wasm::ValType::kI64};
    type.results = {wasm::ValType::kI64};
    linker.DefineHostFunc(
        "env", "syscall", type,
        [&parked](wasm::ExecContext& ctx, const uint64_t* args, uint64_t*) {
          parked.push_back(static_cast<int64_t>(args[0]));
          ctx.SetTrap(TrapKind::kSyscallPending, "parked");
          return ctx.trap;
        });
  });
  ASSERT_NE(suspending.instance, nullptr);
  wasm::Suspension susp;
  ExecOptions opts;
  opts.dispatch = DispatchMode::kThreaded;
  opts.jit = JitTier::kOn;
  opts.jit_threshold = 4;
  opts.suspend_to = &susp;
  RunResult got = suspending.instance->CallExport("f", {Value::I32(40)}, opts);
  int parks = 0;
  while (got.trap == TrapKind::kSyscallPending) {
    ASSERT_TRUE(susp.armed());
    ++parks;
    uint64_t bits = static_cast<uint64_t>(scripted(parked.back()));
    got = wasm::ResumeInvoke(susp, &bits, 1);
  }
  EXPECT_EQ(parks, 40);
  ASSERT_EQ(got.trap, TrapKind::kNone) << got.trap_message;
  EXPECT_EQ(got.values[0].bits, want.values[0].bits);
  EXPECT_EQ(got.executed_instrs, want.executed_instrs);
  // Parks from the compiled loop return from compiled code directly: none
  // of the 40 calls exits it or counts as a deopt.
  CaseRun counters{"jit-suspending"};
  ReadJitCounters(*suspending.module, &counters);
  ExpectJitLegs({counters}, 0);
}

// ---------------------------------------- host calls from compiled code

wasm::FuncType I64ToI64() {
  wasm::FuncType type;
  type.params = {wasm::ValType::kI64};
  type.results = {wasm::ValType::kI64};
  return type;
}

wasm::FuncType I32ToI32() {
  wasm::FuncType type;
  type.params = {wasm::ValType::kI32};
  type.results = {wasm::ValType::kI32};
  return type;
}

// A loop that calls the host directly and through a wasm helper, so host
// calls leave both the compiled loop and a compiled callee frame.
const char* kHostTick = R"((module
  (import "env" "tick" (func $tick (param i64) (result i64)))
  (func $via (param $x i64) (result i64)
    (i64.xor (call $tick (local.get $x)) (i64.const 77)))
  (func (export "f") (param $n i32) (result i64)
    (local $i i32) (local $a i64)
    (local.set $a (i64.const 5))
    (block $done (loop $l
      (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
      (local.set $a (i64.add (local.get $a) (call $tick (local.get $a))))
      (if (i32.and (local.get $i) (i32.const 1))
        (then (local.set $a (i64.rotl (call $via (local.get $a)) (i64.const 3)))))
      (local.set $i (i32.add (local.get $i) (i32.const 1)))
      (br $l)))
    (local.get $a)))
)";

TEST(WasmJit, HostSeesExecutedCountParity) {
  // The host records ctx.executed at every call and folds it into its
  // result, so the run's value also depends on the count at each call. The
  // recorded sequences must be equal across tiers.
  std::vector<std::vector<uint64_t>> seen;  // one log per matrix case
  ImportFn imports = [&seen](wasm::Linker& linker) {
    seen.emplace_back();
    const size_t k = seen.size() - 1;
    linker.DefineHostFunc(
        "env", "tick", I64ToI64(),
        [&seen, k](wasm::ExecContext& ctx, const uint64_t* args,
                   uint64_t* results) {
          seen[k].push_back(ctx.executed);
          results[0] = (args[0] * 31) ^ ctx.executed;
          return TrapKind::kNone;
        });
  };
  auto runs = ExpectMatrixAgrees(kHostTick, "f", {Value::I32(300)}, {}, imports);
  ASSERT_EQ(runs.front().result.trap, TrapKind::kNone);
  ASSERT_EQ(seen.size(), runs.size());
  EXPECT_EQ(seen.front().size(), 450u);
  for (size_t k = 1; k < seen.size(); ++k) {
    EXPECT_EQ(seen[k], seen.front()) << runs[k].label;
  }
  ExpectJitLegs(runs, 0);
}

TEST(WasmJit, HostGrowsMemoryParity) {
  // The host grows memory by a page on every 16th call and returns the size
  // in pages; compiled code then stores to and loads from the last word of
  // the newest page right after the call. The new size must be seen without
  // a bounds-cache miss, so the only exit is the final access, 8 bytes at
  // 4 bytes before the end, which traps kMemOutOfBounds.
  const char* wat = R"((module
    (import "env" "pages" (func $pages (param i32) (result i32)))
    (memory 1 8)
    (func (export "f") (param $n i32) (result i64)
      (local $i i32) (local $a i64) (local $top i32)
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $top (i32.shl (call $pages (local.get $i)) (i32.const 16)))
        (i64.store (i32.sub (local.get $top) (i32.const 8))
                   (i64.add (local.get $a) (i64.extend_i32_u (local.get $i))))
        (local.set $a (i64.add (local.get $a)
            (i64.load (i32.sub (local.get $top) (i32.const 8)))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (i64.add (local.get $a)
               (i64.load (i32.sub (local.get $top) (i32.const 4))))))
  )";
  ImportFn imports = [](wasm::Linker& linker) {
    linker.DefineHostFunc(
        "env", "pages", I32ToI32(),
        [](wasm::ExecContext& ctx, const uint64_t* args, uint64_t* results) {
          wasm::Memory* mem = ctx.current_memory();
          if (static_cast<uint32_t>(args[0]) % 16 == 15 && mem->Grow(1) < 0) {
            ctx.SetTrap(TrapKind::kHostError, "grow failed");
            return ctx.trap;
          }
          results[0] = mem->size_pages();
          return TrapKind::kNone;
        });
  };
  auto runs = ExpectMatrixAgrees(wat, "f", {Value::I32(100)}, {}, imports);
  EXPECT_EQ(runs.front().result.trap, TrapKind::kMemOutOfBounds);
  EXPECT_EQ(runs.front().mem_pages, 7u);
  ExpectJitLegs(runs, 1);
}

TEST(WasmJit, HostExitMidLoopParity) {
  // The host ends the run on its 40th call the way SYS_exit does: it
  // requests the exit and returns kNone. The trap returns from compiled
  // code with the interpreter's state, and nothing deopts.
  const char* wat = R"((module
    (import "env" "step" (func $step (param i64) (result i64)))
    (func (export "f") (param $n i32) (result i64)
      (local $i i32) (local $a i64)
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $a (i64.add (local.get $a) (call $step (local.get $a))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (local.get $a)))
  )";
  ImportFn imports = [](wasm::Linker& linker) {
    auto calls = std::make_shared<int>(0);
    linker.DefineHostFunc(
        "env", "step", I64ToI64(),
        [calls](wasm::ExecContext& ctx, const uint64_t* args,
                uint64_t* results) {
          if (++*calls == 40) {
            ctx.RequestExit(7);
            return TrapKind::kNone;
          }
          results[0] = args[0] * 3 + 1;
          return TrapKind::kNone;
        });
  };
  auto runs = ExpectMatrixAgrees(wat, "f", {Value::I32(1000)}, {}, imports);
  EXPECT_EQ(runs.front().result.trap, TrapKind::kExit);
  EXPECT_EQ(runs.front().result.exit_code, 7);
  ExpectJitLegs(runs, 0);
}

TEST(WasmJit, HostCallIndirectParity) {
  // call_indirect through a table whose first entry is a host import, mixed
  // with wasm entries: every third call reaches the host.
  const char* wat = R"((module
    (type $op (func (param i32) (result i32)))
    (import "env" "scale" (func $scale (type $op)))
    (table 3 funcref)
    (func $inc (type $op) (i32.add (local.get 0) (i32.const 5)))
    (func $mix (type $op) (i32.xor (local.get 0) (i32.const 23130)))
    (elem (i32.const 0) $scale $inc $mix)
    (func (export "f") (param $n i32) (result i32)
      (local $i i32) (local $acc i32)
      (local.set $acc (i32.const 1))
      (block $done (loop $l
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $acc (call_indirect (type $op)
            (local.get $acc)
            (i32.rem_u (local.get $i) (i32.const 3))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $l)))
      (local.get $acc)))
  )";
  ImportFn imports = [](wasm::Linker& linker) {
    linker.DefineHostFunc(
        "env", "scale", I32ToI32(),
        [](wasm::ExecContext&, const uint64_t* args, uint64_t* results) {
          results[0] = static_cast<uint32_t>(args[0]) * 7u + 1u;
          return TrapKind::kNone;
        });
  };
  auto runs = ExpectMatrixAgrees(wat, "f", {Value::I32(600)}, {}, imports);
  EXPECT_EQ(runs.front().result.trap, TrapKind::kNone);
  ExpectJitLegs(runs, 0);
}

TEST(WasmJit, FuelSweepAcrossHostCalls) {
  // Every fuel limit across a loop with host calls: a run that runs out of
  // fuel stops at executed == fuel + 1 on every tier, whether the boundary
  // lands before, at or after a host call made from compiled code.
  ImportFn imports = [](wasm::Linker& linker) {
    linker.DefineHostFunc(
        "env", "tick", I64ToI64(),
        [](wasm::ExecContext&, const uint64_t* args, uint64_t* results) {
          results[0] = args[0] * 2654435761u + 11u;
          return TrapKind::kNone;
        });
  };
  ExecOptions probe;
  probe.dispatch = DispatchMode::kSwitch;
  wasm_test::WatFixture fx = wasm_test::Instantiate(kHostTick, imports);
  ASSERT_NE(fx.instance, nullptr);
  RunResult full = fx.instance->CallExport("f", {Value::I32(24)}, probe);
  ASSERT_EQ(full.trap, TrapKind::kNone);
  const uint64_t total = full.executed_instrs;
  ASSERT_GT(total, 100u);
  for (uint64_t fuel = 1; fuel <= total + 1; ++fuel) {
    ExecOptions base;
    base.fuel = fuel;
    auto runs =
        ExpectMatrixAgrees(kHostTick, "f", {Value::I32(24)}, base, imports);
    ASSERT_FALSE(HasFailure()) << "fuel=" << fuel;
    if (runs.front().result.trap == TrapKind::kFuelExhausted) {
      ASSERT_EQ(runs.front().result.executed_instrs, fuel + 1) << "fuel=" << fuel;
    } else {
      ASSERT_EQ(runs.front().result.trap, TrapKind::kNone) << "fuel=" << fuel;
    }
  }
}

TEST(WasmJit, WaliSocketpairLoopParity) {
  // The paper's core path through compiled code with real syscalls: a
  // guest makes a socketpair and sends a message around it 200 times, as
  // the kv workload does, under WaliRuntime with the JIT on and off. The
  // result, the executed count and every per-syscall count must agree, and
  // the JIT run must stay compiled across the syscalls.
  const std::string body = R"(
    (memory 1)
    (func (export "main") (result i32)
      (local $c i64) (local $s i64) (local $r i32) (local $sum i32)
      (if (i64.ne (call $socketpair (i64.const 1) (i64.const 1) (i64.const 0)
                                    (i64.const 16))
                  (i64.const 0))
        (then (return (i32.const -1))))
      (local.set $c (i64.load32_s (i32.const 16)))
      (local.set $s (i64.load32_s (i32.const 20)))
      (block $done (loop $round
        (br_if $done (i32.ge_u (local.get $r) (i32.const 200)))
        (i32.store (i32.const 256) (i32.mul (local.get $r) (i32.const 40503)))
        (i32.store (i32.const 260) (local.get $sum))
        (if (i64.ne (call $write (local.get $c) (i64.const 256) (i64.const 8))
                    (i64.const 8))
          (then (return (i32.const -2))))
        (if (i64.ne (call $read (local.get $s) (i64.const 512) (i64.const 8))
                    (i64.const 8))
          (then (return (i32.const -3))))
        (i32.store (i32.const 512)
                   (i32.add (i32.load (i32.const 512)) (i32.load (i32.const 516))))
        (if (i64.ne (call $write (local.get $s) (i64.const 512) (i64.const 4))
                    (i64.const 4))
          (then (return (i32.const -4))))
        (if (i64.ne (call $read (local.get $c) (i64.const 768) (i64.const 4))
                    (i64.const 4))
          (then (return (i32.const -5))))
        (local.set $sum (i32.xor (i32.rotl (local.get $sum) (i32.const 5))
                                 (i32.load (i32.const 768))))
        (local.set $r (i32.add (local.get $r) (i32.const 1)))
        (br $round)))
      (drop (call $close (local.get $c)))
      (drop (call $close (local.get $s)))
      (local.get $sum))
  )";
  std::vector<wali_test::WaliWorld> worlds;
  for (JitTier tier : {JitTier::kOn, JitTier::kOff}) {
    wali::WaliRuntime::Options opts;
    opts.jit = tier;
    worlds.push_back(wali_test::RunWali(body, {"test"}, {}, opts));
    ASSERT_NE(worlds.back().process, nullptr) << wasm::JitTierName(tier);
    const RunResult& r = worlds.back().result;
    ASSERT_EQ(r.trap, TrapKind::kNone)
        << wasm::JitTierName(tier) << " " << r.trap_message;
    ASSERT_EQ(r.values.size(), 1u);
    EXPECT_GE(static_cast<int32_t>(r.values[0].i32()), 0) << r.values[0].i32();
  }
  const wali_test::WaliWorld& on = worlds[0];
  const wali_test::WaliWorld& off = worlds[1];
  EXPECT_EQ(on.result.values[0].bits, off.result.values[0].bits);
  EXPECT_EQ(on.result.executed_instrs, off.result.executed_instrs);
  EXPECT_GE(off.process->trace.total_calls(), 800u);
  for (uint32_t id = 0; id < wali::kMaxTracedSyscalls; ++id) {
    EXPECT_EQ(on.process->trace.count(id), off.process->trace.count(id))
        << "syscall " << id;
  }
  if (wasm::JitAvailable()) {
    const wasm::JitModuleState& js = *on.process->module->jit;
    EXPECT_GT(js.tierups.load(), 0u);
    EXPECT_EQ(js.osr_exits.load(), 0u);
    EXPECT_EQ(ModuleDeopts(*on.process->module), 0u);
  }
}

TEST(WasmJit, JitOffNeverTiersUp) {
  CaseRun r = RunCase(kCompute, Matrix()[1], "f", {Value::I32(20000)});
  EXPECT_EQ(r.tierups, 0u);
  EXPECT_EQ(r.compiles, 0u);
}

TEST(WasmJit, TierStateSurvivesConcurrentHammering) {
  // Same module, many fresh instances run sequentially: exactly one compile
  // per function (the CAS latch), shared by all runs.
  if (!wasm::JitAvailable()) GTEST_SKIP();
  auto parsed = wasm::ParseAndValidateWat(kCompute);
  ASSERT_TRUE(parsed.ok());
  uint64_t want_bits = 0;
  for (int i = 0; i < 8; ++i) {
    wasm::Linker linker;
    auto inst = linker.Instantiate(*parsed);
    ASSERT_TRUE(inst.ok());
    ExecOptions opts;
    opts.jit = JitTier::kOn;
    opts.jit_threshold = 0;
    RunResult r = (*inst)->CallExport("f", {Value::I32(5000)}, opts);
    ASSERT_EQ(r.trap, TrapKind::kNone);
    if (i == 0) {
      want_bits = r.values[0].bits;
    } else {
      EXPECT_EQ(r.values[0].bits, want_bits);
    }
  }
  ASSERT_NE((*parsed)->jit, nullptr);
  EXPECT_EQ((*parsed)->jit->compiles.load(), 1u);
  EXPECT_GE((*parsed)->jit->tierups.load(), 8u);
}

}  // namespace
