// Baseline template-JIT tier: per-op x86-64 stencils over the prepared
// stream. See jit.h for the execution model. The file splits into:
//
//   1. JitState — the fixed-layout struct compiled code addresses by raw
//      offset (static_asserted below), plus the enter trampoline and the
//      out-of-line safepoint helper.
//   2. Asm — a minimal x86-64 emitter (labels, rel32 fixups, the handful of
//      encodings the stencils need).
//   3. ComputeDepths — static operand-depth map over the prepared stream;
//      the plain-form contract means depth[pc] fully describes the stack,
//      so any pc with a known depth is a valid OSR seam.
//   4. EmitFunction — stitches gate thunks and per-op stencils; anything
//      without a stencil becomes a deopt exit (the interpreter re-executes
//      the instruction from unconsumed state).
//   5. RequestEnter / Execute — tier-up policy and the dispatcher that runs
//      compiled frames, handles calls/returns natively where possible, and
//      reconciles every exit back into interpreter state.
//
// Register plan (SysV, all callee-saved so the poll helper call needs no
// spills):  rbx = fb (stack.data() + locals_base)   r12 = executed
//           r13 = effective fuel (UINT64_MAX = off) r14 = memory base
//           r15 = cached memory size                rbp = JitState*
// Scratch: rax rcx rdx rsi rdi r8-r11. Operand slot d lives at
// [rbx + 8*(gap + d)], local i at [rbx + 8*i], where gap = params +
// locals + 1 (the frame's TOS-spill gap slot, see interp.h).
//
// i32 invariant: stencils LOAD i32 operands through 32-bit registers (the
// interpreter's (uint32_t) casts) and STORE full zero-extended 64-bit
// values (its push32), so slots stay canonical even when a host call wrote
// a non-canonical upper half.
#include "src/wasm/jit.h"

#include <cstring>

#include "src/wasm/prepare.h"

#if WASM_JIT_OK
#include <sys/mman.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <vector>
#endif

namespace wasm {

const char* JitTierName(JitTier t) {
  switch (t) {
    case JitTier::kAuto:
      return "auto";
    case JitTier::kOff:
      return "off";
    case JitTier::kOn:
      return "on";
  }
  return "?";
}

bool JitAvailable() {
#if WASM_JIT_OK
  return ThreadedDispatchAvailable();
#else
  return false;
#endif
}

namespace jit {

#if WASM_JIT_OK

namespace {

// Exit protocol: native code ends with `mov esi, pc; mov ecx, code;
// jmp sync_exit`, and sync_exit stores pc/code/executed into JitState.
constexpr uint32_t kExitReturn = 0;    // function return at exit_pc
constexpr uint32_t kExitCall = 1;      // call op at exit_pc, args on stack
constexpr uint32_t kExitDeopt = 3;     // re-execute exit_pc in the interp
constexpr uint32_t kExitFuelGate = 4;  // gate at exit_pc could not charge
constexpr uint32_t kExitPollTrap = 5;  // safepoint poll raised a trap

// Deopt exits from one function before its enter-sites stop selecting the
// compiled code (a loop that deopts every iteration is slower than the
// interpreter: each round trip pays the trampoline + reconciliation). Only
// true deopts count: ops without a stencil (floating point, conversions,
// memory.grow), trap conditions and bounds-cache misses. Calls, host
// imports included, are run by the dispatcher and never count.
constexpr uint32_t kDeoptBlacklist = 1024;

// Cached-size target for frames with no memory: compiled loads always
// bounds-check against r15, so pointing msize_addr here makes every access
// deopt (and the interpreter raise the oracle trap).
const std::atomic<uint64_t> kZeroMemSize{0};

struct JitState;
}  // namespace

// The safepoint helper and trampoline are extern "C" with fixed names so
// the top-level asm block and the emitted `call [rbp+80]` agree on them.
extern "C" uint64_t wasm_jit_poll_impl(jit::JitState* st);
extern "C" void wasm_jit_enter_impl(jit::JitState* st, const uint8_t* entry,
                                    uint64_t* fb);

namespace {

// Fixed-offset state block; every offset below is baked into stencils.
struct JitState {
  uint64_t* fb;                             // 0: locals base slot
  uint64_t executed;                        // 8
  uint64_t fuel;                            // 16: UINT64_MAX = unlimited
  uint8_t* mbase;                           // 24: memory 0 base (never moves)
  uint64_t msize;                           // 32: size snapshot (r15 seed)
  const std::atomic<uint64_t>* msize_addr;  // 40: live size (loop refresh)
  GlobalInst* globals;                      // 48: absolute-index global base
  uint64_t exit_code;                       // 56
  uint64_t exit_pc;                         // 64
  uint64_t poll_flag;                       // 72: nonzero = poll at loops
  uint64_t (*poll_helper)(JitState*);       // 80
  ExecContext* ctx;                         // 88
  ExecContext::Frame* fr;                   // 96
};

static_assert(offsetof(JitState, fb) == 0, "stencil offset");
static_assert(offsetof(JitState, executed) == 8, "stencil offset");
static_assert(offsetof(JitState, fuel) == 16, "stencil offset");
static_assert(offsetof(JitState, mbase) == 24, "stencil offset");
static_assert(offsetof(JitState, msize) == 32, "stencil offset");
static_assert(offsetof(JitState, msize_addr) == 40, "stencil offset");
static_assert(offsetof(JitState, globals) == 48, "stencil offset");
static_assert(offsetof(JitState, exit_code) == 56, "stencil offset");
static_assert(offsetof(JitState, exit_pc) == 64, "stencil offset");
static_assert(offsetof(JitState, poll_flag) == 72, "stencil offset");
static_assert(offsetof(JitState, poll_helper) == 80, "stencil offset");
static_assert(offsetof(JitState, ctx) == 88, "stencil offset");
static_assert(offsetof(JitState, fr) == 96, "stencil offset");
// The global-access stencil computes &global(i).bits as base + 16*i + 8.
static_assert(sizeof(GlobalInst) == 16, "global stencil stride");
static_assert(offsetof(GlobalInst, bits) == 8, "global stencil offset");

}  // namespace

// Trampoline: saves the callee-saved set, binds the register plan from
// JitState, and calls into the stencil code. Entry rsp % 16 == 8; six
// pushes keep it == 8, so the call lands native code at % 16 == 0 and the
// emitted `call [rbp+80]` presents the helper a conformant % 16 == 8.
asm(R"(
.text
.globl wasm_jit_enter_impl
.hidden wasm_jit_enter_impl
.type wasm_jit_enter_impl, @function
wasm_jit_enter_impl:
  push %rbp
  push %rbx
  push %r12
  push %r13
  push %r14
  push %r15
  mov %rdi, %rbp
  mov %rdx, %rbx
  mov 8(%rbp), %r12
  mov 16(%rbp), %r13
  mov 24(%rbp), %r14
  mov 32(%rbp), %r15
  call *%rsi
  pop %r15
  pop %r14
  pop %r13
  pop %r12
  pop %rbx
  pop %rbp
  ret
.size wasm_jit_enter_impl, .-wasm_jit_enter_impl
)");

// Loop-header safepoint, mirroring the threaded loop's CASE(kLoop): pc and
// executed are synced exactly (exit_pc holds the post-increment pc, the
// same value SYNC_STATE publishes there), do_poll's trap latching is
// replicated, and on a trap the operand stack is left at its scratch
// inflation — bit-identical to the interpreter's poll-trap return.
extern "C" uint64_t wasm_jit_poll_impl(jit::JitState* st) {
  ExecContext& ctx = *st->ctx;
  st->fr->pc = static_cast<uint32_t>(st->exit_pc);
  ctx.executed = st->executed;
  TrapKind t = (*ctx.poll)(ctx);
  if (t != TrapKind::kNone && ctx.trap == TrapKind::kNone) {
    ctx.trap = t;
  }
  return ctx.trap != TrapKind::kNone ? 1 : 0;
}

namespace {

// A compiled function: executable bytes plus the per-pc metadata the
// dispatcher needs to reconcile exits (entry points and static operand
// depths). Owned by ModuleStateImpl; published to JitFuncSlot::code.
struct CompiledFn {
  std::vector<uint8_t> buf;   // emission buffer; cleared after mapping
  const uint8_t* code = nullptr;
  size_t map_size = 0;
  std::vector<int32_t> entry;  // pc -> code offset of its gate, or -1
  std::vector<int32_t> depth;  // pc -> operand depth before the op, or -1
};

struct ModuleStateImpl : JitModuleState {
  std::mutex mu;
  std::vector<std::unique_ptr<CompiledFn>> fns;

  ~ModuleStateImpl() override {
    for (auto& f : fns) {
      if (f->code != nullptr) {
        munmap(const_cast<uint8_t*>(f->code), f->map_size);
      }
    }
  }

  // Maps the emitted bytes RW -> copies -> flips to RX (W^X throughout),
  // then publishes the descriptor with a release store.
  bool Install(std::unique_ptr<CompiledFn> cf, JitFuncSlot& slot) {
    size_t sz = cf->buf.size();
    if (sz == 0) return false;
    void* mem = mmap(nullptr, sz, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) return false;
    std::memcpy(mem, cf->buf.data(), sz);
    if (mprotect(mem, sz, PROT_READ | PROT_EXEC) != 0) {
      munmap(mem, sz);
      return false;
    }
    cf->code = static_cast<const uint8_t*>(mem);
    cf->map_size = sz;
    cf->buf.clear();
    cf->buf.shrink_to_fit();
    const CompiledFn* ptr = cf.get();
    {
      std::lock_guard<std::mutex> lock(mu);
      fns.push_back(std::move(cf));
    }
    slot.code.store(ptr, std::memory_order_release);
    return true;
  }
};

// ---------------------------------------------------------------------------
// Minimal x86-64 emitter. Registers are their hardware numbers; memory
// operands always use mod=01/10 (disp8/disp32) so the RBP/R13 "no base"
// quirk never applies, with a SIB byte injected for RSP/R12 bases.

enum Reg {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

// Condition codes (Jcc 0F 8x, SETcc 0F 9x, CMOVcc 0F 4x). cc ^ 1 inverts.
enum Cc {
  kCcB = 2, kCcAE = 3, kCcE = 4, kCcNE = 5, kCcBE = 6, kCcA = 7,
  kCcL = 0xC, kCcGE = 0xD, kCcLE = 0xE, kCcG = 0xF,
};

class Asm {
 public:
  struct Label {
    int32_t pos = -1;
    std::vector<uint32_t> fixups;  // rel32 holes awaiting Bind
    bool referenced() const { return pos >= 0 || !fixups.empty(); }
  };

  std::vector<uint8_t> buf;

  size_t size() const { return buf.size(); }
  void B(uint8_t b) { buf.push_back(b); }
  void W32(uint32_t v) {
    for (int i = 0; i < 4; ++i) B(static_cast<uint8_t>(v >> (8 * i)));
  }
  void W64(uint64_t v) {
    for (int i = 0; i < 8; ++i) B(static_cast<uint8_t>(v >> (8 * i)));
  }

  void Bind(Label& l) {
    l.pos = static_cast<int32_t>(buf.size());
    for (uint32_t at : l.fixups) {
      int32_t rel = l.pos - static_cast<int32_t>(at + 4);
      std::memcpy(&buf[at], &rel, 4);
    }
    l.fixups.clear();
  }
  void Rel32To(Label& l) {
    if (l.pos >= 0) {
      W32(static_cast<uint32_t>(l.pos - static_cast<int32_t>(buf.size() + 4)));
    } else {
      l.fixups.push_back(static_cast<uint32_t>(buf.size()));
      W32(0);
    }
  }

  // REX prefix; w=1 selects 64-bit operands. Emitted only when needed.
  void Rex(int w, int reg, int index, int base) {
    uint8_t r = static_cast<uint8_t>(0x40 | (w << 3) | ((reg >> 3) << 2) |
                                     ((index >> 3) << 1) | (base >> 3));
    if (r != 0x40) B(r);
  }
  void ModReg(int reg, int rm) {
    B(static_cast<uint8_t>(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }
  void ModMem(int reg, int base, int32_t disp) {
    bool sib = (base & 7) == RSP;  // RSP/R12 need a SIB byte
    uint8_t mod = (disp >= -128 && disp <= 127) ? 1 : 2;
    B(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) | (sib ? 4 : base & 7)));
    if (sib) B(static_cast<uint8_t>(0x20 | (base & 7)));
    if (mod == 1) {
      B(static_cast<uint8_t>(disp));
    } else {
      W32(static_cast<uint32_t>(disp));
    }
  }
  void ModSib(int reg, int base, int index, int scale_log, int32_t disp) {
    uint8_t mod = (disp >= -128 && disp <= 127) ? 1 : 2;
    B(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) | 4));
    B(static_cast<uint8_t>((scale_log << 6) | ((index & 7) << 3) | (base & 7)));
    if (mod == 1) {
      B(static_cast<uint8_t>(disp));
    } else {
      W32(static_cast<uint32_t>(disp));
    }
  }

  // mov reg, [base+disp] / mov [base+disp], reg
  void MovRM(int w, int reg, int base, int32_t disp) {
    Rex(w, reg, 0, base);
    B(0x8B);
    ModMem(reg, base, disp);
  }
  void MovMR(int w, int base, int32_t disp, int reg) {
    Rex(w, reg, 0, base);
    B(0x89);
    ModMem(reg, base, disp);
  }
  // mov reg, [base+index] / mov [base+index], reg (scale 1, disp 0)
  void MovRX(int w, int reg, int base, int index) {
    Rex(w, reg, index, base);
    B(0x8B);
    ModSib(reg, base, index, 0, 0);
  }
  void MovXR(int w, int base, int index, int reg) {
    Rex(w, reg, index, base);
    B(0x89);
    ModSib(reg, base, index, 0, 0);
  }
  void MovXR8(int base, int index, int reg) {  // byte store (al/cl/dl)
    Rex(0, reg, index, base);
    B(0x88);
    ModSib(reg, base, index, 0, 0);
  }
  void MovXR16(int base, int index, int reg) {  // word store
    B(0x66);
    Rex(0, reg, index, base);
    B(0x89);
    ModSib(reg, base, index, 0, 0);
  }
  // Widening loads from [base+index]; w picks the destination width for the
  // sign-extending forms (zero-extending ones write 32 bits, clearing 63:32).
  void MovzxB(int reg, int base, int index) {
    Rex(0, reg, index, base);
    B(0x0F);
    B(0xB6);
    ModSib(reg, base, index, 0, 0);
  }
  void MovzxW(int reg, int base, int index) {
    Rex(0, reg, index, base);
    B(0x0F);
    B(0xB7);
    ModSib(reg, base, index, 0, 0);
  }
  void MovsxB(int w, int reg, int base, int index) {
    Rex(w, reg, index, base);
    B(0x0F);
    B(0xBE);
    ModSib(reg, base, index, 0, 0);
  }
  void MovsxW(int w, int reg, int base, int index) {
    Rex(w, reg, index, base);
    B(0x0F);
    B(0xBF);
    ModSib(reg, base, index, 0, 0);
  }
  void MovsxdX(int reg, int base, int index) {  // movsxd r64, dword
    Rex(1, reg, index, base);
    B(0x63);
    ModSib(reg, base, index, 0, 0);
  }
  void MovsxdM(int reg, int base, int index, int scale_log) {
    Rex(1, reg, index, base);
    B(0x63);
    ModSib(reg, base, index, scale_log, 0);
  }

  void MovRR(int w, int dst, int src) {
    Rex(w, dst, 0, src);
    B(0x8B);
    ModReg(dst, src);
  }
  void MovImm32(int reg, uint32_t v) {  // zero-extends into the full reg
    Rex(0, 0, 0, reg);
    B(static_cast<uint8_t>(0xB8 + (reg & 7)));
    W32(v);
  }
  // Exact 64-bit immediate via the shortest encoding that reproduces it.
  void MovImm(int reg, uint64_t v) {
    if (v <= 0xFFFFFFFFull) {
      MovImm32(reg, static_cast<uint32_t>(v));
    } else if (static_cast<int64_t>(v) >= INT32_MIN &&
               static_cast<int64_t>(v) <= INT32_MAX) {
      Rex(1, 0, 0, reg);
      B(0xC7);
      ModReg(0, reg);
      W32(static_cast<uint32_t>(v));
    } else {
      Rex(1, 0, 0, reg);
      B(static_cast<uint8_t>(0xB8 + (reg & 7)));
      W64(v);
    }
  }
  // mov qword [base+disp], imm32 (sign-extended)
  void MovMemImm(int base, int32_t disp, int32_t imm) {
    Rex(1, 0, 0, base);
    B(0xC7);
    ModMem(0, base, disp);
    W32(static_cast<uint32_t>(imm));
  }

  // ALU reg, reg / reg, mem. opc: add 03, or 0B, and 23, sub 2B, xor 33,
  // cmp 3B (the "reg <- reg op r/m" direction).
  void AluRR(int w, uint8_t opc, int dst, int src) {
    Rex(w, dst, 0, src);
    B(opc);
    ModReg(dst, src);
  }
  void AluRM(int w, uint8_t opc, int reg, int base, int32_t disp) {
    Rex(w, reg, 0, base);
    B(opc);
    ModMem(reg, base, disp);
  }
  // ALU reg, imm. digit: add 0, or 1, and 4, sub 5, xor 6, cmp 7.
  void AluImm(int w, int digit, int reg, int32_t imm) {
    Rex(w, 0, 0, reg);
    if (imm >= -128 && imm <= 127) {
      B(0x83);
      ModReg(digit, reg);
      B(static_cast<uint8_t>(imm));
    } else {
      B(0x81);
      ModReg(digit, reg);
      W32(static_cast<uint32_t>(imm));
    }
  }
  void CmpMemImm8(int base, int32_t disp, int8_t imm) {  // cmp qword [..], imm8
    Rex(1, 0, 0, base);
    B(0x83);
    ModMem(7, base, disp);
    B(static_cast<uint8_t>(imm));
  }
  void TestRR(int w, int a, int b) {  // test a, b
    Rex(w, b, 0, a);
    B(0x85);
    ModReg(b, a);
  }
  void Imul(int w, int dst, int src) {
    Rex(w, dst, 0, src);
    B(0x0F);
    B(0xAF);
    ModReg(dst, src);
  }
  void ImulImm(int w, int dst, int src, int32_t imm) {
    Rex(w, dst, 0, src);
    B(0x69);
    ModReg(dst, src);
    W32(static_cast<uint32_t>(imm));
  }
  // Shifts/rotates by cl or imm. digit: rol 0, ror 1, shl 4, shr 5, sar 7.
  void ShiftCl(int w, int digit, int reg) {
    Rex(w, 0, 0, reg);
    B(0xD3);
    ModReg(digit, reg);
  }
  void ShiftImm(int w, int digit, int reg, uint8_t imm) {
    Rex(w, 0, 0, reg);
    B(0xC1);
    ModReg(digit, reg);
    B(imm);
  }
  void Setcc(int cc, int reg) {  // low byte; use with RAX..RDX only
    B(0x0F);
    B(static_cast<uint8_t>(0x90 | cc));
    ModReg(0, reg);
  }
  void MovzxBR(int dst, int src) {  // movzx dst32, src8
    Rex(0, dst, 0, src);
    B(0x0F);
    B(0xB6);
    ModReg(dst, src);
  }
  void Cmovcc(int w, int cc, int dst, int src) {
    Rex(w, dst, 0, src);
    B(0x0F);
    B(static_cast<uint8_t>(0x40 | cc));
    ModReg(dst, src);
  }
  void CmovccM(int w, int cc, int dst, int base, int32_t disp) {
    Rex(w, dst, 0, base);
    B(0x0F);
    B(static_cast<uint8_t>(0x40 | cc));
    ModMem(dst, base, disp);
  }
  void Bsr(int w, int dst, int src) {
    Rex(w, dst, 0, src);
    B(0x0F);
    B(0xBD);
    ModReg(dst, src);
  }
  void Bsf(int w, int dst, int src) {
    Rex(w, dst, 0, src);
    B(0x0F);
    B(0xBC);
    ModReg(dst, src);
  }
  void MovsxBR(int w, int dst, int src) {  // movsx dst, src8
    Rex(w, dst, 0, src);
    B(0x0F);
    B(0xBE);
    ModReg(dst, src);
  }
  void MovsxWR(int w, int dst, int src) {  // movsx dst, src16
    Rex(w, dst, 0, src);
    B(0x0F);
    B(0xBF);
    ModReg(dst, src);
  }
  void MovsxdR(int dst, int src) {  // movsxd dst64, src32
    Rex(1, dst, 0, src);
    B(0x63);
    ModReg(dst, src);
  }
  void MovsxdRM(int dst, int base, int32_t disp) {  // movsxd dst64, dword [..]
    Rex(1, dst, 0, base);
    B(0x63);
    ModMem(dst, base, disp);
  }
  void Cdq() { B(0x99); }
  void Cqo() {
    B(0x48);
    B(0x99);
  }
  void Idiv(int w, int reg) {
    Rex(w, 0, 0, reg);
    B(0xF7);
    ModReg(7, reg);
  }
  void Div(int w, int reg) {
    Rex(w, 0, 0, reg);
    B(0xF7);
    ModReg(6, reg);
  }
  void XorSelf32(int reg) { AluRR(0, 0x33, reg, reg); }
  void Lea(int dst, int base, int32_t disp) {  // 64-bit lea
    Rex(1, dst, 0, base);
    B(0x8D);
    ModMem(dst, base, disp);
  }
  void LeaRip(int dst, Label& l) {
    Rex(1, dst, 0, 0);
    B(0x8D);
    B(static_cast<uint8_t>(((dst & 7) << 3) | 5));
    Rel32To(l);
  }
  void Jmp(Label& l) {
    B(0xE9);
    Rel32To(l);
  }
  void Jcc(int cc, Label& l) {
    B(0x0F);
    B(static_cast<uint8_t>(0x80 | cc));
    Rel32To(l);
  }
  void JmpReg(int reg) {
    Rex(0, 0, 0, reg);
    B(0xFF);
    ModReg(4, reg);
  }
  void CallMem(int base, int32_t disp) {
    Rex(0, 0, 0, base);
    B(0xFF);
    ModMem(2, base, disp);
  }
  void Ret() { B(0xC3); }
};

// ---------------------------------------------------------------------------
// Static analysis over the prepared stream.

// x86 condition code computing `lhs cmpOp rhs` after `cmp lhs, rhs`, for
// both i32 and i64 comparison ops; -1 if `op` is not a comparison.
int CcForCmp(Op op) {
  switch (op) {
    case Op::kI32Eq:
    case Op::kI64Eq:
      return kCcE;
    case Op::kI32Ne:
    case Op::kI64Ne:
      return kCcNE;
    case Op::kI32LtS:
    case Op::kI64LtS:
      return kCcL;
    case Op::kI32LtU:
    case Op::kI64LtU:
      return kCcB;
    case Op::kI32GtS:
    case Op::kI64GtS:
      return kCcG;
    case Op::kI32GtU:
    case Op::kI64GtU:
      return kCcA;
    case Op::kI32LeS:
    case Op::kI64LeS:
      return kCcLE;
    case Op::kI32LeU:
    case Op::kI64LeU:
      return kCcBE;
    case Op::kI32GeS:
    case Op::kI64GeS:
      return kCcGE;
    case Op::kI32GeU:
    case Op::kI64GeU:
      return kCcAE;
    default:
      return -1;
  }
}

// Net operand-stack effect of every non-control op (controls are handled
// structurally in ComputeDepths). False = unknown op, refuse to compile.
// Must stay in lockstep with the interpreter's op set: an op with a wrong
// delta here would desync the plain-form depth map.
bool StackDelta(Op op, int32_t* delta) {
  uint32_t v = static_cast<uint32_t>(op);
  // Binary ops (pop 2 push 1): comparisons and two-operand arithmetic.
  if ((v >= 0x46 && v <= 0x4F) || (v >= 0x51 && v <= 0x5A) ||
      (v >= 0x5B && v <= 0x66) || (v >= 0x6A && v <= 0x78) ||
      (v >= 0x7C && v <= 0x8A) || (v >= 0x92 && v <= 0x98) ||
      (v >= 0xA0 && v <= 0xA6)) {
    *delta = -1;
    return true;
  }
  // Unary ops (pop 1 push 1): eqz, clz/ctz/popcnt, FP unary, every
  // conversion/extension/reinterpretation, saturating truncations.
  if (v == 0x45 || v == 0x50 || (v >= 0x67 && v <= 0x69) ||
      (v >= 0x79 && v <= 0x7B) || (v >= 0x8B && v <= 0x91) ||
      (v >= 0x99 && v <= 0x9F) || (v >= 0xA7 && v <= 0xC4) ||
      (v >= 0x100 && v <= 0x107)) {
    *delta = 0;
    return true;
  }
  if (v >= 0x28 && v <= 0x35) {  // plain loads: pop addr push value
    *delta = 0;
    return true;
  }
  if (v >= 0x36 && v <= 0x3E) {  // plain stores: pop addr+value
    *delta = -2;
    return true;
  }
  switch (op) {
    case Op::kDrop:
    case Op::kLocalSet:
    case Op::kGlobalSet:
    case Op::kAtomicNotify:
      *delta = -1;
      return true;
    case Op::kSelect:
    case Op::kAtomicWait32:
    case Op::kAtomicWait64:
    case Op::kI32AtomicStore:
    case Op::kI64AtomicStore:
    case Op::kI32AtomicRmwCmpxchg:
    case Op::kI64AtomicRmwCmpxchg:
      *delta = -2;
      return true;
    case Op::kLocalGet:
    case Op::kGlobalGet:
    case Op::kMemorySize:
    case Op::kI32Const:
    case Op::kI64Const:
    case Op::kF32Const:
    case Op::kF64Const:
      *delta = 1;
      return true;
    case Op::kLocalTee:
    case Op::kMemoryGrow:
    case Op::kAtomicFence:
    case Op::kI32AtomicLoad:
    case Op::kI64AtomicLoad:
      *delta = 0;
      return true;
    case Op::kMemoryCopy:
    case Op::kMemoryFill:
      *delta = -3;
      return true;
    case Op::kI32AtomicRmwAdd:
    case Op::kI64AtomicRmwAdd:
    case Op::kI32AtomicRmwSub:
    case Op::kI64AtomicRmwSub:
    case Op::kI32AtomicRmwAnd:
    case Op::kI64AtomicRmwAnd:
    case Op::kI32AtomicRmwOr:
    case Op::kI64AtomicRmwOr:
    case Op::kI32AtomicRmwXor:
    case Op::kI64AtomicRmwXor:
    case Op::kI32AtomicRmwXchg:
    case Op::kI64AtomicRmwXchg:
      *delta = -1;
      return true;
    // Superinstructions (branching ones are structural, handled in
    // ComputeDepths; these are the straight-line ones).
    case Op::kFLocalLocalI32Add:
    case Op::kFLocalI32Load:
    case Op::kFLocalI64Load:
    case Op::kFLocalLocalCmp:
    case Op::kFLocalConstI32Op:
      *delta = 1;
      return true;
    case Op::kFI32AddConst:
    case Op::kFLocalCopy:
    case Op::kFI32ConstOp:
    case Op::kFI64ConstOp:
    case Op::kFLocalConstI32OpSet:
      *delta = 0;
      return true;
    case Op::kFI32LoadOp:
      *delta = -1;
      return true;
    case Op::kFI32CmpSel:
    case Op::kFI64CmpSel:
      *delta = -3;
      return true;
    default:
      return false;
  }
}

// Worklist pass computing the operand depth before each reachable pc
// (depth[pc] == -1 for unreachable) and marking branch targets as heads.
// A merge-point depth mismatch (impossible on validated streams, but this
// is defensive against future fusion changes) refuses compilation.
bool ComputeDepths(const Module& m, const Function& fn,
                   std::vector<int32_t>& depth, std::vector<uint8_t>& head) {
  const std::vector<Instr>& code = fn.prepared.code;
  const size_t n = code.size();
  if (n == 0) return false;
  depth.assign(n, -1);
  head.assign(n, 0);
  std::vector<uint32_t> work;
  bool ok = true;
  auto flow = [&](uint64_t pc, int64_t d, bool branch_target) {
    if (pc >= n || d < 0) {
      ok = false;
      return;
    }
    if (branch_target) head[pc] = 1;
    if (depth[pc] == -1) {
      depth[pc] = static_cast<int32_t>(d);
      work.push_back(static_cast<uint32_t>(pc));
    } else if (depth[pc] != d) {
      ok = false;
    }
  };
  flow(0, 0, true);
  while (ok && !work.empty()) {
    uint32_t pc = work.back();
    work.pop_back();
    const Instr& in = code[pc];
    int64_t d = depth[pc];
    switch (in.op) {
      case Op::kBr:
        flow(in.a, static_cast<int64_t>(in.b) + in.arity, true);
        break;
      case Op::kBrIf:
      case Op::kFBrIfEqz:
      case Op::kFLocalTeeBrIf:
        flow(in.a, static_cast<int64_t>(in.b) + in.arity, true);
        flow(pc + 1, d - 1, false);
        break;
      case Op::kFI32CmpBrIf:
      case Op::kFI64CmpBrIf:
        flow(in.a, static_cast<int64_t>(in.b) + in.arity, true);
        flow(pc + 1, d - 2, false);
        break;
      case Op::kFLocalLocalCmpBrIf:
        flow(in.a, static_cast<int64_t>(in.b) + in.arity, true);
        flow(pc + 1, d, false);
        break;
      case Op::kBrTable: {
        if (in.a >= fn.prepared.br_tables.size()) {
          ok = false;
          break;
        }
        const BrTable& t = fn.prepared.br_tables[in.a];
        for (const BrTarget& tg : t.targets) {
          flow(tg.pc, static_cast<int64_t>(tg.height) + tg.arity, true);
        }
        break;
      }
      case Op::kIf:
        flow(in.a, d - 1, true);
        flow(pc + 1, d - 1, false);
        break;
      case Op::kElse:
        flow(in.a, d, true);
        break;
      case Op::kReturn:
      case Op::kUnreachable:
        break;
      case Op::kCall:
      case Op::kFCallWasm: {
        if (in.a >= m.NumFuncs()) {
          ok = false;
          break;
        }
        const FuncType& t = m.types[m.FuncTypeIndex(in.a)];
        flow(pc + 1,
             d - static_cast<int64_t>(t.params.size()) +
                 static_cast<int64_t>(t.results.size()),
             false);
        break;
      }
      case Op::kCallIndirect: {
        if (in.a >= m.types.size()) {
          ok = false;
          break;
        }
        const FuncType& t = m.types[in.a];
        flow(pc + 1,
             d - 1 - static_cast<int64_t>(t.params.size()) +
                 static_cast<int64_t>(t.results.size()),
             false);
        break;
      }
      case Op::kLoop:
      case Op::kBlock:
      case Op::kEnd:
      case Op::kNop:
        flow(pc + 1, d, false);
        break;
      default: {
        int32_t delta = 0;
        if (!StackDelta(in.op, &delta)) {
          ok = false;
          break;
        }
        flow(pc + 1, d + delta, false);
        break;
      }
    }
  }
  if (!ok) return false;
  // Post-terminator pcs are heads too: control re-enters them through a
  // gate in the interpreter (frame_entry after calls, GOTO_GATE fall-
  // throughs), so compiled code must place an inline gate there as well.
  for (size_t pc = 0; pc < n; ++pc) {
    if (depth[pc] < 0) continue;
    if (pc == 0 || depth[pc - 1] < 0 || IsSegmentTerminator(code[pc - 1].op)) {
      head[pc] = 1;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// EmitFunction: stitches gate thunks and per-op stencils over the prepared
// stream. Refusal is all-or-nothing and permanent (slot -> kFailed): any op
// shape this file does not understand structurally (unknown stack effect,
// oversized frame) keeps the whole function on the interpreter. Ops that
// are merely slow (FP, truncations, atomics, bulk memory) compile to deopt
// exits instead, so one cold instruction does not forfeit a hot loop.

class Compiler {
 public:
  Compiler(const Module& m, const Function& fn) : m_(m), fn_(fn) {}

  std::unique_ptr<CompiledFn> Run() {
    const std::vector<Instr>& code = fn_.prepared.code;
    n_ = static_cast<uint32_t>(code.size());
    if (n_ == 0 || fn_.prepared.linear_cost.size() != code.size()) {
      return nullptr;
    }
    const size_t params = m_.types[fn_.type_index].params.size();
    gap_ = static_cast<int64_t>(params) +
           static_cast<int64_t>(fn_.locals.size()) + 1;
    // Every slot displacement (locals, operands, one past the peak for the
    // widest store) must fit disp32 addressing off rbx.
    if ((gap_ + fn_.max_operand_stack + 8) * 8 > INT32_MAX) {
      return nullptr;
    }
    if (!ComputeDepths(m_, fn_, depth_, head_)) {
      return nullptr;
    }
    entry_.assign(n_, Asm::Label());
    body_.assign(n_, Asm::Label());
    a_.Bind(fn_start_);
    for (uint32_t pc = 0; pc < n_ && ok_; ++pc) {
      if (depth_[pc] < 0) continue;  // unreachable
      if (head_[pc]) {
        bool fall_in = !(pc == 0 || depth_[pc - 1] < 0 ||
                         IsSegmentTerminator(code[pc - 1].op));
        if (fall_in) {
          // Reached both by straight-line flow (already charged by the
          // enclosing segment's gate) and by branch/OSR entry (must
          // charge): the gate goes out of line on the branch path.
          ool_heads_.push_back(pc);
          a_.Bind(body_[pc]);
        } else {
          a_.Bind(entry_[pc]);
          EmitGate(pc);
        }
      }
      EmitBody(pc);
    }
    if (!ok_) return nullptr;
    for (uint32_t pc : ool_heads_) {
      a_.Bind(entry_[pc]);
      EmitGate(pc);
      a_.Jmp(body_[pc]);
    }
    // br_table dispatch: per-target unwind snippets, then the offset table
    // the inline stencil indexes (offsets relative to fn_start_ == 0).
    for (BrTableRec& rec : br_recs_) {
      const BrTable& t = fn_.prepared.br_tables[rec.index];
      std::vector<int32_t> snippets;
      snippets.reserve(t.targets.size());
      for (const BrTarget& tg : t.targets) {
        snippets.push_back(static_cast<int32_t>(a_.size()));
        EmitUnwind(rec.depth, tg.height, tg.arity);
        a_.Jmp(entry_[tg.pc]);
      }
      a_.Bind(rec.tbl);
      for (int32_t off : snippets) {
        a_.W32(static_cast<uint32_t>(off));
      }
    }
    // Shared exit tail: rsi = exit pc, rcx = exit code (set by each exit
    // site), executed synced from r12. The trampoline's pops follow the ret.
    a_.Bind(sync_exit_);
    a_.MovMR(1, RBP, 64, RSI);
    a_.MovMR(1, RBP, 56, RCX);
    a_.MovMR(1, RBP, 8, R12);
    a_.Ret();
    if (poll_trap_.referenced()) {
      // exit_pc was stored before the poll helper ran; don't clobber it.
      a_.Bind(poll_trap_);
      a_.MovMemImm(RBP, 56, static_cast<int32_t>(kExitPollTrap));
      a_.MovMR(1, RBP, 8, R12);
      a_.Ret();
    }
    for (auto& fs : fuel_stubs_) {
      a_.Bind(fs.second);
      EmitExit(fs.first, kExitFuelGate);
    }
    for (auto& ds : deopt_stubs_) {
      a_.Bind(ds.second);
      EmitExit(ds.first, kExitDeopt);
    }
    if (!ok_) return nullptr;
    // Defensive: a referenced-but-unbound label means a structural bug;
    // refuse rather than emit a jump into the weeds.
    for (auto& l : entry_) {
      if (!l.fixups.empty()) return nullptr;
    }
    for (auto& l : body_) {
      if (!l.fixups.empty()) return nullptr;
    }
    auto cf = std::make_unique<CompiledFn>();
    cf->buf = std::move(a_.buf);
    cf->depth = std::move(depth_);
    cf->entry.assign(n_, -1);
    for (uint32_t pc = 0; pc < n_; ++pc) {
      if (head_[pc] && cf->depth[pc] >= 0) {
        cf->entry[pc] = entry_[pc].pos;
      }
    }
    return cf;
  }

 private:
  struct BrTableRec {
    uint32_t index;  // prepared.br_tables index
    int64_t depth;   // operand depth after popping the selector
    Asm::Label tbl;
  };

  // Operand slot d / local i, addressed off rbx (the locals base).
  int32_t SlotDisp(int64_t d) const {
    return static_cast<int32_t>(8 * (gap_ + d));
  }
  int32_t LocalDisp(uint64_t i) const { return static_cast<int32_t>(8 * i); }
  void LoadSlot32(int reg, int64_t d) { a_.MovRM(0, reg, RBX, SlotDisp(d)); }
  void LoadSlot64(int reg, int64_t d) { a_.MovRM(1, reg, RBX, SlotDisp(d)); }
  void StoreSlot(int reg, int64_t d) { a_.MovMR(1, RBX, SlotDisp(d), reg); }
  void LoadLocal32(int reg, uint64_t i) {
    a_.MovRM(0, reg, RBX, LocalDisp(i));
  }
  void LoadLocal64(int reg, uint64_t i) {
    a_.MovRM(1, reg, RBX, LocalDisp(i));
  }
  void StoreLocal(int reg, uint64_t i) { a_.MovMR(1, RBX, LocalDisp(i), reg); }

  // Per-pc out-of-line exit stubs (std::map: node addresses are stable, so
  // labels referenced during emission survive later insertions).
  Asm::Label& FuelStub(uint32_t pc) { return fuel_stubs_[pc]; }
  Asm::Label& DeoptStub(uint32_t pc) { return deopt_stubs_[pc]; }

  void EmitExit(uint32_t pc, uint32_t exit_code) {
    a_.MovImm32(RSI, pc);
    a_.MovImm32(RCX, exit_code);
    a_.Jmp(sync_exit_);
  }

  // Segment fuel gate, the exact analogue of the interpreter's `gate:`
  // label: charge linear_cost[pc] or exit without charging. The fuel-gate
  // exit leaves r12 (executed) untouched; the dispatcher hands the frame
  // back to the interpreter, whose own gate delegates the final partial
  // segment to the switch loop for the exact executed == fuel + 1 boundary.
  void EmitGate(uint32_t pc) {
    uint32_t seg = fn_.prepared.linear_cost[pc];
    if (seg > static_cast<uint32_t>(INT32_MAX)) {
      ok_ = false;
      return;
    }
    a_.Lea(RAX, R12, static_cast<int32_t>(seg));
    a_.AluRR(1, 0x3B, RAX, R13);  // executed + seg vs effective fuel
    a_.Jcc(kCcA, FuelStub(pc));
    a_.MovRR(1, R12, RAX);
  }

  // do_branch's value shuffle: copy `arity` values from the current depth
  // to the label height. Ascending copy is safe (height + k <= src).
  void EmitUnwind(int64_t from_depth, uint32_t height, uint32_t arity) {
    for (uint32_t k = 0; k < arity; ++k) {
      int64_t src = from_depth - arity + k;
      int64_t dst = static_cast<int64_t>(height) + k;
      if (src == dst) continue;
      a_.MovRM(1, RAX, RBX, SlotDisp(src));
      a_.MovMR(1, RBX, SlotDisp(dst), RAX);
    }
  }

  // Bounds check + effective address for a memory access: expects the u32
  // base address in eax, leaves ea in rcx ([r14 + rcx] is the operand).
  // Checks against the r15 size cache; failure deopts and the interpreter
  // re-checks against the live size (so cross-thread growth visibility
  // matches the threaded loop's MEM_CHECK_OR_TRAP exactly).
  bool EmitMemCheck(uint32_t pc, uint64_t offset, uint32_t len) {
    if (offset > static_cast<uint64_t>(INT32_MAX)) {
      EmitExit(pc, kExitDeopt);
      return false;
    }
    a_.Lea(RCX, RAX, static_cast<int32_t>(offset));
    a_.Lea(RDX, RCX, static_cast<int32_t>(len));
    a_.AluRR(1, 0x3B, RDX, R15);
    a_.Jcc(kCcA, DeoptStub(pc));
    return true;
  }

  void EmitBody(uint32_t pc);
  bool EmitAlu32(Op op);            // eax = AluI32(op, eax, ecx)
  bool EmitAlu64(Op op);            // rax = AluI64(op, rax, rcx)
  bool EmitAluImm32(Op op, uint32_t imm);  // eax = AluI32(op, eax, imm)
  bool EmitAluImm64(Op op, uint64_t imm);  // rax = AluI64(op, rax, imm)
  void EmitDivRem(uint32_t pc, Op op, int64_t d);
  void EmitLoad(uint32_t pc, Op op, uint64_t offset, int64_t d);
  void EmitStore(uint32_t pc, Op op, uint64_t offset, int64_t d);

  const Module& m_;
  const Function& fn_;
  Asm a_;
  uint32_t n_ = 0;
  int64_t gap_ = 0;
  bool ok_ = true;
  std::vector<int32_t> depth_;
  std::vector<uint8_t> head_;
  std::vector<Asm::Label> entry_;
  std::vector<Asm::Label> body_;
  std::vector<uint32_t> ool_heads_;
  std::deque<BrTableRec> br_recs_;
  std::map<uint32_t, Asm::Label> fuel_stubs_;
  std::map<uint32_t, Asm::Label> deopt_stubs_;
  Asm::Label fn_start_;
  Asm::Label sync_exit_;
  Asm::Label poll_trap_;
};

// eax = AluI32(op, eax, ecx). Shifts/rotates take the count in cl, which
// hardware masks by 31 — the same masking AluI32 and the interpreter's
// shift/rotate bodies apply (for rotates, rol/ror with a masked count is
// value-identical to the two-shift formula, including count 0).
bool Compiler::EmitAlu32(Op op) {
  switch (op) {
    case Op::kI32Add: a_.AluRR(0, 0x03, RAX, RCX); return true;
    case Op::kI32Sub: a_.AluRR(0, 0x2B, RAX, RCX); return true;
    case Op::kI32Mul: a_.Imul(0, RAX, RCX); return true;
    case Op::kI32And: a_.AluRR(0, 0x23, RAX, RCX); return true;
    case Op::kI32Or: a_.AluRR(0, 0x0B, RAX, RCX); return true;
    case Op::kI32Xor: a_.AluRR(0, 0x33, RAX, RCX); return true;
    case Op::kI32Shl: a_.ShiftCl(0, 4, RAX); return true;
    case Op::kI32ShrS: a_.ShiftCl(0, 7, RAX); return true;
    case Op::kI32ShrU: a_.ShiftCl(0, 5, RAX); return true;
    case Op::kI32Rotl: a_.ShiftCl(0, 0, RAX); return true;
    case Op::kI32Rotr: a_.ShiftCl(0, 1, RAX); return true;
    default: {
      int cc = CcForCmp(op);
      if (cc < 0) return false;
      a_.AluRR(0, 0x3B, RAX, RCX);
      a_.Setcc(cc, RAX);
      a_.MovzxBR(RAX, RAX);
      return true;
    }
  }
}

bool Compiler::EmitAlu64(Op op) {
  switch (op) {
    case Op::kI64Add: a_.AluRR(1, 0x03, RAX, RCX); return true;
    case Op::kI64Sub: a_.AluRR(1, 0x2B, RAX, RCX); return true;
    case Op::kI64Mul: a_.Imul(1, RAX, RCX); return true;
    case Op::kI64And: a_.AluRR(1, 0x23, RAX, RCX); return true;
    case Op::kI64Or: a_.AluRR(1, 0x0B, RAX, RCX); return true;
    case Op::kI64Xor: a_.AluRR(1, 0x33, RAX, RCX); return true;
    case Op::kI64Shl: a_.ShiftCl(1, 4, RAX); return true;
    case Op::kI64ShrS: a_.ShiftCl(1, 7, RAX); return true;
    case Op::kI64ShrU: a_.ShiftCl(1, 5, RAX); return true;
    case Op::kI64Rotl: a_.ShiftCl(1, 0, RAX); return true;
    case Op::kI64Rotr: a_.ShiftCl(1, 1, RAX); return true;
    default: {
      int cc = CcForCmp(op);
      if (cc < 0) return false;
      a_.AluRR(1, 0x3B, RAX, RCX);
      a_.Setcc(cc, RAX);
      a_.MovzxBR(RAX, RAX);
      return true;
    }
  }
}

bool Compiler::EmitAluImm32(Op op, uint32_t imm) {
  int32_t si = static_cast<int32_t>(imm);
  switch (op) {
    case Op::kI32Add: a_.AluImm(0, 0, RAX, si); return true;
    case Op::kI32Sub: a_.AluImm(0, 5, RAX, si); return true;
    case Op::kI32Mul: a_.ImulImm(0, RAX, RAX, si); return true;
    case Op::kI32And: a_.AluImm(0, 4, RAX, si); return true;
    case Op::kI32Or: a_.AluImm(0, 1, RAX, si); return true;
    case Op::kI32Xor: a_.AluImm(0, 6, RAX, si); return true;
    case Op::kI32Shl: a_.ShiftImm(0, 4, RAX, imm & 31); return true;
    case Op::kI32ShrS: a_.ShiftImm(0, 7, RAX, imm & 31); return true;
    case Op::kI32ShrU: a_.ShiftImm(0, 5, RAX, imm & 31); return true;
    case Op::kI32Rotl: a_.ShiftImm(0, 0, RAX, imm & 31); return true;
    case Op::kI32Rotr: a_.ShiftImm(0, 1, RAX, imm & 31); return true;
    default: {
      int cc = CcForCmp(op);
      if (cc < 0) return false;
      a_.AluImm(0, 7, RAX, si);
      a_.Setcc(cc, RAX);
      a_.MovzxBR(RAX, RAX);
      return true;
    }
  }
}

bool Compiler::EmitAluImm64(Op op, uint64_t imm) {
  switch (op) {
    case Op::kI64Shl: a_.ShiftImm(1, 4, RAX, imm & 63); return true;
    case Op::kI64ShrS: a_.ShiftImm(1, 7, RAX, imm & 63); return true;
    case Op::kI64ShrU: a_.ShiftImm(1, 5, RAX, imm & 63); return true;
    case Op::kI64Rotl: a_.ShiftImm(1, 0, RAX, imm & 63); return true;
    case Op::kI64Rotr: a_.ShiftImm(1, 1, RAX, imm & 63); return true;
    default:
      break;
  }
  int64_t s = static_cast<int64_t>(imm);
  if (s >= INT32_MIN && s <= INT32_MAX) {
    int32_t si = static_cast<int32_t>(s);
    switch (op) {
      case Op::kI64Add: a_.AluImm(1, 0, RAX, si); return true;
      case Op::kI64Sub: a_.AluImm(1, 5, RAX, si); return true;
      case Op::kI64Mul: a_.ImulImm(1, RAX, RAX, si); return true;
      case Op::kI64And: a_.AluImm(1, 4, RAX, si); return true;
      case Op::kI64Or: a_.AluImm(1, 1, RAX, si); return true;
      case Op::kI64Xor: a_.AluImm(1, 6, RAX, si); return true;
      default: {
        int cc = CcForCmp(op);
        if (cc < 0) return false;
        a_.AluImm(1, 7, RAX, si);
        a_.Setcc(cc, RAX);
        a_.MovzxBR(RAX, RAX);
        return true;
      }
    }
  }
  a_.MovImm(RCX, imm);
  return EmitAlu64(op);
}

// Integer division family: ecx/rcx = divisor, eax/rax = dividend. Division
// traps (zero divisor, INT_MIN / -1 overflow) deopt so the interpreter
// raises the oracle trap with oracle billing; x % -1 == 0 is computed
// inline (idiv would fault on INT_MIN % -1 where wasm defines 0).
void Compiler::EmitDivRem(uint32_t pc, Op op, int64_t d) {
  int w = (op == Op::kI64DivS || op == Op::kI64DivU || op == Op::kI64RemS ||
           op == Op::kI64RemU)
              ? 1
              : 0;
  if (w) {
    LoadSlot64(RCX, d - 1);
    LoadSlot64(RAX, d - 2);
  } else {
    LoadSlot32(RCX, d - 1);
    LoadSlot32(RAX, d - 2);
  }
  a_.TestRR(w, RCX, RCX);
  a_.Jcc(kCcE, DeoptStub(pc));  // div-by-zero: interpreter raises it
  switch (op) {
    case Op::kI32DivS: {
      Asm::Label do_div;
      a_.AluImm(0, 7, RCX, -1);
      a_.Jcc(kCcNE, do_div);
      a_.AluImm(0, 7, RAX, INT32_MIN);
      a_.Jcc(kCcE, DeoptStub(pc));  // overflow: interpreter raises it
      a_.Bind(do_div);
      a_.Cdq();
      a_.Idiv(0, RCX);
      break;
    }
    case Op::kI64DivS: {
      Asm::Label do_div;
      a_.AluImm(1, 7, RCX, -1);
      a_.Jcc(kCcNE, do_div);
      a_.MovImm(RDX, static_cast<uint64_t>(INT64_MIN));
      a_.AluRR(1, 0x3B, RAX, RDX);
      a_.Jcc(kCcE, DeoptStub(pc));
      a_.Bind(do_div);
      a_.Cqo();
      a_.Idiv(1, RCX);
      break;
    }
    case Op::kI32DivU:
      a_.XorSelf32(RDX);
      a_.Div(0, RCX);
      break;
    case Op::kI64DivU:
      a_.XorSelf32(RDX);
      a_.Div(1, RCX);
      break;
    case Op::kI32RemS: {
      Asm::Label store;
      a_.XorSelf32(RDX);  // rem = 0 covers the divisor == -1 fast-out
      a_.AluImm(0, 7, RCX, -1);
      a_.Jcc(kCcE, store);
      a_.Cdq();
      a_.Idiv(0, RCX);
      a_.Bind(store);
      a_.MovRR(0, RAX, RDX);
      break;
    }
    case Op::kI64RemS: {
      Asm::Label store;
      a_.XorSelf32(RDX);
      a_.AluImm(1, 7, RCX, -1);
      a_.Jcc(kCcE, store);
      a_.Cqo();
      a_.Idiv(1, RCX);
      a_.Bind(store);
      a_.MovRR(1, RAX, RDX);
      break;
    }
    case Op::kI32RemU:
      a_.XorSelf32(RDX);
      a_.Div(0, RCX);
      a_.MovRR(0, RAX, RDX);
      break;
    case Op::kI64RemU:
      a_.XorSelf32(RDX);
      a_.Div(1, RCX);
      a_.MovRR(1, RAX, RDX);
      break;
    default:
      ok_ = false;
      return;
  }
  StoreSlot(RAX, d - 2);
}

// Plain loads: address at d-1, canonical result replaces it. The widening
// forms reproduce the interpreter's casts exactly (sign-extend to the
// result width, then zero-extend into the 8-byte slot).
void Compiler::EmitLoad(uint32_t pc, Op op, uint64_t offset, int64_t d) {
  uint32_t len;
  switch (op) {
    case Op::kI32Load8S: case Op::kI32Load8U:
    case Op::kI64Load8S: case Op::kI64Load8U:
      len = 1;
      break;
    case Op::kI32Load16S: case Op::kI32Load16U:
    case Op::kI64Load16S: case Op::kI64Load16U:
      len = 2;
      break;
    case Op::kI64Load: case Op::kF64Load:
      len = 8;
      break;
    default:
      len = 4;
      break;
  }
  LoadSlot32(RAX, d - 1);
  if (!EmitMemCheck(pc, offset, len)) return;
  switch (op) {
    case Op::kI32Load: case Op::kF32Load: case Op::kI64Load32U:
      a_.MovRX(0, RAX, R14, RCX);
      break;
    case Op::kI64Load: case Op::kF64Load:
      a_.MovRX(1, RAX, R14, RCX);
      break;
    case Op::kI32Load8S:
      a_.MovsxB(0, RAX, R14, RCX);
      break;
    case Op::kI64Load8S:
      a_.MovsxB(1, RAX, R14, RCX);
      break;
    case Op::kI32Load8U: case Op::kI64Load8U:
      a_.MovzxB(RAX, R14, RCX);
      break;
    case Op::kI32Load16S:
      a_.MovsxW(0, RAX, R14, RCX);
      break;
    case Op::kI64Load16S:
      a_.MovsxW(1, RAX, R14, RCX);
      break;
    case Op::kI32Load16U: case Op::kI64Load16U:
      a_.MovzxW(RAX, R14, RCX);
      break;
    case Op::kI64Load32S:
      a_.MovsxdX(RAX, R14, RCX);
      break;
    default:
      ok_ = false;
      return;
  }
  StoreSlot(RAX, d - 1);
}

// Plain stores: value at d-1, address at d-2.
void Compiler::EmitStore(uint32_t pc, Op op, uint64_t offset, int64_t d) {
  uint32_t len;
  switch (op) {
    case Op::kI32Store8: case Op::kI64Store8:
      len = 1;
      break;
    case Op::kI32Store16: case Op::kI64Store16:
      len = 2;
      break;
    case Op::kI64Store: case Op::kF64Store:
      len = 8;
      break;
    default:
      len = 4;
      break;
  }
  LoadSlot32(RAX, d - 2);
  if (!EmitMemCheck(pc, offset, len)) return;
  LoadSlot64(RAX, d - 1);
  switch (op) {
    case Op::kI32Store: case Op::kF32Store: case Op::kI64Store32:
      a_.MovXR(0, R14, RCX, RAX);
      break;
    case Op::kI64Store: case Op::kF64Store:
      a_.MovXR(1, R14, RCX, RAX);
      break;
    case Op::kI32Store8: case Op::kI64Store8:
      a_.MovXR8(R14, RCX, RAX);
      break;
    case Op::kI32Store16: case Op::kI64Store16:
      a_.MovXR16(R14, RCX, RAX);
      break;
    default:
      ok_ = false;
      return;
  }
}

// One stencil per prepared-stream op. Anything not covered compiles to a
// deopt exit: the dispatcher uncharges the segment remainder and the
// interpreter re-executes the op from unconsumed state.
void Compiler::EmitBody(uint32_t pc) {
  const Instr& in = fn_.prepared.code[pc];
  const int64_t d = depth_[pc];
  const Op op = in.op;
  const uint32_t v = static_cast<uint32_t>(op);

  // Generic i32/i64 binop families (comparisons + two-operand arithmetic).
  if ((v >= 0x46 && v <= 0x4F) || (v >= 0x6A && v <= 0x78)) {
    if (op == Op::kI32DivS || op == Op::kI32DivU || op == Op::kI32RemS ||
        op == Op::kI32RemU) {
      EmitDivRem(pc, op, d);
      return;
    }
    LoadSlot32(RAX, d - 2);
    LoadSlot32(RCX, d - 1);
    if (!EmitAlu32(op)) {
      EmitExit(pc, kExitDeopt);
      return;
    }
    StoreSlot(RAX, d - 2);
    return;
  }
  if ((v >= 0x51 && v <= 0x5A) || (v >= 0x7C && v <= 0x8A)) {
    if (op == Op::kI64DivS || op == Op::kI64DivU || op == Op::kI64RemS ||
        op == Op::kI64RemU) {
      EmitDivRem(pc, op, d);
      return;
    }
    LoadSlot64(RAX, d - 2);
    LoadSlot64(RCX, d - 1);
    if (!EmitAlu64(op)) {
      EmitExit(pc, kExitDeopt);
      return;
    }
    StoreSlot(RAX, d - 2);
    return;
  }
  if (v >= 0x28 && v <= 0x35) {
    EmitLoad(pc, op, in.a, d);
    return;
  }
  if (v >= 0x36 && v <= 0x3E) {
    EmitStore(pc, op, in.a, d);
    return;
  }

  switch (op) {
    case Op::kNop:
    case Op::kBlock:
    case Op::kEnd:
    case Op::kDrop:
      return;

    case Op::kLoop: {
      // Loop-header safepoint, gated on the runtime poll flag, then the
      // interpreter's unconditional REFRESH_MSIZE (in that order). The
      // helper publishes pc + 1 (the post-increment pc SYNC_STATE sees)
      // and latches traps exactly as do_poll.
      Asm::Label skip;
      a_.CmpMemImm8(RBP, 72, 0);
      a_.Jcc(kCcE, skip);
      a_.MovImm32(RSI, pc + 1);
      a_.MovMR(1, RBP, 64, RSI);
      a_.MovMR(1, RBP, 8, R12);
      a_.MovRR(1, RDI, RBP);
      a_.CallMem(RBP, 80);
      a_.TestRR(0, RAX, RAX);
      a_.Jcc(kCcNE, poll_trap_);
      a_.Bind(skip);
      a_.MovRM(1, RAX, RBP, 40);
      a_.MovRM(1, R15, RAX, 0);
      return;
    }

    case Op::kUnreachable:
      EmitExit(pc, kExitDeopt);  // interpreter raises the oracle trap
      return;

    case Op::kIf:
      LoadSlot32(RAX, d - 1);
      a_.TestRR(0, RAX, RAX);
      a_.Jcc(kCcE, entry_[in.a]);
      return;
    case Op::kElse:
      a_.Jmp(entry_[in.a]);
      return;
    case Op::kBr:
      EmitUnwind(d, in.b, in.arity);
      a_.Jmp(entry_[in.a]);
      return;
    case Op::kBrIf: {
      Asm::Label skip;
      LoadSlot32(RAX, d - 1);
      a_.TestRR(0, RAX, RAX);
      a_.Jcc(kCcE, skip);
      EmitUnwind(d - 1, in.b, in.arity);
      a_.Jmp(entry_[in.a]);
      a_.Bind(skip);
      return;
    }
    case Op::kFBrIfEqz: {
      Asm::Label skip;
      LoadSlot32(RAX, d - 1);
      a_.TestRR(0, RAX, RAX);
      a_.Jcc(kCcNE, skip);
      EmitUnwind(d - 1, in.b, in.arity);
      a_.Jmp(entry_[in.a]);
      a_.Bind(skip);
      return;
    }
    case Op::kFI32CmpBrIf:
    case Op::kFI64CmpBrIf: {
      int cc = CcForCmp(static_cast<Op>(in.imm));
      if (cc < 0) {
        EmitExit(pc, kExitDeopt);
        return;
      }
      Asm::Label skip;
      int w = op == Op::kFI64CmpBrIf ? 1 : 0;
      if (w) {
        LoadSlot64(RAX, d - 2);
        LoadSlot64(RCX, d - 1);
      } else {
        LoadSlot32(RAX, d - 2);
        LoadSlot32(RCX, d - 1);
      }
      a_.AluRR(w, 0x3B, RAX, RCX);
      a_.Jcc(cc ^ 1, skip);
      EmitUnwind(d - 2, in.b, in.arity);
      a_.Jmp(entry_[in.a]);
      a_.Bind(skip);
      return;
    }
    case Op::kFLocalLocalCmpBrIf: {
      int cc = CcForCmp(static_cast<Op>(in.imm & 0xFFFF));
      if (cc < 0) {
        EmitExit(pc, kExitDeopt);
        return;
      }
      Asm::Label skip;
      LoadLocal32(RAX, (in.imm >> 16) & 0xFFFF);
      LoadLocal32(RCX, (in.imm >> 32) & 0xFFFF);
      a_.AluRR(0, 0x3B, RAX, RCX);
      a_.Jcc(cc ^ 1, skip);
      EmitUnwind(d, in.b, in.arity);
      a_.Jmp(entry_[in.a]);
      a_.Bind(skip);
      return;
    }
    case Op::kFLocalTeeBrIf: {
      // Full 64-bit tee (the interpreter stores the popped slot verbatim),
      // 32-bit condition test.
      Asm::Label skip;
      LoadSlot64(RAX, d - 1);
      StoreLocal(RAX, in.imm);
      a_.TestRR(0, RAX, RAX);
      a_.Jcc(kCcE, skip);
      EmitUnwind(d - 1, in.b, in.arity);
      a_.Jmp(entry_[in.a]);
      a_.Bind(skip);
      return;
    }
    case Op::kBrTable: {
      if (in.a >= fn_.prepared.br_tables.size() ||
          fn_.prepared.br_tables[in.a].targets.empty()) {
        ok_ = false;
        return;
      }
      const BrTable& t = fn_.prepared.br_tables[in.a];
      br_recs_.emplace_back();
      BrTableRec& rec = br_recs_.back();
      rec.index = in.a;
      rec.depth = d - 1;
      // Clamp the selector to the default (last) entry, index the rel-
      // offset table, and jump — snippets unwind per target.
      LoadSlot32(RAX, d - 1);
      a_.MovImm32(RCX, static_cast<uint32_t>(t.targets.size() - 1));
      a_.AluRR(0, 0x3B, RAX, RCX);
      a_.Cmovcc(0, kCcA, RAX, RCX);
      a_.LeaRip(RCX, rec.tbl);
      a_.MovsxdM(RAX, RCX, RAX, 2);
      a_.LeaRip(RDX, fn_start_);
      a_.AluRR(1, 0x03, RAX, RDX);
      a_.JmpReg(RAX);
      return;
    }

    case Op::kReturn:
      EmitExit(pc, kExitReturn);
      return;
    case Op::kCall:
    case Op::kCallIndirect:
    case Op::kFCallWasm:
      EmitExit(pc, kExitCall);
      return;

    case Op::kSelect:
      LoadSlot32(RCX, d - 1);
      LoadSlot64(RAX, d - 3);
      a_.TestRR(0, RCX, RCX);
      a_.CmovccM(1, kCcE, RAX, RBX, SlotDisp(d - 2));
      StoreSlot(RAX, d - 3);
      return;

    case Op::kLocalGet:
      LoadLocal64(RAX, in.a);
      StoreSlot(RAX, d);
      return;
    case Op::kLocalSet:
      LoadSlot64(RAX, d - 1);
      StoreLocal(RAX, in.a);
      return;
    case Op::kLocalTee:
      LoadSlot64(RAX, d - 1);
      StoreLocal(RAX, in.a);
      return;
    case Op::kGlobalGet:
    case Op::kGlobalSet: {
      if (in.a > static_cast<uint32_t>((INT32_MAX - 8) / 16)) {
        EmitExit(pc, kExitDeopt);
        return;
      }
      int32_t disp = static_cast<int32_t>(16 * in.a + 8);
      a_.MovRM(1, RCX, RBP, 48);
      if (op == Op::kGlobalGet) {
        a_.MovRM(1, RAX, RCX, disp);
        StoreSlot(RAX, d);
      } else {
        LoadSlot64(RAX, d - 1);
        a_.MovMR(1, RCX, disp, RAX);
      }
      return;
    }

    case Op::kI32Const:
    case Op::kI64Const:
    case Op::kF32Const:
    case Op::kF64Const:
      a_.MovImm(RAX, in.imm);
      StoreSlot(RAX, d);
      return;

    case Op::kMemorySize:
      // Live size read (not the r15 cache), exactly like the interpreter.
      a_.MovRM(1, RAX, RBP, 40);
      a_.MovRM(1, RAX, RAX, 0);
      a_.ShiftImm(1, 5, RAX, 16);
      StoreSlot(RAX, d);
      return;

    case Op::kI32Eqz:
      LoadSlot32(RAX, d - 1);
      a_.TestRR(0, RAX, RAX);
      a_.Setcc(kCcE, RAX);
      a_.MovzxBR(RAX, RAX);
      StoreSlot(RAX, d - 1);
      return;
    case Op::kI64Eqz:
      LoadSlot64(RAX, d - 1);
      a_.TestRR(1, RAX, RAX);
      a_.Setcc(kCcE, RAX);
      a_.MovzxBR(RAX, RAX);
      StoreSlot(RAX, d - 1);
      return;

    // Branch-free clz/ctz via bsr/bsf (dest undefined on zero input, ZF
    // set): seed the zero-input answer and cmov it in. clz turns the bit
    // index into a leading count with xor 31/63 (63^31 == 32, 127^63 == 64
    // cover the zero case through the same xor).
    case Op::kI32Clz:
      LoadSlot32(RCX, d - 1);
      a_.Bsr(0, RAX, RCX);
      a_.MovImm32(RDX, 63);
      a_.Cmovcc(0, kCcE, RAX, RDX);
      a_.AluImm(0, 6, RAX, 31);
      StoreSlot(RAX, d - 1);
      return;
    case Op::kI32Ctz:
      LoadSlot32(RCX, d - 1);
      a_.Bsf(0, RAX, RCX);
      a_.MovImm32(RDX, 32);
      a_.Cmovcc(0, kCcE, RAX, RDX);
      StoreSlot(RAX, d - 1);
      return;
    case Op::kI64Clz:
      LoadSlot64(RCX, d - 1);
      a_.Bsr(1, RAX, RCX);
      a_.MovImm32(RDX, 127);
      a_.Cmovcc(1, kCcE, RAX, RDX);
      a_.AluImm(0, 6, RAX, 63);
      StoreSlot(RAX, d - 1);
      return;
    case Op::kI64Ctz:
      LoadSlot64(RCX, d - 1);
      a_.Bsf(1, RAX, RCX);
      a_.MovImm32(RDX, 64);
      a_.Cmovcc(1, kCcE, RAX, RDX);
      StoreSlot(RAX, d - 1);
      return;

    // Width changes that reduce to "re-canonicalize the low 32 bits".
    case Op::kI32WrapI64:
    case Op::kI64ExtendI32U:
    case Op::kI32ReinterpretF32:
      LoadSlot32(RAX, d - 1);
      StoreSlot(RAX, d - 1);
      return;
    // Bit-identity on an already-canonical slot: nothing to do.
    case Op::kI64ReinterpretF64:
    case Op::kF32ReinterpretI32:
    case Op::kF64ReinterpretI64:
      return;

    case Op::kI64ExtendI32S:
    case Op::kI64Extend32S:
      a_.MovsxdRM(RAX, RBX, SlotDisp(d - 1));
      StoreSlot(RAX, d - 1);
      return;
    case Op::kI32Extend8S:
      LoadSlot32(RAX, d - 1);
      a_.MovsxBR(0, RAX, RAX);
      StoreSlot(RAX, d - 1);
      return;
    case Op::kI32Extend16S:
      LoadSlot32(RAX, d - 1);
      a_.MovsxWR(0, RAX, RAX);
      StoreSlot(RAX, d - 1);
      return;
    case Op::kI64Extend8S:
      LoadSlot32(RAX, d - 1);
      a_.MovsxBR(1, RAX, RAX);
      StoreSlot(RAX, d - 1);
      return;
    case Op::kI64Extend16S:
      LoadSlot32(RAX, d - 1);
      a_.MovsxWR(1, RAX, RAX);
      StoreSlot(RAX, d - 1);
      return;

    // --- superinstructions ---
    case Op::kFLocalLocalI32Add:
      LoadLocal32(RAX, in.a);
      a_.AluRM(0, 0x03, RAX, RBX, LocalDisp(in.b));
      StoreSlot(RAX, d);
      return;
    case Op::kFI32AddConst:
      LoadSlot32(RAX, d - 1);
      a_.AluImm(0, 0, RAX, static_cast<int32_t>(in.imm));
      StoreSlot(RAX, d - 1);
      return;
    case Op::kFI32ConstOp:
      LoadSlot32(RAX, d - 1);
      if (!EmitAluImm32(static_cast<Op>(in.b),
                        static_cast<uint32_t>(in.imm))) {
        EmitExit(pc, kExitDeopt);
        return;
      }
      StoreSlot(RAX, d - 1);
      return;
    case Op::kFI64ConstOp:
      LoadSlot64(RAX, d - 1);
      if (!EmitAluImm64(static_cast<Op>(in.b), in.imm)) {
        EmitExit(pc, kExitDeopt);
        return;
      }
      StoreSlot(RAX, d - 1);
      return;
    case Op::kFLocalI32Load:
      LoadLocal32(RAX, in.b);
      if (!EmitMemCheck(pc, in.a, 4)) return;
      a_.MovRX(0, RAX, R14, RCX);
      StoreSlot(RAX, d);
      return;
    case Op::kFLocalI64Load:
      LoadLocal32(RAX, in.b);
      if (!EmitMemCheck(pc, in.a, 8)) return;
      a_.MovRX(1, RAX, R14, RCX);
      StoreSlot(RAX, d);
      return;
    case Op::kFI32LoadOp:
      LoadSlot32(RAX, d - 1);
      if (!EmitMemCheck(pc, in.a, 4)) return;
      a_.MovRX(0, RCX, R14, RCX);  // rhs = loaded value (and shift count)
      LoadSlot32(RAX, d - 2);
      if (!EmitAlu32(static_cast<Op>(in.b))) {
        EmitExit(pc, kExitDeopt);
        return;
      }
      StoreSlot(RAX, d - 2);
      return;
    case Op::kFI32CmpSel:
    case Op::kFI64CmpSel: {
      int cc = CcForCmp(static_cast<Op>(in.imm));
      if (cc < 0) {
        EmitExit(pc, kExitDeopt);
        return;
      }
      int w = op == Op::kFI64CmpSel ? 1 : 0;
      if (w) {
        LoadSlot64(RCX, d - 2);
        LoadSlot64(RDX, d - 1);
      } else {
        LoadSlot32(RCX, d - 2);
        LoadSlot32(RDX, d - 1);
      }
      a_.AluRR(w, 0x3B, RCX, RDX);
      LoadSlot64(RAX, d - 4);
      a_.CmovccM(1, cc ^ 1, RAX, RBX, SlotDisp(d - 3));
      StoreSlot(RAX, d - 4);
      return;
    }
    case Op::kFLocalLocalCmp: {
      int cc = CcForCmp(static_cast<Op>(in.arity));
      if (cc < 0) {
        EmitExit(pc, kExitDeopt);
        return;
      }
      LoadLocal32(RAX, in.a);
      LoadLocal32(RCX, in.b);
      a_.AluRR(0, 0x3B, RAX, RCX);
      a_.Setcc(cc, RAX);
      a_.MovzxBR(RAX, RAX);
      StoreSlot(RAX, d);
      return;
    }
    case Op::kFLocalConstI32Op:
      LoadLocal32(RAX, in.a);
      if (!EmitAluImm32(static_cast<Op>(in.b),
                        static_cast<uint32_t>(in.imm))) {
        EmitExit(pc, kExitDeopt);
        return;
      }
      StoreSlot(RAX, d);
      return;
    case Op::kFLocalConstI32OpSet:
      LoadLocal32(RAX, in.a);
      if (!EmitAluImm32(static_cast<Op>(in.arity),
                        static_cast<uint32_t>(in.imm))) {
        EmitExit(pc, kExitDeopt);
        return;
      }
      StoreLocal(RAX, in.b);
      return;
    case Op::kFLocalCopy:
      LoadLocal64(RAX, in.a);
      StoreLocal(RAX, in.b);
      return;

    // Everything else — floating point, truncations, converts, popcnt,
    // memory.grow/fill/copy, atomics, host-visible ops — deopts; the
    // interpreter is the single implementation of the slow ops.
    default:
      EmitExit(pc, kExitDeopt);
      return;
  }
}

// ---------------------------------------------------------------------------
// 5. Tier-up policy and the dispatcher.

// One-shot re-enter inhibit for (frames.size(), pc): after a deopt the
// interpreter must get at least one crack at the instruction, or a
// persistent deopt condition would ping-pong interp<->jit forever.
void SetInhibit(ExecContext& ctx, uint32_t pc) {
  ctx.jit_inhibit = true;
  ctx.jit_inhibit_frame = ctx.frames.size();
  ctx.jit_inhibit_pc = pc;
}

// Mirror of the interpreter's do_poll (trap latching included) for the
// native call path under SafepointScheme::kFunction.
TrapKind DispatchPoll(ExecContext& ctx) {
  if (ctx.poll != nullptr && *ctx.poll) {
    TrapKind t = (*ctx.poll)(ctx);
    if (t != TrapKind::kNone && ctx.trap == TrapKind::kNone) {
      ctx.trap = t;
    }
    return ctx.trap;
  }
  return TrapKind::kNone;
}

// Is frames.back() runnable as compiled code at its current pc? Null means
// "interpreter runs it": not compiled (yet), blacklisted, pc is not an OSR
// seam, running the unfused/kEveryInstr stream, or the frame's operand
// region would not fit the configured stack limit.
const CompiledFn* EnterableCode(ExecContext& ctx, ExecContext::Frame& fr) {
  if (fr.code != fr.fn->prepared.code.data()) return nullptr;
  const Module& m = fr.inst->module();
  auto* js = static_cast<ModuleStateImpl*>(m.jit.get());
  if (js == nullptr) return nullptr;
  JitFuncSlot& slot = js->slots[fr.fn - m.functions.data()];
  if (slot.deopts.load(std::memory_order_relaxed) >= kDeoptBlacklist) {
    return nullptr;
  }
  const auto* cf =
      static_cast<const CompiledFn*>(slot.code.load(std::memory_order_acquire));
  if (cf == nullptr) return nullptr;
  if (fr.pc >= cf->entry.size() || cf->entry[fr.pc] < 0) return nullptr;
  if (static_cast<uint64_t>(fr.stack_base) + fr.fn->max_operand_stack >
      ctx.opts.max_value_stack) {
    return nullptr;
  }
  return cf;
}

// Runs the compiler for one function (the caller holds the kCompiling
// latch) and publishes the outcome. Timing feeds the decade-bucketed
// compile-time histogram telemetry exports.
void CompileFunction(ModuleStateImpl& js, const Module& m, const Function& fn,
                     JitFuncSlot& slot) {
  auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<CompiledFn> cf = Compiler(m, fn).Run();
  bool ok = cf != nullptr && js.Install(std::move(cf), slot);
  auto nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  js.compile_nanos_sum.fetch_add(nanos, std::memory_order_relaxed);
  size_t b = 0;
  uint64_t bound = 1000;  // first bucket: <= 1us
  while (b + 1 < JitModuleState::kCompileNanosBuckets && nanos > bound) {
    bound *= 10;
    ++b;
  }
  js.compile_nanos_bucket[b].fetch_add(1, std::memory_order_relaxed);
  if (ok) {
    js.compiles.fetch_add(1, std::memory_order_relaxed);
    slot.state.store(JitFuncSlot::kCompiled, std::memory_order_release);
  } else {
    js.compile_failures.fetch_add(1, std::memory_order_relaxed);
    slot.state.store(JitFuncSlot::kFailed, std::memory_order_release);
  }
}

}  // namespace

bool RequestEnter(ExecContext& ctx) {
  ExecContext::Frame& fr = ctx.frames.back();
  const Module& m = fr.inst->module();
  auto* js = static_cast<ModuleStateImpl*>(m.jit.get());
  if (js == nullptr || fr.code != fr.fn->prepared.code.data()) {
    return false;
  }
  if (ctx.jit_inhibit && ctx.jit_inhibit_frame == ctx.frames.size() &&
      ctx.jit_inhibit_pc == fr.pc) {
    ctx.jit_inhibit = false;  // consumed: the interpreter runs this op once
    return false;
  }
  JitFuncSlot& slot = js->slots[fr.fn - m.functions.data()];
  uint32_t state = slot.state.load(std::memory_order_acquire);
  if (state == JitFuncSlot::kFailed) return false;
  if (state != JitFuncSlot::kCompiled) {
    if (slot.heat.fetch_add(1, std::memory_order_relaxed) + 1 <=
        ctx.opts.jit_threshold) {
      return false;
    }
    uint32_t expect = JitFuncSlot::kCold;
    if (slot.state.compare_exchange_strong(expect, JitFuncSlot::kCompiling,
                                           std::memory_order_acq_rel)) {
      CompileFunction(*js, m, *fr.fn, slot);
    }
    if (slot.state.load(std::memory_order_acquire) != JitFuncSlot::kCompiled) {
      return false;  // failed, or another instance still compiling
    }
  }
  if (EnterableCode(ctx, fr) == nullptr) return false;
  js->tierups.fetch_add(1, std::memory_order_relaxed);
  return true;
}

TrapKind Execute(ExecContext& ctx) {
  for (;;) {
    // Contract: every path here (RequestEnter, the native call/return
    // chains below) validated frames.back() with EnterableCode.
    ExecContext::Frame* fr = &ctx.frames.back();
    const Module& m = fr->inst->module();
    auto* js = static_cast<ModuleStateImpl*>(m.jit.get());
    JitFuncSlot& slot = js->slots[fr->fn - m.functions.data()];
    const auto* cf = static_cast<const CompiledFn*>(
        slot.code.load(std::memory_order_acquire));
    // Same grow-only pre-size as the interpreter's frame_entry: operand
    // slots are addressed statically, so the frame's full region must be
    // resident before entry.
    const size_t need =
        static_cast<size_t>(fr->stack_base) + fr->fn->max_operand_stack;
    if (ctx.stack.size() < need) {
      ctx.stack.resize(need);
    }
    Memory* mem = fr->mem;
    JitState st;
    st.fb = ctx.stack.data() + fr->locals_base;
    st.executed = ctx.executed;
    st.fuel = ctx.opts.fuel == 0 ? UINT64_MAX : ctx.opts.fuel;
    st.mbase = mem != nullptr ? mem->base() : nullptr;
    st.msize_addr = mem != nullptr ? mem->size_bytes_addr() : &kZeroMemSize;
    st.msize = st.msize_addr->load(std::memory_order_acquire);
    st.globals = m.NumGlobals() > 0 ? &fr->inst->global(0) : nullptr;
    st.exit_code = 0;
    st.exit_pc = 0;
    st.poll_flag = ctx.opts.scheme == SafepointScheme::kLoop &&
                           ctx.poll != nullptr && *ctx.poll
                       ? 1
                       : 0;
    st.poll_helper = &wasm_jit_poll_impl;
    st.ctx = &ctx;
    st.fr = fr;
    wasm_jit_enter_impl(&st, cf->code + cf->entry[fr->pc], st.fb);
    const uint32_t xpc = static_cast<uint32_t>(st.exit_pc);
    switch (static_cast<uint32_t>(st.exit_code)) {
      case kExitReturn: {
        // kReturn stencil: move the results to the frame base (the
        // interpreter's RETURN_UNWIND) and pop. If the caller is compiled
        // and resumable we stay native; otherwise trim the stack to the
        // exact post-call top and let frame_entry reload the caller.
        ctx.executed = st.executed;
        const size_t arity = fr->type->results.size();
        const size_t src =
            fr->stack_base + static_cast<size_t>(cf->depth[xpc]) - arity;
        const size_t dst = fr->locals_base;
        if (arity > 0 && src != dst) {
          std::memmove(&ctx.stack[dst], &ctx.stack[src],
                       arity * sizeof(uint64_t));
        }
        ctx.frames.pop_back();
        if (!ctx.frames.empty() &&
            EnterableCode(ctx, ctx.frames.back()) != nullptr) {
          continue;  // caller resumes at call_pc + 1 (set at call time)
        }
        ctx.stack.resize(dst + arity);
        return TrapKind::kNone;
      }
      case kExitCall: {
        // The stencil stops at the (unexecuted-so-far-as-effects) call op
        // with the segment ending at it already charged — exactly the
        // interpreter's position after SYNC_STATE at a call site. Resolve
        // the callee with the interpreter's checks, in its order; a trap
        // condition or an unresolved callee deopts so the oracle path
        // executes the op (billing: uncharge it here, the interp gate
        // re-charges).
        ctx.executed = st.executed;
        const Instr& cin = fr->code[xpc];
        const size_t dd = static_cast<size_t>(cf->depth[xpc]);
        const bool indirect = cin.op == Op::kCallIndirect;
        const FuncRef* ref = nullptr;
        bool deopt = false;
        if (indirect) {
          TableInst* table = fr->inst->table(cin.b).get();
          if (table == nullptr) {
            deopt = true;
          } else {
            const uint32_t idx =
                static_cast<uint32_t>(ctx.stack[fr->stack_base + dd - 1]);
            if (idx >= table->elems.size()) {
              deopt = true;
            } else {
              ref = &table->elems[idx];
              const FuncType& expected = m.types[cin.a];
              if (ref->IsNull() ||
                  (&expected != ref->type && !(expected == *ref->type))) {
                deopt = true;
              }
            }
          }
        } else {
          ref = &fr->inst->func(cin.a);
        }
        if (!deopt && !ref->IsHost() && ref->code == nullptr) {
          deopt = true;  // unresolved callee: interpreter path
        }
        if (deopt) {
          ctx.executed -= fr->lcost[xpc];
          fr->pc = xpc;
          ctx.stack.resize(fr->stack_base + dd);
          SetInhibit(ctx, xpc);
          js->osr_exits.fetch_add(1, std::memory_order_relaxed);
          slot.deopts.fetch_add(1, std::memory_order_relaxed);
          return TrapKind::kNone;
        }
        fr->pc = xpc + 1;  // the caller's resume point (SYNC_STATE)
        // The exact args-on-top position CallHost and push_wasm_frame
        // assume (the indirect index was popped by the check above).
        const size_t args_top = fr->stack_base + dd - (indirect ? 1 : 0);
        if (ref->IsHost()) {
          // The interpreter's host call op, verbatim: no poll, args at the
          // exact top, and on any trap (a park, an exit) return with the
          // state it leaves. Otherwise the results sit at the exact top;
          // the loop top re-reads frames.back() (a re-entrant host may
          // have reallocated the vector) and the memory size (a host that
          // grew memory is seen before the next compiled access).
          ctx.stack.resize(args_top);
          if (CallHostForJit(ctx, *ref->host) != TrapKind::kNone) {
            return ctx.trap;
          }
          if (EnterableCode(ctx, ctx.frames.back()) != nullptr) {
            continue;  // caller resumes natively at call_pc + 1
          }
          return TrapKind::kNone;  // frame_entry resumes at call_pc + 1
        }
        if (ctx.opts.scheme == SafepointScheme::kFunction &&
            DispatchPoll(ctx) != TrapKind::kNone) {
          return ctx.trap;  // stack stays inflated, as the interpreter's
        }
        ctx.stack.resize(args_top);
        if (!PushFrameForJit(ctx, *ref)) {
          return ctx.trap;  // kStackExhausted from the shared push path
        }
        if (EnterableCode(ctx, ctx.frames.back()) != nullptr) {
          continue;  // compiled callee: stay native
        }
        return TrapKind::kNone;  // frame_entry runs the callee
      }
      case kExitFuelGate: {
        // A segment gate found executed + seg > fuel. The interpreter's
        // gate at the same pc delegates the partial segment to the switch
        // loop for the exact executed == fuel + 1 clamp; inhibit re-entry
        // so the hook at this (frame, pc) lets it do that.
        ctx.executed = st.executed;
        fr->pc = xpc;
        ctx.stack.resize(fr->stack_base + static_cast<size_t>(cf->depth[xpc]));
        SetInhibit(ctx, xpc);
        return TrapKind::kNone;
      }
      case kExitPollTrap:
        // The loop-header poll helper already synced fr->pc / executed and
        // latched the trap; the operand stack stays at its inflated scratch
        // size, exactly like the interpreter's poll-trap return.
        return ctx.trap;
      case kExitDeopt:
      default: {
        // No stencil / trap condition / cached-bounds miss: hand the
        // instruction to the interpreter unconsumed. The stencil charged
        // the segment ending here, so uncharge this op; the interp gate
        // at xpc re-charges it (net: identical billing, and trap paths
        // get the oracle's TRAP_UNITS accounting).
        ctx.executed = st.executed - fr->lcost[xpc];
        fr->pc = xpc;
        ctx.stack.resize(fr->stack_base + static_cast<size_t>(cf->depth[xpc]));
        SetInhibit(ctx, xpc);
        js->osr_exits.fetch_add(1, std::memory_order_relaxed);
        slot.deopts.fetch_add(1, std::memory_order_relaxed);
        return TrapKind::kNone;
      }
    }
  }
}

#endif  // WASM_JIT_OK

std::shared_ptr<JitModuleState> CreateModuleState(size_t num_functions) {
#if WASM_JIT_OK
  auto st = std::make_shared<ModuleStateImpl>();
  st->slots = std::make_unique<JitFuncSlot[]>(num_functions);
  return st;
#else
  (void)num_functions;
  return nullptr;
#endif
}

}  // namespace jit
}  // namespace wasm
