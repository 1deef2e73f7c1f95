// Async syscall offload seam (the "park at the WALI boundary" path).
//
// A blocking-capable syscall handler that can offload does not block its
// worker thread: it files a PendingIo on the process — a wait (IoOp) the
// host's completion loop can serve without knowing anything about WALI or
// guest memory — and the dispatch wrapper records the syscall itself as
// the thin interface sees it (registry id plus six argument words) and
// unwinds the interpreter with wasm::TrapKind::kSyscallPending. The host
// supervisor registers the IoOp with its IoBackend (host::IoReactor,
// host::IoUringBackend, or a deterministic fake in tests), parks the job
// off-worker, and on completion asks WaliRuntime::FinishPark for the
// syscall result — a sleep carries it in the op, a poll-set wait
// re-dispatches the recorded syscall, now prompt — and materializes it
// into the suspended guest frame via WaliRuntime::ResumeMain. A park is
// plain data end to end.
//
// There are two waits: a sleep, or a poll set. A backend reports only how
// the wait ended (ready, timed out, or an -errno when it cannot wait at
// all); FinishPark is the only source of a parked syscall's result.
//
// A handler parks only when the syscall would block. A park is a full
// round trip through the host, and the kernel answers a ready fd at once,
// so fd-class handlers go through WaliCtx::ParkIfWouldBlock: a zero-timeout
// poll(2) probe (kernel time, not a guest syscall) and a park only when the
// op's events are not ready. A ready fd, HUP and ERR included, takes the
// blocking path now — the code a resumed park runs — and zero-length
// transfers never park. poll/ppoll probe the guest's own set the same way.
// POLLOUT promises room for some bytes, not for a whole large buffer, so a
// big blocking write can still hold a worker, as a resumed write could.
//
// This header is intentionally tiny and dependency-free: it is the whole
// contract between the WALI syscall layer and the host completion loop.
#ifndef SRC_WALI_ASYNC_H_
#define SRC_WALI_ASYNC_H_

#include <cstdint>
#include <vector>

namespace wali {

// One offloadable blocking operation: a wait, and nothing else. The
// completion loop only ever needs "this much time elapsed" or "one of these
// fds has one of these events" — the syscall itself is re-dispatched from
// its recorded number and args once the op is ready, so completion loops
// never touch guest state and never produce a syscall result.
struct IoOp {
  // Serialized values are fixed (snapshot host blob): 0, 1 and 5.
  enum class Kind : uint8_t {
    kNone = 0,
    kSleep = 1,  // elapse `sleep_nanos`; the syscall's answer is `result`
    // Wait until ANY entry of `poll_fds` has readiness matching its events
    // mask (poll(2) semantics: error/hup/nval always count, negative fds
    // are skipped). A single-fd read/write/accept/connect wait is a
    // one-member set; a poll/ppoll parks on its whole set, dual-interest
    // (POLLIN|POLLOUT) members included. The re-dispatched syscall reads
    // the kernel's answer; fd-class parks are never snapshot-eligible, so
    // poll_fds needs no serialized form.
    kPollSet = 5,
  };

  // One member of a kPollSet: the fd and its requested events mask, exactly
  // as in struct pollfd (revents are materialized at resume, never here).
  struct PollFd {
    int fd = -1;
    short events = 0;
  };

  Kind kind = Kind::kNone;
  int64_t sleep_nanos = 0;  // kSleep: relative duration
  // kPollSet: the op's own timeout (poll(2) semantics), relative; < 0 means
  // wait forever. On expiry the op completes kTimedOut and the re-dispatched
  // syscall (e.g. poll with timeout 0) yields the timeout answer.
  int64_t timeout_nanos = -1;
  // kSleep: the syscall's result once the sleep elapses (0 for nanosleep,
  // -ETIMEDOUT for the threadless futex timer, the handler's own answer for
  // the WaliProcess::park_after_syscalls test hook's Sleep(0, ret)).
  int64_t result = 0;
  std::vector<PollFd> poll_fds;  // kPollSet: the interest set

  // Fd-class ops resume by re-dispatching the parked syscall against the
  // live fd table, so they are not pure data to a snapshot. A sleep
  // completes with `result`.
  bool fd_class() const { return kind == Kind::kPollSet; }

  static IoOp Sleep(int64_t nanos, int64_t result = 0) {
    IoOp op;
    op.kind = Kind::kSleep;
    op.sleep_nanos = nanos;
    op.result = result;
    return op;
  }
  static IoOp PollSet(std::vector<PollFd> fds, int64_t timeout_nanos = -1) {
    IoOp op;
    op.kind = Kind::kPollSet;
    op.poll_fds = std::move(fds);
    op.timeout_nanos = timeout_nanos;
    return op;
  }
};

// The park request one syscall files instead of blocking. Owned by the
// WaliProcess; armed by a handler (via WaliCtx::Park), completed by the
// dispatch wrapper with the syscall's identity, consumed by the host
// supervisor when the interpreter unwinds with kSyscallPending. At most one
// is armed per process at a time — the main invocation is suspended the
// moment it is filed.
struct PendingIo {
  bool armed = false;
  IoOp op;
  // The parked syscall as the thin interface sees it: registry id and its
  // six argument words. Fd-class ops resume by re-dispatching exactly this
  // (WaliRuntime::FinishPark); timer-class ops never look at it.
  int syscall_id = -1;
  int64_t args[6] = {};

  void Reset() { *this = PendingIo(); }
};

}  // namespace wali

#endif  // SRC_WALI_ASYNC_H_
