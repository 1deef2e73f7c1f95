// Deterministic fake-I/O harness for the supervisor's async syscall
// offload: guests entering blocking syscalls park OFF-worker (the worker is
// released), the FakeIoBackend's manual clock and scriptable completions
// drive resume order, and suspended/resumed runs stay bit-identical to
// blocking runs. Fault injection rides the same seam: completions arriving
// after a guest was shed, deadline sheds of parked guests, tenant Forget
// and budget exhaustion mid-park, and supervisor shutdown with parked
// guests — all without real I/O or real time (the sole blocking-baseline
// differential uses a 2ms real sleep). Handlers park only when the syscall
// would block, so a guest that must park talks through fds the test holds
// the far ends of and keeps not ready (PeerPipes); the ready-fd side of
// that rule runs on the real IoReactor.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/host/host.h"
#include "tests/wali_test_util.h"

namespace {

constexpr int64_t kMs = 1000000;

std::string WrapModule(const std::string& body) {
  return std::string("(module ") + wali_test::kPrelude + body + ")";
}

// Sleeps 50ms once, does a little compute, exits 42.
const char* kSleeperGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $i i32)
    (i64.store (i32.const 512) (i64.const 0))
    (i64.store (i32.const 520) (i64.const 50000000))
    (drop (call $nanosleep (i64.const 512) (i64.const 0)))
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 100)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (i32.const 42))
)";

// Two 2ms sleeps with compute between: short enough to run for real as the
// blocking baseline of the differential test.
const char* kTwoSleepGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $i i32) (local $acc i32)
    (i64.store (i32.const 512) (i64.const 0))
    (i64.store (i32.const 520) (i64.const 2000000))
    (drop (call $nanosleep (i64.const 512) (i64.const 0)))
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 500)))
        (local.set $acc (i32.add (local.get $acc) (local.get $i)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (drop (call $nanosleep (i64.const 512) (i64.const 0)))
    (i32.rem_u (local.get $acc) (i32.const 97)))
)";

// `$argfd i` parses argv[i], written by FdArg, as an fd number. Guests
// that must genuinely wait talk through fds whose far ends the test holds.
const char* kArgFdFunc = R"(
  (func $argfd (param $i i64) (result i64)
    (local $fd i64) (local $k i32)
    (drop (call $copy_argv (i64.const 128) (local.get $i)))
    (block $done
      (loop $digit
        (br_if $done (i32.ge_u (local.get $k) (i32.const 4)))
        (local.set $fd
          (i64.add (i64.mul (local.get $fd) (i64.const 10))
                   (i64.extend_i32_u
                     (i32.sub (i32.load8_u (i32.add (i32.const 128) (local.get $k)))
                              (i32.const 48)))))
        (local.set $k (i32.add (local.get $k) (i32.const 1)))
        (br $digit)))
    (local.get $fd))
)";

// Pipe round trip through the test: write one byte into argv[1] (a full
// pipe, so it parks on POLLOUT until the test drains it), read it back from
// argv[2] (an empty pipe, so it parks on POLLIN until the test forwards the
// byte), exit with the byte.
const std::string kPipeGuest = std::string(kArgFdFunc) + R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $wfd i64) (local $rfd i64) (local $r i64)
    (local.set $wfd (call $argfd (i64.const 1)))
    (local.set $rfd (call $argfd (i64.const 2)))
    (i32.store8 (i32.const 1024) (i32.const 77))
    (drop (call $write (local.get $wfd) (i64.const 1024) (i64.const 1)))
    (local.set $r (call $read (local.get $rfd) (i64.const 2048) (i64.const 1)))
    (if (i64.ne (local.get $r) (i64.const 1))
      (then (return (i32.const 255))))
    (i32.load8_u (i32.const 2048)))
)";

// Non-blocking I/O must NOT park: O_NONBLOCK pipe (pipe2 flag 0x800) read
// returns -EAGAIN (-11) inline, and poll with timeout 0 returns 0 inline.
// Exits 9 only if both answers match the blocking-path contract.
const char* kNonBlockGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $rfd i64)
    (drop (call $pipe2 (i64.const 256) (i64.const 2048)))  ;; O_NONBLOCK
    (local.set $rfd (i64.load32_s (i32.const 256)))
    (if (i64.ne (call $read (local.get $rfd) (i64.const 1024) (i64.const 1))
                (i64.const -11))
      (then (return (i32.const 1))))
    ;; pollfd at 512: fd, events=POLLIN(1), revents
    (i32.store (i32.const 512) (i32.wrap_i64 (local.get $rfd)))
    (i32.store16 (i32.const 516) (i32.const 1))
    (if (i64.ne (call $poll (i64.const 512) (i64.const 1) (i64.const 0))
                (i64.const 0))
      (then (return (i32.const 2))))
    (i32.const 9))
)";

// ppoll on an empty pipe with a 50ms timespec: musl's poll(3) shape. Must
// park (kPollSet) instead of pinning a worker in the kernel; the timeout
// completion's re-dispatch polls with timeout 0 and reports 0 ready fds.
const char* kPpollSleeperGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $rfd i64) (local $r i64)
    (drop (call $pipe2 (i64.const 256) (i64.const 0)))
    (local.set $rfd (i64.load32_s (i32.const 256)))
    ;; pollfd at 512: fd, events=POLLIN(1)
    (i32.store (i32.const 512) (i32.wrap_i64 (local.get $rfd)))
    (i32.store16 (i32.const 516) (i32.const 1))
    ;; timespec at 528: 50ms
    (i64.store (i32.const 528) (i64.const 0))
    (i64.store (i32.const 536) (i64.const 50000000))
    (local.set $r (call $ppoll (i64.const 512) (i64.const 1) (i64.const 528)
                               (i64.const 0) (i64.const 8)))
    (if (i64.ne (local.get $r) (i64.const 0))
      (then (return (i32.const 255))))
    (i32.const 21))
)";

// poll with events = POLLIN|POLLOUT on the socket in argv[1], 1s timeout.
// The test fills the socket's send buffer first and sends nothing, so the
// park must carry BOTH interests; once the test drains the far end the
// socket is writable, the resumed poll materializes revents = POLLOUT and
// the guest exits with it (4).
const std::string kDualInterestPollGuest = std::string(kArgFdFunc) + R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $fd i64) (local $r i64)
    (local.set $fd (call $argfd (i64.const 1)))
    ;; pollfd at 512: fd, events = POLLIN|POLLOUT = 5
    (i32.store (i32.const 512) (i32.wrap_i64 (local.get $fd)))
    (i32.store16 (i32.const 516) (i32.const 5))
    (local.set $r (call $poll (i64.const 512) (i64.const 1) (i64.const 1000)))
    (if (i64.ne (local.get $r) (i64.const 1))
      (then (return (i32.const 251))))
    (i32.load16_u (i32.const 518)))
)";

// Plain FUTEX_WAIT with a 50ms timeout in a threadless process: value
// mismatch answers -EAGAIN inline; a matching value parks as a pure timer
// whose result is -ETIMEDOUT, exactly as the kernel would answer.
const char* kFutexWaitGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $r i64)
    (i32.store (i32.const 1024) (i32.const 7))
    ;; timespec at 528: 50ms
    (i64.store (i32.const 528) (i64.const 0))
    (i64.store (i32.const 536) (i64.const 50000000))
    (local.set $r (call $futex (i64.const 1024) (i64.const 0) (i64.const 8)
                               (i64.const 528) (i64.const 0) (i64.const 0)))
    (if (i64.ne (local.get $r) (i64.const -11))
      (then (return (i32.const 252))))
    (local.set $r (call $futex (i64.const 1024) (i64.const 0) (i64.const 7)
                               (i64.const 528) (i64.const 0) (i64.const 0)))
    (if (i64.ne (local.get $r) (i64.const -110))
      (then (return (i32.const 253))))
    (i32.const 31))
)";

// writev then readv through the test's pipes (argv[1] full, argv[2]
// empty, as for kPipeGuest), two single-byte iovecs each: both park on
// their readiness class and the resumed calls re-translate the iovec
// arrays against live memory. Exits 40 + 2 = 42.
const std::string kVectoredPipeGuest = std::string(kArgFdFunc) + R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $wfd i64) (local $rfd i64) (local $r i64)
    (local.set $wfd (call $argfd (i64.const 1)))
    (local.set $rfd (call $argfd (i64.const 2)))
    (i32.store8 (i32.const 1024) (i32.const 40))
    (i32.store8 (i32.const 1025) (i32.const 2))
    ;; iov at 768: [{1024,1},{1025,1}]
    (i32.store (i32.const 768) (i32.const 1024))
    (i32.store (i32.const 772) (i32.const 1))
    (i32.store (i32.const 776) (i32.const 1025))
    (i32.store (i32.const 780) (i32.const 1))
    (local.set $r (call $writev (local.get $wfd) (i64.const 768) (i64.const 2)))
    (if (i64.ne (local.get $r) (i64.const 2))
      (then (return (i32.const 254))))
    ;; iov at 832: [{2048,1},{2049,1}]
    (i32.store (i32.const 832) (i32.const 2048))
    (i32.store (i32.const 836) (i32.const 1))
    (i32.store (i32.const 840) (i32.const 2049))
    (i32.store (i32.const 844) (i32.const 1))
    (local.set $r (call $readv (local.get $rfd) (i64.const 832) (i64.const 2)))
    (if (i64.ne (local.get $r) (i64.const 2))
      (then (return (i32.const 253))))
    (i32.add (i32.load8_u (i32.const 2048)) (i32.load8_u (i32.const 2049))))
)";

// TCP loopback connect: bind+listen on 127.0.0.1:0, learn the port via
// getsockname, then connect a second socket to it. Nonblocking TCP connect
// always answers -EINPROGRESS, so the connect parks (on POLLOUT) and the
// resumed call reads the outcome from SO_ERROR.
const char* kConnectGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $ls i64) (local $cs i64) (local $r i64)
    (local.set $ls (call $socket (i64.const 2) (i64.const 1) (i64.const 0)))
    (if (i64.lt_s (local.get $ls) (i64.const 0))
      (then (return (i32.const 240))))
    ;; sockaddr_in at 512: family=2, port=0, addr=127.0.0.1
    (i32.store16 (i32.const 512) (i32.const 2))
    (i32.store16 (i32.const 514) (i32.const 0))
    (i32.store (i32.const 516) (i32.const 0x0100007f))
    (i64.store (i32.const 520) (i64.const 0))
    (if (i64.ne (call $bind (local.get $ls) (i64.const 512) (i64.const 16))
                (i64.const 0))
      (then (return (i32.const 241))))
    (if (i64.ne (call $listen (local.get $ls) (i64.const 8)) (i64.const 0))
      (then (return (i32.const 242))))
    ;; learn the bound port: getsockname into 544 (len at 576 = 16)
    (i32.store (i32.const 576) (i32.const 16))
    (if (i64.ne (call $getsockname (local.get $ls) (i64.const 544)
                                   (i64.const 576))
                (i64.const 0))
      (then (return (i32.const 243))))
    (local.set $cs (call $socket (i64.const 2) (i64.const 1) (i64.const 0)))
    (if (i64.lt_s (local.get $cs) (i64.const 0))
      (then (return (i32.const 244))))
    (local.set $r (call $connect (local.get $cs) (i64.const 544) (i64.const 16)))
    (if (i64.ne (local.get $r) (i64.const 0))
      (then (return (i32.const 245))))
    (i32.const 52))
)";

// 64 round trips of 64 bytes with a peer over the socket in argv[1]. The
// peer (PingPongPeer) keeps the socket's send buffer full until each write
// has parked, and answers each read only after it has parked: every write
// parks (on POLLOUT) and every read parks (on POLLIN), 128 parks in all.
// Exits 0.
const std::string kPingPongGuest = std::string(kArgFdFunc) + R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $fd i64) (local $i i32)
    (local.set $fd (call $argfd (i64.const 1)))
    (block $done
      (loop $next
        (br_if $done (i32.ge_u (local.get $i) (i32.const 64)))
        (if (i64.ne (call $write (local.get $fd) (i64.const 1024) (i64.const 64))
                    (i64.const 64))
          (then (return (i32.const 1))))
        (if (i64.ne (call $read (local.get $fd) (i64.const 2048) (i64.const 64))
                    (i64.const 64))
          (then (return (i32.const 2))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $next)))
    (i32.const 0))
)";

// O_NONBLOCK pipe (its I/O never parks): write one byte, sleep 50ms (parks
// as a timer, so it can be evicted), then read the byte back. Exits with
// the byte (77), or with the read's errno when the fd did not survive.
const char* kPipeAcrossSleepGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $rfd i64) (local $wfd i64) (local $r i64)
    (drop (call $pipe2 (i64.const 256) (i64.const 2048)))
    (local.set $rfd (i64.load32_s (i32.const 256)))
    (local.set $wfd (i64.load32_s (i32.const 260)))
    (i32.store8 (i32.const 1024) (i32.const 77))
    (drop (call $write (local.get $wfd) (i64.const 1024) (i64.const 1)))
    (i64.store (i32.const 512) (i64.const 0))
    (i64.store (i32.const 520) (i64.const 50000000))
    (drop (call $nanosleep (i64.const 512) (i64.const 0)))
    (local.set $r (call $read (local.get $rfd) (i64.const 2048) (i64.const 1)))
    (if (i64.ne (local.get $r) (i64.const 1))
      (then (return (i32.wrap_i64 (i64.sub (i64.const 0) (local.get $r))))))
    (i32.load8_u (i32.const 2048)))
)";

// Pure compute, no syscalls: used to burn tenant fuel deterministically.
const char* kBurnGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $i i32)
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 20000)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (i32.const 0))
)";

// Zero-length transfers: read/readv of nothing from the guest's own empty
// pipe, write/writev of nothing into the full pipe in argv[1]. The kernel
// answers each with 0 at once, though neither pipe is ready. Exits 9 when
// all four do.
const std::string kZeroLengthGuest = std::string(kArgFdFunc) + R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $rfd i64) (local $wfd i64)
    (drop (call $pipe2 (i64.const 256) (i64.const 0)))
    (local.set $rfd (i64.load32_s (i32.const 256)))
    (local.set $wfd (call $argfd (i64.const 1)))
    (if (i64.ne (call $read (local.get $rfd) (i64.const 1024) (i64.const 0))
                (i64.const 0))
      (then (return (i32.const 1))))
    ;; iov at 768: [{1024,0}]
    (i32.store (i32.const 768) (i32.const 1024))
    (i32.store (i32.const 772) (i32.const 0))
    (if (i64.ne (call $readv (local.get $rfd) (i64.const 768) (i64.const 1))
                (i64.const 0))
      (then (return (i32.const 2))))
    (if (i64.ne (call $write (local.get $wfd) (i64.const 1024) (i64.const 0))
                (i64.const 0))
      (then (return (i32.const 3))))
    (if (i64.ne (call $writev (local.get $wfd) (i64.const 768) (i64.const 0))
                (i64.const 0))
      (then (return (i32.const 4))))
    (i32.const 9))
)";

// Every fd-class park site, each finding its op ready: write/writev into an
// empty socketpair, read/readv of the queued bytes, poll and ppoll with a
// timeout on a writable member, accept and accept4 with a pending
// connection, a read whose peer has closed (EOF: HUP counts as ready), and
// a read of a guest-set O_NONBLOCK pipe (-EAGAIN). Exits 42 when every
// answer matches the blocking path's; otherwise the failing step's number.
const char* kReadyIoGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $s0 i64) (local $s1 i64) (local $ls i64)
    (if (i64.ne (call $socketpair (i64.const 1) (i64.const 1) (i64.const 0)
                                  (i64.const 256))
                (i64.const 0))
      (then (return (i32.const 1))))
    (local.set $s0 (i64.load32_s (i32.const 256)))
    (local.set $s1 (i64.load32_s (i32.const 260)))
    (i64.store (i32.const 1024) (i64.const 0x0102030405060708))
    (i64.store (i32.const 1032) (i64.const 0x1112131415161718))
    (if (i64.ne (call $write (local.get $s0) (i64.const 1024) (i64.const 8))
                (i64.const 8))
      (then (return (i32.const 2))))
    ;; iov at 768: [{1032,4},{1036,4}]
    (i32.store (i32.const 768) (i32.const 1032))
    (i32.store (i32.const 772) (i32.const 4))
    (i32.store (i32.const 776) (i32.const 1036))
    (i32.store (i32.const 780) (i32.const 4))
    (if (i64.ne (call $writev (local.get $s0) (i64.const 768) (i64.const 2))
                (i64.const 8))
      (then (return (i32.const 3))))
    (if (i64.ne (call $read (local.get $s1) (i64.const 2048) (i64.const 8))
                (i64.const 8))
      (then (return (i32.const 4))))
    ;; iov at 832: [{2056,4},{2060,4}]
    (i32.store (i32.const 832) (i32.const 2056))
    (i32.store (i32.const 836) (i32.const 4))
    (i32.store (i32.const 840) (i32.const 2060))
    (i32.store (i32.const 844) (i32.const 4))
    (if (i64.ne (call $readv (local.get $s1) (i64.const 832) (i64.const 2))
                (i64.const 8))
      (then (return (i32.const 5))))
    (if (i64.ne (i64.load (i32.const 2048)) (i64.load (i32.const 1024)))
      (then (return (i32.const 6))))
    (if (i64.ne (i64.load (i32.const 2056)) (i64.load (i32.const 1032)))
      (then (return (i32.const 7))))
    ;; pollfd at 512: s0, events = POLLOUT; 1 s timeout
    (i32.store (i32.const 512) (i32.wrap_i64 (local.get $s0)))
    (i32.store16 (i32.const 516) (i32.const 4))
    (if (i64.ne (call $poll (i64.const 512) (i64.const 1) (i64.const 1000))
                (i64.const 1))
      (then (return (i32.const 8))))
    (if (i32.ne (i32.load16_u (i32.const 518)) (i32.const 4))
      (then (return (i32.const 9))))
    ;; timespec at 528: 1 s
    (i64.store (i32.const 528) (i64.const 1))
    (i64.store (i32.const 536) (i64.const 0))
    (if (i64.ne (call $ppoll (i64.const 512) (i64.const 1) (i64.const 528)
                             (i64.const 0) (i64.const 8))
                (i64.const 1))
      (then (return (i32.const 10))))
    ;; a unix listener, autobound (sockaddr at 576 holds only AF_UNIX)
    (local.set $ls (call $socket (i64.const 1) (i64.const 1) (i64.const 0)))
    (i32.store16 (i32.const 576) (i32.const 1))
    (if (i64.ne (call $bind (local.get $ls) (i64.const 576) (i64.const 2))
                (i64.const 0))
      (then (return (i32.const 11))))
    (if (i64.ne (call $listen (local.get $ls) (i64.const 4)) (i64.const 0))
      (then (return (i32.const 12))))
    ;; its address into 576, length at 700
    (i32.store (i32.const 700) (i32.const 110))
    (if (i64.ne (call $getsockname (local.get $ls) (i64.const 576) (i64.const 700))
                (i64.const 0))
      (then (return (i32.const 13))))
    (if (i64.ne (call $connect (call $socket (i64.const 1) (i64.const 1) (i64.const 0))
                               (i64.const 576) (i64.load32_u (i32.const 700)))
                (i64.const 0))
      (then (return (i32.const 14))))
    (if (i64.lt_s (call $accept (local.get $ls) (i64.const 0) (i64.const 0))
                  (i64.const 0))
      (then (return (i32.const 15))))
    (if (i64.ne (call $connect (call $socket (i64.const 1) (i64.const 1) (i64.const 0))
                               (i64.const 576) (i64.load32_u (i32.const 700)))
                (i64.const 0))
      (then (return (i32.const 16))))
    (if (i64.lt_s (call $accept4 (local.get $ls) (i64.const 0) (i64.const 0)
                                 (i64.const 0))
                  (i64.const 0))
      (then (return (i32.const 17))))
    (drop (call $close (local.get $s0)))
    (if (i64.ne (call $read (local.get $s1) (i64.const 2048) (i64.const 8))
                (i64.const 0))
      (then (return (i32.const 18))))
    ;; pipe2 at 720 with O_NONBLOCK
    (drop (call $pipe2 (i64.const 720) (i64.const 2048)))
    (if (i64.ne (call $read (i64.load32_s (i32.const 720)) (i64.const 2048)
                            (i64.const 8))
                (i64.const -11))
      (then (return (i32.const 19))))
    (i32.const 42))
)";

struct ManualClock {
  std::shared_ptr<std::atomic<int64_t>> now =
      std::make_shared<std::atomic<int64_t>>(0);

  std::function<int64_t()> fn() const {
    auto n = now;
    return [n] { return n->load(std::memory_order_acquire); };
  }
  void Advance(int64_t nanos) { now->fetch_add(nanos, std::memory_order_acq_rel); }
};

struct IoWorld {
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wali::WaliRuntime> runtime;
  std::unique_ptr<host::ModuleCache> cache;
  // Owned via pointer (mutex members make the backend immovable);
  // declared before sup so it is destroyed after the supervisor detaches.
  std::unique_ptr<host::FakeIoBackend> fake =
      std::make_unique<host::FakeIoBackend>();
  std::unique_ptr<host::Supervisor> sup;
  ManualClock clock;
};

IoWorld MakeIoWorld(size_t workers, bool with_backend = true,
                    wasm::DispatchMode dispatch = wasm::DispatchMode::kAuto) {
  IoWorld w;
  w.linker = std::make_unique<wasm::Linker>();
  wali::WaliRuntime::Options ropts;
  ropts.dispatch = dispatch;
  w.runtime = std::make_unique<wali::WaliRuntime>(w.linker.get(), ropts);
  w.cache = std::make_unique<host::ModuleCache>();
  host::Supervisor::Options opts;
  opts.workers = workers;
  opts.clock = w.clock.fn();
  opts.pool.max_idle_per_module = workers;
  if (with_backend) {
    opts.io_backend = w.fake.get();
  }
  w.sup = std::make_unique<host::Supervisor>(w.runtime.get(), opts);
  return w;
}

host::GuestJob MakeJob(std::shared_ptr<const wasm::Module> module,
                       const std::string& tenant, int64_t deadline = 0) {
  host::GuestJob job;
  job.module = module;
  job.argv = {tenant};
  job.tenant = tenant;
  job.deadline_nanos = deadline;
  return job;
}

// Real threads park asynchronously; bound the wait for the backend to see
// the expected number of pending ops.
bool WaitForPending(const host::FakeIoBackend& fake, size_t n,
                    int timeout_ms = 10000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (fake.pending() == n) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return fake.pending() == n;
}

// Real-backend analogue of WaitForPending: bounds the wait for the
// supervisor to have parked `n` times in all.
bool WaitForParks(const host::Supervisor& sup, uint64_t n,
                  int timeout_ms = 10000) {
  for (int i = 0; i < timeout_ms * 10; ++i) {
    if (sup.io_stats().parks_total >= n) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return sup.io_stats().parks_total >= n;
}

// The argv form `$argfd` parses: four decimal digits.
std::string FdArg(int fd) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d", fd);
  return buf;
}

// Writes filler through `fd` until a write would block, so the next write
// through it genuinely waits. O_NONBLOCK is set only for the fill.
void FillUntilFull(int fd) {
  const int fl = ::fcntl(fd, F_GETFL);
  ASSERT_GE(fl, 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, fl | O_NONBLOCK), 0);
  char buf[4096] = {};
  while (::write(fd, buf, sizeof(buf)) > 0) {
  }
  while (::write(fd, buf, 1) > 0) {
  }
  ASSERT_EQ(::fcntl(fd, F_SETFL, fl), 0);
}

// Reads everything queued on the non-blocking `fd`.
std::string ReadAll(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

// The pipes a kPipeGuest-shaped guest talks through: it writes into `out`,
// full until the test drains it, and reads from `in`, empty until the
// test forwards what the guest wrote. The test's ends are non-blocking;
// the guest's are blocking, so its I/O parks.
struct PeerPipes {
  int out[2] = {-1, -1};
  int in[2] = {-1, -1};

  PeerPipes() {
    EXPECT_EQ(::pipe(out), 0);
    EXPECT_EQ(::pipe(in), 0);
    EXPECT_EQ(::fcntl(out[0], F_SETFL, O_NONBLOCK), 0);
    EXPECT_EQ(::fcntl(in[1], F_SETFL, O_NONBLOCK), 0);
    FillUntilFull(out[1]);
  }
  ~PeerPipes() {
    for (int fd : {out[0], out[1], in[0], in[1]}) ::close(fd);
  }
  std::vector<std::string> Argv() const {
    return {"t", FdArg(out[1]), FdArg(in[0])};
  }
  // Empties `out`: the guest's parked write can go through.
  void Drain() { ReadAll(out[0]); }
  // Moves what the guest wrote into `in`: its parked read can go through.
  void Forward() {
    std::string bytes = ReadAll(out[0]);
    ASSERT_EQ(::write(in[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
};

host::GuestJob PeerJob(std::shared_ptr<const wasm::Module> module,
                       std::vector<std::string> argv) {
  host::GuestJob job = MakeJob(std::move(module), "t");
  job.argv = std::move(argv);
  return job;
}

// A single-fd wait (read, write, accept, connect) parks as a one-member
// poll set. Checks the kind, the size and the events mask, and returns the
// member's fd (-1 when the op is not a one-member set).
int OnePollFd(const wali::IoOp& op, short events) {
  EXPECT_EQ(op.kind, wali::IoOp::Kind::kPollSet);
  EXPECT_EQ(op.poll_fds.size(), 1u);
  if (op.poll_fds.size() != 1) return -1;
  EXPECT_EQ(op.poll_fds[0].events, events);
  return op.poll_fds[0].fd;
}

TEST(HostIo, ParkedSleepReleasesWorkerAndResumes) {
  IoWorld w = MakeIoWorld(/*workers=*/1);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok()) << sleeper.status().ToString();
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  EXPECT_EQ(w.sup->parked(), 1u);
  EXPECT_EQ(slept.wait_for(std::chrono::seconds(0)), std::future_status::timeout);

  // The single worker is free while the sleeper is parked: an unrelated job
  // runs to completion with the sleeper still blocked.
  host::RunReport quick = w.sup->Submit(MakeJob(*burner, "t")).get();
  EXPECT_TRUE(quick.completed());
  EXPECT_EQ(w.sup->parked(), 1u);

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = slept.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 42);
  EXPECT_EQ(r.parks, 1u);
  EXPECT_EQ(r.total_syscalls, 1u);
  host::Supervisor::IoStats s = w.sup->io_stats();
  EXPECT_EQ(s.parks_total, 1u);
  EXPECT_EQ(s.resumes_total, 1u);
  EXPECT_EQ(s.parked_now, 0u);
}

TEST(HostIo, SixtyFourGuestsInFlightOnFourWorkers) {
  // The acceptance bar: 64 guests blocked on a fake sleep, 4 workers — all
  // 64 in flight concurrently, and ONE 50ms clock advance completes them
  // all (the deterministic analogue of "~1 sleep-duration wall-clock").
  constexpr size_t kGuests = 64;
  constexpr size_t kWorkers = 4;
  IoWorld w = MakeIoWorld(kWorkers);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::vector<std::future<host::RunReport>> futures;
  for (size_t i = 0; i < kGuests; ++i) {
    futures.push_back(w.sup->Submit(MakeJob(*module, "t" + std::to_string(i % 8))));
  }
  ASSERT_TRUE(WaitForPending(*w.fake, kGuests))
      << "all guests must park concurrently; pending=" << w.fake->pending();

  host::Supervisor::IoStats s = w.sup->io_stats();
  EXPECT_EQ(s.parked_now, kGuests);
  EXPECT_EQ(s.in_flight_now, kGuests);
  EXPECT_GT(s.peak_in_flight, kWorkers)
      << "parked guests must not hold workers 1:1";
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  }

  w.fake->AdvanceBy(50 * kMs);
  for (auto& f : futures) {
    host::RunReport r = f.get();
    EXPECT_TRUE(r.completed()) << r.trap_message;
    EXPECT_EQ(r.exit_code, 42);
    EXPECT_EQ(r.parks, 1u);
  }
  s = w.sup->io_stats();
  EXPECT_EQ(s.peak_in_flight, kGuests);
  EXPECT_EQ(s.parks_total, kGuests);
  EXPECT_EQ(s.resumes_total, kGuests);
  EXPECT_EQ(s.parked_now, 0u);
  EXPECT_EQ(s.in_flight_now, 0u);
}

TEST(HostIo, SuspendedRunBitIdenticalToBlockingRun) {
  // The cross-stack differential: the same guest under (a) the synchronous
  // 1:1 model with REAL 2ms kernel sleeps and (b) the fake-I/O offload
  // path must agree bit-for-bit on executed_instrs, fuel_consumed, syscall
  // counts, and exit code — across both dispatch modes.
  for (wasm::DispatchMode mode :
       {wasm::DispatchMode::kSwitch, wasm::DispatchMode::kThreaded}) {
    SCOPED_TRACE(wasm::DispatchModeName(mode));
    IoWorld blocking = MakeIoWorld(1, /*with_backend=*/false, mode);
    auto m1 = blocking.cache->Load(WrapModule(kTwoSleepGuest));
    ASSERT_TRUE(m1.ok()) << m1.status().ToString();
    host::RunReport want = blocking.sup->Submit(MakeJob(*m1, "t")).get();
    ASSERT_TRUE(want.completed()) << want.trap_message;
    EXPECT_EQ(want.parks, 0u);

    IoWorld offload = MakeIoWorld(1, /*with_backend=*/true, mode);
    auto m2 = offload.cache->Load(WrapModule(kTwoSleepGuest));
    ASSERT_TRUE(m2.ok());
    std::future<host::RunReport> fut = offload.sup->Submit(MakeJob(*m2, "t"));
    for (int park = 0; park < 2; ++park) {
      ASSERT_TRUE(WaitForPending(*offload.fake, 1)) << "park " << park;
      offload.fake->AdvanceBy(2 * kMs);
    }
    host::RunReport got = fut.get();
    ASSERT_TRUE(got.completed()) << got.trap_message;
    EXPECT_EQ(got.parks, 2u);

    EXPECT_EQ(got.exit_code, want.exit_code);
    EXPECT_EQ(got.executed_instrs, want.executed_instrs);
    EXPECT_EQ(got.fuel_consumed, want.fuel_consumed);
    EXPECT_EQ(got.total_syscalls, want.total_syscalls);
    ASSERT_EQ(got.syscall_counts.size(), want.syscall_counts.size());
    for (size_t i = 0; i < want.syscall_counts.size(); ++i) {
      EXPECT_EQ(got.syscall_counts[i], want.syscall_counts[i]);
    }
  }
}

TEST(HostIo, PipeRoundTripThroughScriptedCompletions) {
  // Write parks on {out, POLLOUT} of a full pipe, read parks on
  // {in, POLLIN} of an empty one; the test drives the completion ORDER and the re-dispatches
  // perform the real, now-ready syscalls.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kPipeGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  PeerPipes pipes;

  std::future<host::RunReport> fut = w.sup->Submit(PeerJob(*module, pipes.Argv()));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  ASSERT_EQ(cookies.size(), 1u);
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(OnePollFd(op, POLLOUT), pipes.out[1]);
  pipes.Drain();
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));  // pipe has space: re-dispatched write

  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  cookies = w.fake->PendingCookies();
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(OnePollFd(op, POLLIN), pipes.in[0]);
  pipes.Forward();
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));  // byte is there: re-dispatched read

  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 77);
  EXPECT_EQ(r.parks, 2u);
}

TEST(HostIo, ResumedReadTakesTheKernelsAnswer) {
  // A completion says only that the wait ended; the kernel answers the
  // re-dispatched syscall. Here the peer closes its end while the read is
  // parked, so the resumed read sees EOF: read() != 1, and the guest exits
  // 255.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kPipeGuest));
  ASSERT_TRUE(module.ok());
  PeerPipes pipes;

  std::future<host::RunReport> fut = w.sup->Submit(PeerJob(*module, pipes.Argv()));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  pipes.Drain();
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));  // write proceeds
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  cookies = w.fake->PendingCookies();
  ::close(pipes.in[1]);
  pipes.in[1] = -1;
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 255);
  EXPECT_EQ(r.parks, 2u);
}

TEST(HostIo, PpollSleeperParksInsteadOfPinningWorker) {
  // Regression: SysPpoll used to bypass the offload gate entirely, so a
  // musl guest (whose poll(3) IS ppoll) pinned a worker in the kernel for
  // the full timeout. It must park like poll does. Pre-fix this test hangs
  // at WaitForPending: the fake backend never sees an op.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kPpollSleeperGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1))
      << "ppoll must offload, not block a worker";
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  ASSERT_EQ(cookies.size(), 1u);
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(op.kind, wali::IoOp::Kind::kPollSet);
  ASSERT_EQ(op.poll_fds.size(), 1u);
  EXPECT_EQ(op.poll_fds[0].events, POLLIN);
  EXPECT_EQ(op.timeout_nanos, 50 * kMs);

  w.fake->AdvanceBy(50 * kMs);  // kTimedOut: resumed ppoll uses timeout 0
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 21);
  EXPECT_EQ(r.parks, 1u);
}

TEST(HostIo, DualInterestPollParksOnUnionOfInterests) {
  // Regression: the single-fd fast path only understood "POLLIN xor
  // POLLOUT", so events = POLLIN|POLLOUT either refused to park or parked
  // on readability alone and slept to the full timeout on a
  // writable-but-silent socket. The park must carry BOTH interests and the
  // resumed poll must surface the kernel's revents (POLLOUT here).
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kDualInterestPollGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::fcntl(sv[1], F_SETFL, O_NONBLOCK), 0);
  FillUntilFull(sv[0]);  // neither readable nor writable: the poll must wait

  std::future<host::RunReport> fut =
      w.sup->Submit(PeerJob(*module, {"t", FdArg(sv[0])}));
  ASSERT_TRUE(WaitForPending(*w.fake, 1))
      << "dual-interest poll must still offload";
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  ASSERT_EQ(cookies.size(), 1u);
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  ASSERT_EQ(op.kind, wali::IoOp::Kind::kPollSet);
  ASSERT_EQ(op.poll_fds.size(), 1u);
  EXPECT_EQ(op.poll_fds[0].events, POLLIN | POLLOUT)
      << "the parked op must keep the union of interests";

  ReadAll(sv[1]);
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));  // socket is writable
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, POLLOUT) << "guest exits with materialized revents";
  EXPECT_EQ(r.parks, 1u);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(HostIo, FutexWaitParksAsTimer) {
  // A threadless FUTEX_WAIT with a timeout has no possible waker, so it is
  // a pure timer: value mismatch answers -EAGAIN inline (no park), a match
  // parks as kSleep whose result is -ETIMEDOUT.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kFutexWaitGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(op.kind, wali::IoOp::Kind::kSleep);
  EXPECT_EQ(op.sleep_nanos, 50 * kMs);

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 31);
  EXPECT_EQ(r.parks, 1u) << "the -EAGAIN probe must answer inline";
}

TEST(HostIo, VectoredPipeIoParksAndRetranslates) {
  // readv/writev park on the same one-member poll sets as read/write; the
  // resumed call re-translates the guest iovec array against live memory
  // at resume time.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kVectoredPipeGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  PeerPipes pipes;

  std::future<host::RunReport> fut = w.sup->Submit(PeerJob(*module, pipes.Argv()));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(OnePollFd(op, POLLOUT), pipes.out[1]);
  pipes.Drain();
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));  // pipe has space

  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  cookies = w.fake->PendingCookies();
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_EQ(OnePollFd(op, POLLIN), pipes.in[0]);
  pipes.Forward();
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));  // both bytes are there

  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 42);
  EXPECT_EQ(r.parks, 2u);
}

TEST(HostIo, ConnectParksUntilEstablished) {
  // Nonblocking TCP connect answers -EINPROGRESS even on loopback; the
  // handler must park on writability and read the outcome from SO_ERROR
  // instead of holding a worker through the handshake.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kConnectGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1))
      << "connect must offload instead of blocking";
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(cookies[0], &op));
  EXPECT_GE(OnePollFd(op, POLLOUT), 0);
  // Loopback handshakes complete in the kernel without our help; SO_ERROR
  // is 0 by the time the resumed connect reads it.
  ASSERT_TRUE(w.fake->CompleteReady(cookies[0]));

  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 52);
  EXPECT_EQ(r.parks, 1u);
}

// The far end of kPingPongGuest's socket, against the real reactor: it
// keeps the guest's send buffer full until each write has parked, and
// answers each read only once it has parked.
void PingPongPeer(const host::Supervisor& sup, int guest_fd, int peer_fd) {
  const char reply[64] = {};
  for (uint64_t round = 0; round < 64; ++round) {
    EXPECT_TRUE(WaitForParks(sup, 2 * round + 1)) << "write " << round;
    ReadAll(peer_fd);
    EXPECT_TRUE(WaitForParks(sup, 2 * round + 2)) << "read " << round;
    FillUntilFull(guest_fd);  // the guest is parked on its read
    ASSERT_EQ(::write(peer_fd, reply, sizeof(reply)), 64);
  }
}

TEST(HostIo, ResumedSyscallTimeStaysInsideWaliSpan) {
  // Regression: resumed syscalls used to charge their kernel time outside
  // any WALI span, so a park-heavy guest reported negative WALI time
  // (which excludes nested kernel time). The re-dispatch now runs inside
  // a span like any dispatch. Real reactor, and a peer that makes every
  // write and read genuinely wait.
  host::IoReactor reactor;
  wasm::Linker linker;
  wali::WaliRuntime runtime(&linker);
  host::ModuleCache cache;
  host::Supervisor::Options opts;
  opts.workers = 1;
  opts.io_backend = &reactor;
  host::Supervisor sup(&runtime, opts);
  auto module = cache.Load(WrapModule(kPingPongGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::fcntl(sv[1], F_SETFL, O_NONBLOCK), 0);
  FillUntilFull(sv[0]);

  std::future<host::RunReport> fut = sup.Submit(PeerJob(*module, {"t", FdArg(sv[0])}));
  std::thread peer(PingPongPeer, std::cref(sup), sv[0], sv[1]);
  host::RunReport r = fut.get();
  peer.join();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.parks, 128u);
  EXPECT_GT(r.kernel_nanos, 0);
  EXPECT_GE(r.wali_nanos, 0);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(HostIo, BlockedTimeIsNotQueueTime) {
  // Regression for the RunReport timing split: a sleeping guest accrues
  // blocked_nanos, NOT queue_nanos — and it does not inflate the queue
  // latency of jobs submitted while it sleeps (the pre-offload failure
  // mode: a parked worker made everyone else queue behind it).
  IoWorld w = MakeIoWorld(1);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  // One full second passes (on the supervisor's clock) while parked.
  w.clock.Advance(1000 * kMs);
  host::RunReport quick = w.sup->Submit(MakeJob(*burner, "t")).get();
  EXPECT_TRUE(quick.completed());
  EXPECT_EQ(quick.queue_nanos, 0)
      << "a parked guest must not make later jobs queue";

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = slept.get();
  EXPECT_TRUE(r.completed());
  EXPECT_EQ(r.queue_nanos, 0) << "queue_nanos must exclude parked time";
  EXPECT_GE(r.blocked_nanos, 1000 * kMs);
  EXPECT_EQ(r.parks, 1u);
}

TEST(HostIo, DeadlineShedsParkedGuestAndOrphanCompletionIsAbsorbed) {
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok());

  // Deadline 10ms from now on the supervisor clock; the guest sleeps 50ms.
  // The park folds the deadline into the backend op, so advancing 10ms
  // fires a timeout completion tagged as a shed.
  std::future<host::RunReport> fut =
      w.sup->Submit(MakeJob(*module, "t", /*deadline=*/10 * kMs));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  ASSERT_EQ(cookies.size(), 1u);
  w.clock.Advance(10 * kMs);
  w.fake->AdvanceBy(10 * kMs);

  host::RunReport r = fut.get();
  EXPECT_EQ(r.outcome, host::Outcome::kShed);
  EXPECT_EQ(r.parks, 1u);
  EXPECT_GT(r.executed_instrs, 0u) << "partial execution is settled, not lost";
  EXPECT_EQ(w.sup->io_stats().sheds_while_parked, 1u);
  // Partial consumption reached the ledger.
  host::TenantUsage u = w.sup->ledger().usage("t");
  EXPECT_EQ(u.shed, 1u);
  EXPECT_GT(u.fuel, 0u);

  // Fault injection: the op's "real" completion arrives AFTER the guest
  // was shed. The supervisor absorbs it as an orphan.
  w.fake->ForceComplete(cookies[0], host::IoCompletion::Ready());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(w.sup->io_stats().orphan_completions, 1u);
  EXPECT_EQ(w.sup->parked(), 0u);
}

TEST(HostIo, TenantForgottenWhileParked) {
  // TenantLedger::Forget with a parked op: the resume settles into a fresh
  // ledger entry; nothing dangles, nothing crashes (ASan holds the line).
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok());

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "gone"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  w.sup->ledger().Forget("gone");
  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  // The post-Forget settle re-created the account with this run's usage.
  host::TenantUsage u = w.sup->ledger().usage("gone");
  EXPECT_EQ(u.runs, 1u);
  EXPECT_GT(u.fuel, 0u);
}

TEST(HostIo, BudgetExhaustedWhileParked) {
  // Tenant budget exhaustion mid-park: while guest A is parked, the tenant
  // accrues usage (guest B) and the control plane lowers its budget below
  // what is already consumed. A's resume re-checks admission and stops with
  // kBudget instead of running on a dead account.
  IoWorld w = MakeIoWorld(1);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  std::future<host::RunReport> parked = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  host::RunReport burn = w.sup->Submit(MakeJob(*burner, "t")).get();
  EXPECT_TRUE(burn.completed());
  ASSERT_GT(w.sup->ledger().usage("t").fuel, 1u);
  host::TenantBudget budget;
  budget.max_fuel = 1;  // now far below the tenant's accrued usage
  w.sup->ledger().SetBudget("t", budget);

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = parked.get();
  EXPECT_EQ(r.outcome, host::Outcome::kBudget);
  EXPECT_EQ(r.parks, 1u);
  EXPECT_EQ(w.sup->io_stats().budget_stops_while_parked, 1u);
}

TEST(HostIo, ShutdownDrainsParkedGuests) {
  // Supervisor shutdown with guests parked in syscalls that will never
  // complete: every future resolves (as shed, with partial accounting),
  // every backend op is cancelled, nothing leaks (the ASan job runs this).
  IoWorld w = MakeIoWorld(2);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok());

  std::vector<std::future<host::RunReport>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(w.sup->Submit(MakeJob(*module, "t" + std::to_string(i))));
  }
  ASSERT_TRUE(WaitForPending(*w.fake, 3));
  w.sup->Shutdown();
  for (auto& f : futures) {
    host::RunReport r = f.get();
    EXPECT_EQ(r.outcome, host::Outcome::kShed);
    EXPECT_GT(r.executed_instrs, 0u);
  }
  EXPECT_EQ(w.fake->pending(), 0u) << "shutdown must cancel parked ops";
  EXPECT_EQ(w.sup->io_stats().in_flight_now, 0u);
}

TEST(HostIo, NonBlockingIoNeverParks) {
  // O_NONBLOCK fds and zero-timeout polls are non-blocking by kernel
  // contract: with offload enabled they must answer inline (-EAGAIN / 0
  // ready fds), never suspend. The guest verifies both answers itself and
  // the report proves no park happened.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kNonBlockGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  host::RunReport r = w.sup->Submit(MakeJob(*module, "t")).get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 9);
  EXPECT_EQ(r.parks, 0u);
  EXPECT_EQ(w.sup->io_stats().parks_total, 0u);
}

TEST(HostIo, ZeroLengthTransfersNeverPark) {
  // Regression: a zero-length read/readv/write/writev is answered 0 by the
  // kernel at once, but the handlers parked it on the fd's readiness, so a
  // 0-byte read from an empty pipe waited for data that might never come.
  // The readiness probe alone would keep that bug: neither pipe here is
  // ready. Nothing completes ops on the fake backend, so a park shows up
  // as a pending op.
  IoWorld w = MakeIoWorld(1);
  auto module = w.cache->Load(WrapModule(kZeroLengthGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  PeerPipes pipes;
  std::future<host::RunReport> fut = w.sup->Submit(PeerJob(*module, pipes.Argv()));
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(w.fake->pending(), 0u) << "a zero-length transfer parked";
    if (fut.wait_for(std::chrono::milliseconds(1)) == std::future_status::ready) {
      break;
    }
  }
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 9);
  EXPECT_EQ(r.parks, 0u);
}

// One tier of the engine: dispatch loop plus JIT setting.
struct Tier {
  const char* name;
  wasm::DispatchMode dispatch;
  wasm::JitTier jit;
};

// Serves one run of `wat` on `tier`, offloading through `backend` (null:
// the blocking 1:1 model). The JIT tiers up at once.
host::RunReport ServeOnce(const std::string& wat, host::IoBackend* backend,
                          const Tier& tier) {
  wasm::Linker linker;
  wali::WaliRuntime::Options ropts;
  ropts.dispatch = tier.dispatch;
  ropts.jit = tier.jit;
  ropts.jit_threshold = 0;
  wali::WaliRuntime runtime(&linker, ropts);
  host::ModuleCache cache;
  host::Supervisor::Options opts;
  opts.workers = 1;
  opts.io_backend = backend;
  host::Supervisor sup(&runtime, opts);
  auto module = cache.Load(wat);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  if (!module.ok()) return host::RunReport();
  return sup.Submit(MakeJob(*module, "t")).get();
}

TEST(HostIo, ReadyIoAnswersInlineAndMatchesBlockingRun) {
  // Park only when the syscall would block: on the real reactor, a guest
  // whose every read/write/readv/writev/accept/accept4/poll/ppoll finds its
  // fd ready never parks, and the run is bit-identical to the blocking 1:1
  // run on every tier. The readiness probe is kernel time, not a syscall.
  std::vector<Tier> tiers = {
      {"switch", wasm::DispatchMode::kSwitch, wasm::JitTier::kOff},
      {"threaded", wasm::DispatchMode::kThreaded, wasm::JitTier::kOff}};
  if (wasm::JitAvailable()) {
    tiers.push_back({"jit", wasm::DispatchMode::kThreaded, wasm::JitTier::kOn});
  }
  for (const Tier& tier : tiers) {
    SCOPED_TRACE(tier.name);
    host::RunReport want = ServeOnce(WrapModule(kReadyIoGuest), nullptr, tier);
    ASSERT_TRUE(want.completed()) << want.trap_message;
    EXPECT_EQ(want.exit_code, 42);

    host::IoReactor reactor;
    host::RunReport got = ServeOnce(WrapModule(kReadyIoGuest), &reactor, tier);
    ASSERT_TRUE(got.completed()) << got.trap_message;
    EXPECT_EQ(got.parks, 0u);
    EXPECT_EQ(got.exit_code, want.exit_code);
    EXPECT_EQ(got.executed_instrs, want.executed_instrs);
    EXPECT_EQ(got.fuel_consumed, want.fuel_consumed);
    EXPECT_EQ(got.total_syscalls, want.total_syscalls);
    EXPECT_EQ(got.syscall_counts, want.syscall_counts);
    EXPECT_GT(got.kernel_nanos, 0);
    EXPECT_GE(got.wali_nanos, 0);
  }
}

TEST(HostIo, ParkedRunReleasesLedgerReservation) {
  // A parked guest must not sit on its budget reservation: the park settles
  // consumed-so-far and releases the slices, so a runnable job of the same
  // tenant can reserve and complete while the fleet sleeps. (Before the
  // release, the sleeper's unknown-demand reservation took the tenant's
  // WHOLE fuel remainder, and the burner would have been clamped to a
  // 1-instruction slice and stopped with kBudget.)
  IoWorld w = MakeIoWorld(2);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());
  host::TenantBudget budget;
  budget.max_fuel = 10000000;  // ample for both runs
  w.sup->ledger().SetBudget("t", budget);

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));

  // While the sleeper is parked, its reservation is released: the whole
  // unconsumed remainder is available again.
  ASSERT_GT(w.sup->ledger().RemainingFuel("t"), budget.max_fuel / 2);

  host::RunReport burn = w.sup->Submit(MakeJob(*burner, "t")).get();
  EXPECT_TRUE(burn.completed()) << burn.trap_message;
  EXPECT_EQ(burn.outcome, host::Outcome::kCompleted);
  EXPECT_GT(burn.fuel_consumed, 10000u);

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = slept.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 42);
  EXPECT_EQ(r.parks, 1u);

  // Park-time partial settles plus finish-time deltas must add up to
  // exactly the two runs' consumption — no double billing.
  host::TenantUsage usage = w.sup->ledger().usage("t");
  EXPECT_EQ(usage.fuel, burn.fuel_consumed + r.fuel_consumed);
  EXPECT_EQ(usage.syscalls, burn.total_syscalls + r.total_syscalls);
}

// Blocking pipe read parks; after the guest flips O_NONBLOCK with
// fcntl(F_SETFL), the cached offloadability classification is invalidated
// and the very next read takes the synchronous path again (-EAGAIN inline,
// no park) — the regression a stale per-fd cache would break.
const char* kFlipNonBlockGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $rfd i64) (local $r i64)
    (drop (call $pipe2 (i64.const 256) (i64.const 0)))
    (local.set $rfd (i64.load32_s (i32.const 256)))
    ;; blocking + async-io => this read parks (the test resumes it with 0)
    (local.set $r (call $read (local.get $rfd) (i64.const 1024) (i64.const 1)))
    (if (i64.ne (local.get $r) (i64.const 0))
      (then (return (i32.const 1))))
    ;; F_SETFL = 4, O_NONBLOCK = 0x800
    (drop (call $fcntl (local.get $rfd) (i64.const 4) (i64.const 2048)))
    ;; the sync path must re-engage: empty nonblocking pipe answers -EAGAIN
    (if (i64.ne (call $read (local.get $rfd) (i64.const 1024) (i64.const 1))
                (i64.const -11))
      (then (return (i32.const 2))))
    (i32.const 9))
)";

TEST(HostIo, SetflInvalidatesOffloadabilityCache) {
  wasm::Linker linker;
  wali::WaliRuntime runtime(&linker);
  auto parsed = wasm::ParseAndValidateWat(WrapModule(kFlipNonBlockGuest));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto proc = runtime.CreateProcess(*parsed, {"flip"}, {});
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();

  wali::WaliRuntime::MainContinuation cont;
  wasm::RunResult r = runtime.RunMain(**proc, runtime.exec_options(), &cont);
  // First read: classified offloadable (and cached) -> parks.
  ASSERT_EQ(r.trap, wasm::TrapKind::kSyscallPending) << r.trap_message;
  ASSERT_TRUE(cont.armed());
  EXPECT_GE(OnePollFd((*proc)->pending_io.op, POLLIN), 0);

  // Resume with "read returned 0". The guest then flips O_NONBLOCK and
  // reads again: that read must NOT park — a second kSyscallPending here
  // means the stale cache routed a non-blocking fd to the async path.
  r = runtime.ResumeMain(**proc, cont, 0);
  ASSERT_NE(r.trap, wasm::TrapKind::kSyscallPending)
      << "read after F_SETFL(O_NONBLOCK) must take the sync path";
  EXPECT_TRUE(r.ok() || r.trap == wasm::TrapKind::kExit) << r.trap_message;
  EXPECT_EQ(r.exit_code, 9);
}

// Same regression through ioctl(FIONBIO), the alternate O_NONBLOCK flip.
const char* kIoctlFlipGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $rfd i64) (local $r i64)
    (drop (call $pipe2 (i64.const 256) (i64.const 0)))
    (local.set $rfd (i64.load32_s (i32.const 256)))
    (local.set $r (call $read (local.get $rfd) (i64.const 1024) (i64.const 1)))
    (if (i64.ne (local.get $r) (i64.const 0))
      (then (return (i32.const 1))))
    ;; FIONBIO = 0x5421, *argp = 1 (enable non-blocking)
    (i32.store (i32.const 512) (i32.const 1))
    (drop (call $ioctl (local.get $rfd) (i64.const 0x5421) (i64.const 512)))
    (if (i64.ne (call $read (local.get $rfd) (i64.const 1024) (i64.const 1))
                (i64.const -11))
      (then (return (i32.const 2))))
    (i32.const 9))
)";

TEST(HostIo, IoctlFionbioInvalidatesOffloadabilityCache) {
  wasm::Linker linker;
  wali::WaliRuntime runtime(&linker);
  auto parsed = wasm::ParseAndValidateWat(WrapModule(kIoctlFlipGuest));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto proc = runtime.CreateProcess(*parsed, {"ioctl-flip"}, {});
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();

  wali::WaliRuntime::MainContinuation cont;
  wasm::RunResult r = runtime.RunMain(**proc, runtime.exec_options(), &cont);
  ASSERT_EQ(r.trap, wasm::TrapKind::kSyscallPending) << r.trap_message;
  r = runtime.ResumeMain(**proc, cont, 0);
  ASSERT_NE(r.trap, wasm::TrapKind::kSyscallPending)
      << "read after ioctl(FIONBIO) must take the sync path";
  EXPECT_TRUE(r.ok() || r.trap == wasm::TrapKind::kExit) << r.trap_message;
  EXPECT_EQ(r.exit_code, 9);
}

TEST(HostIo, OffloadCacheClassifiesAndInvalidates) {
  wasm::Linker linker;
  wali::WaliRuntime runtime(&linker);
  auto parsed = wasm::ParseAndValidateWat(WrapModule(kBurnGuest));
  ASSERT_TRUE(parsed.ok());
  auto proc = runtime.CreateProcess(*parsed, {"cache"}, {});
  ASSERT_TRUE(proc.ok());
  wali::WaliProcess& p = **proc;

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Pipes classify offloadable; the answer is cached.
  EXPECT_TRUE(p.OffloadableCached(fds[0]));
  // Flip O_NONBLOCK behind the cache's back: the cached (now stale) answer
  // survives until an invalidation hook fires — this is exactly why the
  // dispatch wrapper invalidates on fcntl(F_SETFL).
  int fl = ::fcntl(fds[0], F_GETFL);
  ASSERT_GE(fl, 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, fl | O_NONBLOCK), 0);
  EXPECT_TRUE(p.OffloadableCached(fds[0]));  // stale, by construction
  p.InvalidateOffloadFd(fds[0]);
  EXPECT_FALSE(p.OffloadableCached(fds[0]));  // reclassified: non-blocking
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(HostIo, RunAllPreservesSubmissionOrderAcrossParks) {
  // Reports come back in submission order even when some guests park and
  // resume out of order relative to synchronous guests.
  IoWorld w = MakeIoWorld(2);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  std::vector<host::GuestJob> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeJob(i % 2 == 0 ? *sleeper : *burner, "t"));
  }
  std::thread completer([&w] {
    // Drive the fake from the side: keep elapsing sleep time until all
    // three sleepers have resumed.
    while (w.sup->io_stats().resumes_total < 3) {
      if (w.fake->pending() > 0) {
        w.fake->AdvanceBy(50 * kMs);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  std::vector<host::RunReport> reports = w.sup->RunAll(std::move(jobs));
  completer.join();
  ASSERT_EQ(reports.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(reports[i].completed()) << i << ": " << reports[i].trap_message;
    EXPECT_EQ(reports[i].exit_code, i % 2 == 0 ? 42 : 0) << i;
    EXPECT_EQ(reports[i].parks, i % 2 == 0 ? 1u : 0u) << i;
  }
}

// ---------------------------------------------------------------------------
// Snapshot eviction: a parked guest's state leaves the process (or the
// process's memory) entirely and comes back bit-exact.

// IoWorld plus a telemetry sink and an optional on-disk evict directory.
struct EvictWorld {
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wali::WaliRuntime> runtime;
  std::unique_ptr<host::ModuleCache> cache;
  std::unique_ptr<host::Telemetry> tel = std::make_unique<host::Telemetry>();
  std::unique_ptr<host::FakeIoBackend> fake =
      std::make_unique<host::FakeIoBackend>();
  ManualClock clock;
  std::unique_ptr<host::Supervisor> sup;
};

EvictWorld MakeEvictWorld(size_t workers, const std::string& evict_dir = "") {
  EvictWorld w;
  w.linker = std::make_unique<wasm::Linker>();
  w.runtime = std::make_unique<wali::WaliRuntime>(w.linker.get());
  w.cache = std::make_unique<host::ModuleCache>();
  host::Supervisor::Options opts;
  opts.workers = workers;
  opts.clock = w.clock.fn();
  opts.pool.max_idle_per_module = workers;
  opts.telemetry = w.tel.get();
  opts.evict_dir = evict_dir;
  w.fake->SetTelemetry(w.tel.get());
  opts.io_backend = w.fake.get();
  w.sup = std::make_unique<host::Supervisor>(w.runtime.get(), opts);
  return w;
}

std::vector<host::TraceEvent> EventsForRun(const host::Telemetry::Snapshot& s,
                                           uint64_t run_id) {
  std::vector<host::TraceEvent> out;
  for (const host::TraceEvent& e : s.spans) {
    if (e.run_id == run_id) out.push_back(e);
  }
  return out;
}

TEST(HostIo, EvictParkedRestoreLedgerExact) {
  // Park the sleeper, serialize it out of its pool slot (in-memory mode),
  // run an unrelated guest through the freed capacity, complete the I/O,
  // and let the restore path rehydrate it. The run must finish exactly as
  // an unevicted one — and the tenant ledger's park-time settle plus
  // finish-time deltas must sum to precisely both runs' consumption: an
  // evict/restore cycle bills nothing twice and loses nothing.
  EvictWorld w = MakeEvictWorld(/*workers=*/1);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok()) << sleeper.status().ToString();
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());
  host::TenantBudget budget;
  budget.max_fuel = 10000000;
  w.sup->ledger().SetBudget("t", budget);

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));

  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  common::Status ev = w.sup->EvictParked(cookies[0]);
  ASSERT_TRUE(ev.ok()) << ev.ToString();
  host::Supervisor::IoStats s = w.sup->io_stats();
  EXPECT_EQ(s.evicted_now, 1u);
  EXPECT_EQ(s.evicts_total, 1u);
  EXPECT_EQ(s.parked_now, 1u) << "evicted runs are still parked";

  // Double-evicting the same cookie is refused, not fatal.
  EXPECT_FALSE(w.sup->EvictParked(cookies[0]).ok());

  // The slab is free: an unrelated guest of the same tenant runs on the
  // sole worker while the sleeper exists only as snapshot bytes.
  host::RunReport burn = w.sup->Submit(MakeJob(*burner, "t")).get();
  EXPECT_TRUE(burn.completed()) << burn.trap_message;

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = slept.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 42);
  EXPECT_EQ(r.parks, 1u);
  EXPECT_EQ(r.total_syscalls, 1u);

  s = w.sup->io_stats();
  EXPECT_EQ(s.evicted_now, 0u);
  EXPECT_EQ(s.restores_total, 1u);
  EXPECT_EQ(s.parked_now, 0u);

  // No double billing across the evict/restore boundary.
  host::TenantUsage usage = w.sup->ledger().usage("t");
  EXPECT_EQ(usage.fuel, burn.fuel_consumed + r.fuel_consumed);
  EXPECT_EQ(usage.syscalls, burn.total_syscalls + r.total_syscalls);
}

TEST(HostIo, EvictParkedToDiskAndRestore) {
  // Same lifecycle with Options::evict_dir set: the snapshot lands as a
  // file (nothing retained in memory), and the restore consumes + deletes
  // it.
  std::string dir = testing::TempDir() + "wali_evict_test";
  ::mkdir(dir.c_str(), 0700);
  EvictWorld w = MakeEvictWorld(/*workers=*/1, dir);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok()) << sleeper.status().ToString();

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  ASSERT_TRUE(w.sup->EvictParked(cookies[0]).ok());

  std::string path = dir + "/evict-" + std::to_string(cookies[0]) + ".snap";
  EXPECT_EQ(::access(path.c_str(), F_OK), 0) << "snapshot file must exist";

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = slept.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 42);
  EXPECT_NE(::access(path.c_str(), F_OK), 0)
      << "restore must consume and remove the snapshot file";
  ::rmdir(dir.c_str());
}

TEST(HostIo, EvictAllParkedSweepsTheParkedSet) {
  constexpr size_t kGuests = 8;
  EvictWorld w = MakeEvictWorld(/*workers=*/2);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());
  std::vector<std::future<host::RunReport>> futures;
  for (size_t i = 0; i < kGuests; ++i) {
    futures.push_back(w.sup->Submit(MakeJob(*sleeper, "t" + std::to_string(i))));
  }
  ASSERT_TRUE(WaitForPending(*w.fake, kGuests));
  EXPECT_EQ(w.sup->EvictAllParked(), kGuests);
  EXPECT_EQ(w.sup->io_stats().evicted_now, kGuests);

  w.fake->AdvanceBy(50 * kMs);
  for (auto& f : futures) {
    host::RunReport r = f.get();
    EXPECT_TRUE(r.completed()) << r.trap_message;
    EXPECT_EQ(r.exit_code, 42);
  }
  host::Supervisor::IoStats s = w.sup->io_stats();
  EXPECT_EQ(s.restores_total, kGuests);
  EXPECT_EQ(s.evicted_now, 0u);
}

TEST(HostIo, EvictedRunSpanOrdering) {
  // The run's telemetry trace must read, in order:
  //   submit -> dispatch -> park -> evict -> io_complete -> restore ->
  //   resume -> finish
  // so an operator reading a trace can see exactly when the guest existed
  // only as snapshot bytes.
  EvictWorld w = MakeEvictWorld(/*workers=*/1);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());

  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  ASSERT_TRUE(w.sup->EvictParked(cookies[0]).ok());
  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = slept.get();
  ASSERT_TRUE(r.completed()) << r.trap_message;

  host::Telemetry::Snapshot snap = w.tel->TakeSnapshot();
  ASSERT_FALSE(snap.spans.empty());
  std::vector<host::TraceEvent> ev = EventsForRun(snap, snap.spans[0].run_id);
  ASSERT_EQ(ev.size(), 8u);
  EXPECT_EQ(ev[0].event, host::SpanEvent::kSubmit);
  EXPECT_EQ(ev[1].event, host::SpanEvent::kDispatch);
  EXPECT_EQ(ev[2].event, host::SpanEvent::kPark);
  EXPECT_EQ(ev[3].event, host::SpanEvent::kEvict);
  EXPECT_EQ(ev[4].event, host::SpanEvent::kIoComplete);
  EXPECT_EQ(ev[5].event, host::SpanEvent::kRestore);
  EXPECT_EQ(ev[6].event, host::SpanEvent::kResume);
  EXPECT_EQ(ev[7].event, host::SpanEvent::kFinish);
  for (size_t i = 1; i < ev.size(); ++i) {
    EXPECT_GE(ev[i].t_nanos, ev[i - 1].t_nanos) << "event " << i;
  }
  // Metrics mirror the lifecycle.
  uint64_t evicts = 0, restores = 0;
  for (const auto& [name, value] : snap.registry.counters) {
    if (name == "supervisor_evictions_total") evicts = value;
    if (name == "supervisor_restores_total") restores = value;
  }
  EXPECT_EQ(evicts, 1u);
  EXPECT_EQ(restores, 1u);
}

size_t CountOpenFds() {
  size_t n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

TEST(HostIo, ShutdownWithEvictedRunResolvesFuture) {
  // Shutdown while a run exists only as snapshot bytes: the future must
  // still resolve (shed, with the fuel settled at park time), and nothing
  // leaks (the ASan job runs this).
  EvictWorld w = MakeEvictWorld(/*workers=*/1);
  auto sleeper = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(sleeper.ok());
  std::future<host::RunReport> slept = w.sup->Submit(MakeJob(*sleeper, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  ASSERT_TRUE(w.sup->EvictParked(cookies[0]).ok());
  const host::TenantUsage at_park = w.sup->ledger().usage("t");

  w.sup->Shutdown();
  host::RunReport r = slept.get();
  EXPECT_EQ(r.outcome, host::Outcome::kShed);
  EXPECT_GT(r.executed_instrs, 0u) << "park-time fuel settle must survive";
  EXPECT_EQ(w.sup->io_stats().evicted_now, 0u);
  // The report was harvested at eviction, so it matches what a resident
  // run shed at the same point would report: the park-time trace (the one
  // nanosleep, which the park settled into the ledger) and the memory
  // high-water.
  EXPECT_EQ(r.total_syscalls, at_park.syscalls);
  EXPECT_EQ(r.total_syscalls, 1u);
  EXPECT_EQ(r.syscall_counts,
            (std::vector<std::pair<std::string, uint64_t>>{{"nanosleep", 1}}));
  EXPECT_GT(r.mem_high_water_pages, 0u);
  host::Telemetry::Snapshot snap = w.tel->TakeSnapshot();
  uint64_t wall_count = 0, blocked_count = 0;
  for (const auto& h : snap.registry.histograms) {
    if (h.name == "supervisor_run_wall_nanos") wall_count = h.count;
    if (h.name == "supervisor_blocked_nanos") blocked_count = h.count;
  }
  EXPECT_EQ(wall_count, 1u);
  EXPECT_EQ(blocked_count, 1u);
}

// An evicted run that is stopped on resume (deadline or budget) must end
// from its snapshot-free state: no restore, no pool acquire, its snapshot
// file removed and its fds closed, and the ledger adds the run and the
// stop to what the park settled. `stop` arranges the stop after eviction.
void ExpectEvictedRunStopsWithoutRestore(
    host::Outcome want, int64_t deadline,
    const std::function<void(EvictWorld&)>& stop) {
  std::string dir = testing::TempDir() + "wali_evict_stop_test";
  ::mkdir(dir.c_str(), 0700);
  EvictWorld w = MakeEvictWorld(/*workers=*/1, dir);
  auto module = w.cache->Load(WrapModule(kPipeAcrossSleepGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  const size_t before = CountOpenFds();
  std::future<host::RunReport> fut =
      w.sup->Submit(MakeJob(*module, "t", deadline));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  ASSERT_TRUE(w.sup->EvictParked(cookies[0]).ok());
  std::string path = dir + "/evict-" + std::to_string(cookies[0]) + ".snap";
  EXPECT_EQ(::access(path.c_str(), F_OK), 0) << "snapshot file must exist";
  EXPECT_EQ(CountOpenFds(), before + 2) << "the pipe stays open while evicted";
  const host::TenantUsage at_park = w.sup->ledger().usage("t");
  const host::InstancePool::Stats pool_at_park = w.sup->pool().stats();

  stop(w);
  host::RunReport r = fut.get();
  EXPECT_EQ(r.outcome, want) << r.trap_message;
  EXPECT_EQ(r.parks, 1u);
  EXPECT_EQ(r.total_syscalls, at_park.syscalls);

  host::Supervisor::IoStats s = w.sup->io_stats();
  EXPECT_EQ(s.restores_total, 0u) << "a stopped run must not be restored";
  EXPECT_EQ(s.evicted_now, 0u);
  EXPECT_EQ(s.parked_now, 0u);
  EXPECT_EQ(s.in_flight_now, 0u);
  const host::InstancePool::Stats pool_now = w.sup->pool().stats();
  EXPECT_EQ(pool_now.hits, pool_at_park.hits);
  EXPECT_EQ(pool_now.misses, pool_at_park.misses);
  EXPECT_NE(::access(path.c_str(), F_OK), 0) << "snapshot file must be removed";
  EXPECT_EQ(CountOpenFds(), before) << "the evicted run's fds are closed";

  host::TenantUsage u = w.sup->ledger().usage("t");
  EXPECT_EQ(u.runs, at_park.runs + 1);
  EXPECT_EQ(u.shed, at_park.shed + (want == host::Outcome::kShed ? 1 : 0));
  EXPECT_EQ(u.budget_stops,
            at_park.budget_stops + (want == host::Outcome::kBudget ? 1 : 0));
  EXPECT_EQ(u.fuel, at_park.fuel) << "the park already settled the fuel";
  EXPECT_EQ(u.fuel, r.fuel_consumed);
  EXPECT_EQ(u.syscalls, at_park.syscalls);
  EXPECT_EQ(u.host_errors, at_park.host_errors);
  ::rmdir(dir.c_str());
}

TEST(HostIo, EvictedRunShedAtDeadlineIsNotRestored) {
  // The park folds the 10ms job deadline into the 50ms sleep; when it fires
  // the run is shed straight from its snapshot-free state.
  ExpectEvictedRunStopsWithoutRestore(
      host::Outcome::kShed, /*deadline=*/10 * kMs, [](EvictWorld& w) {
        w.clock.Advance(10 * kMs);
        w.fake->AdvanceBy(10 * kMs);
      });
}

TEST(HostIo, EvictedRunOverBudgetIsNotRestored) {
  // The tenant's budget drops below what it already consumed while its
  // only run sits evicted; the resume's admission re-check stops it.
  ExpectEvictedRunStopsWithoutRestore(
      host::Outcome::kBudget, /*deadline=*/0, [](EvictWorld& w) {
        ASSERT_GT(w.sup->ledger().usage("t").fuel, 1u);
        host::TenantBudget budget;
        budget.max_fuel = 1;
        w.sup->ledger().SetBudget("t", budget);
        w.fake->AdvanceBy(50 * kMs);
      });
}

TEST(HostIo, EvictParkedFutexTimerRestoresWithTimeout) {
  // The threadless futex timer parks as a pure timer whose result
  // (-ETIMEDOUT) travels in the op, so it is evictable; the restored run
  // must still see -ETIMEDOUT and exit 31.
  EvictWorld w = MakeEvictWorld(/*workers=*/1);
  auto module = w.cache->Load(WrapModule(kFutexWaitGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  common::Status ev = w.sup->EvictParked(cookies[0]);
  ASSERT_TRUE(ev.ok()) << ev.ToString();

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 31);
  EXPECT_EQ(w.sup->io_stats().restores_total, 1u);
}

TEST(HostIo, EvictRefusesFdClassParkAndRunFinishes) {
  // A read park resumes by re-dispatching against the guest's live fds,
  // which a snapshot does not carry: eviction must refuse it, and the run
  // must then finish normally.
  EvictWorld w = MakeEvictWorld(/*workers=*/1);
  auto module = w.cache->Load(WrapModule(kPipeGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  PeerPipes pipes;
  std::future<host::RunReport> fut = w.sup->Submit(PeerJob(*module, pipes.Argv()));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  pipes.Drain();
  ASSERT_TRUE(w.fake->CompleteReady(w.fake->PendingCookies()[0]));  // write

  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> pending = w.fake->PendingCookies();
  wali::IoOp op;
  ASSERT_TRUE(w.fake->LookupOp(pending[0], &op));
  ASSERT_EQ(OnePollFd(op, POLLIN), pipes.in[0]);
  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  common::Status ev = w.sup->EvictParked(cookies[0]);
  EXPECT_EQ(ev.code(), common::StatusCode::kUnimplemented) << ev.ToString();
  EXPECT_EQ(w.sup->io_stats().evicted_now, 0u);

  pipes.Forward();
  ASSERT_TRUE(w.fake->CompleteReady(pending[0]));  // byte is there
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 77);
  EXPECT_EQ(r.parks, 2u);
}

TEST(HostIo, EvictionKeepsGuestFdsOpen) {
  // Regression: releasing an evicted run's lease closed its host fds, and
  // the restore re-adopted the dead numbers (the read answered -EBADF, so
  // the guest exited 9). The fds must survive the eviction.
  EvictWorld w = MakeEvictWorld(/*workers=*/1);
  auto module = w.cache->Load(WrapModule(kPipeAcrossSleepGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  ASSERT_TRUE(w.sup->EvictParked(cookies[0]).ok());

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = fut.get();
  EXPECT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.exit_code, 77);
  EXPECT_EQ(w.sup->io_stats().restores_total, 1u);
}

TEST(HostIo, ShutdownClosesEvictedRunFds) {
  // An evicted run holds its guest's host fds outside any pool slot; when
  // the run is dropped instead of restored, they must be closed.
  EvictWorld w = MakeEvictWorld(/*workers=*/1);
  auto module = w.cache->Load(WrapModule(kPipeAcrossSleepGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  const size_t before = CountOpenFds();
  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  ASSERT_TRUE(w.sup->EvictParked(cookies[0]).ok());
  EXPECT_EQ(CountOpenFds(), before + 2) << "the pipe stays open while evicted";

  w.sup->Shutdown();
  EXPECT_EQ(fut.get().outcome, host::Outcome::kShed);
  EXPECT_EQ(CountOpenFds(), before);
}

TEST(HostIo, EvictedRunWithLostSnapshotFailsAsHostError) {
  // The restore path's failure branch: the evicted run's snapshot file is
  // gone by the time its op completes. The run resolves as a host error,
  // the ledger adds one run and one host error to what the park settled
  // (nothing is billed twice), and the fds the eviction kept open are
  // closed.
  std::string dir = testing::TempDir() + "wali_evict_lost_test";
  ::mkdir(dir.c_str(), 0700);
  EvictWorld w = MakeEvictWorld(/*workers=*/1, dir);
  auto module = w.cache->Load(WrapModule(kPipeAcrossSleepGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();
  const size_t before = CountOpenFds();
  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));
  std::vector<uint64_t> cookies = w.sup->parked_cookies();
  ASSERT_EQ(cookies.size(), 1u);
  ASSERT_TRUE(w.sup->EvictParked(cookies[0]).ok());
  EXPECT_EQ(CountOpenFds(), before + 2) << "the pipe stays open while evicted";
  const host::TenantUsage at_park = w.sup->ledger().usage("t");
  std::string path = dir + "/evict-" + std::to_string(cookies[0]) + ".snap";
  ASSERT_EQ(::unlink(path.c_str()), 0);

  w.fake->AdvanceBy(50 * kMs);
  host::RunReport r = fut.get();
  EXPECT_EQ(r.outcome, host::Outcome::kTrapped);
  EXPECT_EQ(r.trap, wasm::TrapKind::kHostError);
  EXPECT_NE(r.trap_message.find("restore: cannot read"), std::string::npos)
      << r.trap_message;

  host::TenantUsage u = w.sup->ledger().usage("t");
  EXPECT_EQ(u.runs, at_park.runs + 1);
  EXPECT_EQ(u.host_errors, at_park.host_errors + 1);
  EXPECT_EQ(u.fuel, at_park.fuel) << "the park already settled the fuel";
  EXPECT_EQ(u.fuel, r.fuel_consumed);
  EXPECT_EQ(u.syscalls, at_park.syscalls);
  EXPECT_EQ(u.cpu_nanos, at_park.cpu_nanos);
  EXPECT_EQ(CountOpenFds(), before) << "the evicted run's fds are closed";
  host::Supervisor::IoStats s = w.sup->io_stats();
  EXPECT_EQ(s.evicted_now, 0u);
  EXPECT_EQ(s.restores_total, 0u);
  EXPECT_EQ(s.parked_now, 0u);
  for (const auto& [name, value] : w.tel->TakeSnapshot().registry.gauges) {
    if (name == "supervisor_evicted_now") {
      EXPECT_EQ(value, 0) << name;
    }
  }
  ::rmdir(dir.c_str());
}

}  // namespace
