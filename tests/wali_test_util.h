// Helpers for WALI integration tests: run a WAT guest under a fresh WALI
// runtime and inspect the process afterwards.
#ifndef TESTS_WALI_TEST_UTIL_H_
#define TESTS_WALI_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/wali/wali.h"
#include "src/wasm/wasm.h"

namespace wali_test {

// Common import prelude available to every guest; unused imports are free.
inline const char* kPrelude = R"(
  (import "wali" "SYS_read" (func $read (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_write" (func $write (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_openat" (func $openat (param i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_open" (func $open (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_close" (func $close (param i64) (result i64)))
  (import "wali" "SYS_lseek" (func $lseek (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_fstat" (func $fstat (param i64 i64) (result i64)))
  (import "wali" "SYS_stat" (func $stat (param i64 i64) (result i64)))
  (import "wali" "SYS_unlink" (func $unlink (param i64) (result i64)))
  (import "wali" "SYS_mkdir" (func $mkdir (param i64 i64) (result i64)))
  (import "wali" "SYS_rmdir" (func $rmdir (param i64) (result i64)))
  (import "wali" "SYS_getcwd" (func $getcwd (param i64 i64) (result i64)))
  (import "wali" "SYS_dup" (func $dup (param i64) (result i64)))
  (import "wali" "SYS_pipe2" (func $pipe2 (param i64 i64) (result i64)))
  (import "wali" "SYS_mmap" (func $mmap (param i64 i64 i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_munmap" (func $munmap (param i64 i64) (result i64)))
  (import "wali" "SYS_mremap" (func $mremap (param i64 i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_brk" (func $brk (param i64) (result i64)))
  (import "wali" "SYS_getpid" (func $getpid (result i64)))
  (import "wali" "SYS_gettid" (func $gettid (result i64)))
  (import "wali" "SYS_getuid" (func $getuid (result i64)))
  (import "wali" "SYS_exit" (func $exit (param i64) (result i64)))
  (import "wali" "SYS_exit_group" (func $exit_group (param i64) (result i64)))
  (import "wali" "SYS_fork" (func $fork (result i64)))
  (import "wali" "SYS_wait4" (func $wait4 (param i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_clone" (func $clone (param i64 i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_futex" (func $futex (param i64 i64 i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_rt_sigaction" (func $sigaction (param i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_rt_sigprocmask" (func $sigprocmask (param i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_kill" (func $kill (param i64 i64) (result i64)))
  (import "wali" "SYS_tgkill" (func $tgkill (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_clock_gettime" (func $clock_gettime (param i64 i64) (result i64)))
  (import "wali" "SYS_nanosleep" (func $nanosleep (param i64 i64) (result i64)))
  (import "wali" "SYS_uname" (func $uname (param i64) (result i64)))
  (import "wali" "SYS_sched_yield" (func $sched_yield (result i64)))
  (import "wali" "SYS_getrandom" (func $getrandom (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_socket" (func $socket (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_socketpair" (func $socketpair (param i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_bind" (func $bind (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_sendto" (func $sendto (param i64 i64 i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_recvfrom" (func $recvfrom (param i64 i64 i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_poll" (func $poll (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_ppoll" (func $ppoll (param i64 i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_connect" (func $connect (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_listen" (func $listen (param i64 i64) (result i64)))
  (import "wali" "SYS_accept" (func $accept (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_accept4" (func $accept4 (param i64 i64 i64 i64) (result i64)))
  (import "wali" "SYS_getsockname" (func $getsockname (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_readv" (func $readv (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_writev" (func $writev (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_fcntl" (func $fcntl (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_ioctl" (func $ioctl (param i64 i64 i64) (result i64)))
  (import "wali" "get_argc" (func $get_argc (result i64)))
  (import "wali" "get_argv_len" (func $get_argv_len (param i64) (result i64)))
  (import "wali" "copy_argv" (func $copy_argv (param i64 i64) (result i64)))
  (import "wali" "get_envc" (func $get_envc (result i64)))
  (import "wali" "get_env_len" (func $get_env_len (param i64) (result i64)))
  (import "wali" "copy_env" (func $copy_env (param i64 i64) (result i64)))
)";

struct WaliWorld {
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wali::WaliRuntime> runtime;
  std::unique_ptr<wali::WaliProcess> process;
  wasm::RunResult result;
};

// Parses `body` (module fields, prelude prepended), creates a process under
// a runtime built with `opts`, runs main, and returns the whole world for
// inspection.
inline WaliWorld RunWali(const std::string& body, std::vector<std::string> argv,
                         std::vector<std::string> env,
                         const wali::WaliRuntime::Options& opts) {
  WaliWorld world;
  std::string wat = std::string("(module ") + kPrelude + body + ")";
  auto parsed = wasm::ParseAndValidateWat(wat);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return world;
  world.linker = std::make_unique<wasm::Linker>();
  world.runtime = std::make_unique<wali::WaliRuntime>(world.linker.get(), opts);
  auto proc = world.runtime->CreateProcess(*parsed, std::move(argv), std::move(env));
  EXPECT_TRUE(proc.ok()) << proc.status().ToString();
  if (!proc.ok()) return world;
  world.process = std::move(*proc);
  world.result = world.runtime->RunMain(*world.process);
  return world;
}

// RunWali under default runtime options and the given safepoint scheme.
inline WaliWorld RunWali(
    const std::string& body,
    std::vector<std::string> argv = {"test"},
    std::vector<std::string> env = {},
    wasm::SafepointScheme scheme = wasm::SafepointScheme::kLoop) {
  wali::WaliRuntime::Options opts;
  opts.scheme = scheme;
  return RunWali(body, std::move(argv), std::move(env), opts);
}

// Expects main to return the i32 `want` (or exit cleanly with it).
inline void ExpectWaliMain(const std::string& body, uint32_t want,
                           std::vector<std::string> argv = {"test"},
                           std::vector<std::string> env = {}) {
  WaliWorld world = RunWali(body, std::move(argv), std::move(env));
  if (world.result.trap == wasm::TrapKind::kExit) {
    EXPECT_EQ(static_cast<uint32_t>(world.result.exit_code), want)
        << world.result.trap_message;
    return;
  }
  ASSERT_EQ(world.result.trap, wasm::TrapKind::kNone)
      << wasm::TrapKindName(world.result.trap) << " " << world.result.trap_message;
  ASSERT_EQ(world.result.values.size(), 1u);
  EXPECT_EQ(world.result.values[0].i32(), want);
}

}  // namespace wali_test

#endif  // TESTS_WALI_TEST_UTIL_H_
