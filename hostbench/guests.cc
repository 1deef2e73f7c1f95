#include "hostbench/guests.h"

#include <cstdio>
#include <cstring>

#include "src/wasm/encode.h"
#include "src/wasm/wat_parser.h"

namespace hostbench {

namespace {

constexpr char kNonceMarker[] = "hostbench-nonce:";
constexpr int kColdExtraFuncs = 192;
constexpr uint32_t kColdIters = 1000;

}  // namespace

std::string EncodeWat(const std::string& wat, std::string* error) {
  auto parsed = wasm::ParseAndValidateWat(wat);
  if (!parsed.ok()) {
    *error = parsed.status().ToString();
    return "";
  }
  std::vector<uint8_t> bin = wasm::EncodeModule(**parsed);
  return std::string(reinterpret_cast<const char*>(bin.data()), bin.size());
}

// Memory map: 16 socketpair fds, 256 client buffer (request, then the reply
// that becomes the next request), 512 server buffer. Every read and write
// goes through a blocking socket, so with async I/O each one parks.
std::string KvGuestWat() {
  return R"((module
  (import "wali" "SYS_read" (func $read (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_write" (func $write (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_close" (func $close (param i64) (result i64)))
  (import "wali" "SYS_socketpair" (func $socketpair (param i64 i64 i64 i64) (result i64)))
  (import "wali" "get_argv_len" (func $get_argv_len (param i64) (result i64)))
  (import "wali" "copy_argv" (func $copy_argv (param i64 i64) (result i64)))
  (memory 1)
  (func (export "main") (result i32)
    (local $c i64) (local $s i64) (local $r i32) (local $j i32) (local $w i32)
    (local $sum i32)
    (if (i64.ne (call $get_argv_len (i64.const 1)) (i64.const 65))
      (then (return (i32.const -10))))
    (drop (call $copy_argv (i64.const 256) (i64.const 1)))
    ;; AF_UNIX, SOCK_STREAM
    (if (i64.ne (call $socketpair (i64.const 1) (i64.const 1) (i64.const 0)
                                  (i64.const 16))
                (i64.const 0))
      (then (return (i32.const -11))))
    (local.set $c (i64.load32_s (i32.const 16)))
    (local.set $s (i64.load32_s (i32.const 20)))
    (block $done
      (loop $round
        (br_if $done (i32.ge_u (local.get $r) (i32.const )" +
         std::to_string(kKvRounds) + R"()))
        (if (i64.ne (call $write (local.get $c) (i64.const 256) (i64.const 64))
                    (i64.const 64))
          (then (return (i32.const -1))))
        (if (i64.ne (call $read (local.get $s) (i64.const 512) (i64.const 64))
                    (i64.const 64))
          (then (return (i32.const -2))))
        ;; server: word[j] = word[j] * 31 + (round * 16 + j)
        (local.set $j (i32.const 0))
        (block $served
          (loop $serve
            (br_if $served (i32.ge_u (local.get $j) (i32.const 16)))
            (local.set $w (i32.add (i32.const 512) (i32.shl (local.get $j) (i32.const 2))))
            (i32.store (local.get $w)
              (i32.add (i32.mul (i32.load (local.get $w)) (i32.const 31))
                       (i32.add (i32.shl (local.get $r) (i32.const 4)) (local.get $j))))
            (local.set $j (i32.add (local.get $j) (i32.const 1)))
            (br $serve)))
        (if (i64.ne (call $write (local.get $s) (i64.const 512) (i64.const 64))
                    (i64.const 64))
          (then (return (i32.const -3))))
        (if (i64.ne (call $read (local.get $c) (i64.const 256) (i64.const 64))
                    (i64.const 64))
          (then (return (i32.const -4))))
        ;; client: sum = (sum ^ word[j]) * 16777619, then sum ^= sum >> 13,
        ;; over the reply's words
        (local.set $j (i32.const 0))
        (block $checked
          (loop $check
            (br_if $checked (i32.ge_u (local.get $j) (i32.const 16)))
            (local.set $sum
              (i32.mul (i32.xor (local.get $sum)
                                (i32.load (i32.add (i32.const 256)
                                                   (i32.shl (local.get $j) (i32.const 2)))))
                       (i32.const 16777619)))
            (local.set $sum (i32.xor (local.get $sum)
                                     (i32.shr_u (local.get $sum) (i32.const 13))))
            (local.set $j (i32.add (local.get $j) (i32.const 1)))
            (br $check)))
        (local.set $r (i32.add (local.get $r) (i32.const 1)))
        (br $round)))
    (drop (call $close (local.get $c)))
    (drop (call $close (local.get $s)))
    (local.get $sum))
))";
}

std::string KvPayload(Rng& rng) {
  std::string p(kKvMessageBytes, ' ');
  for (char& ch : p) ch = static_cast<char>('!' + rng.Below(94));
  return p;
}

int32_t KvExpected(const std::string& payload) {
  uint32_t words[kKvMessageBytes / 4];
  std::memcpy(words, payload.data(), sizeof(words));
  uint32_t sum = 0;
  for (uint32_t r = 0; r < static_cast<uint32_t>(kKvRounds); ++r) {
    for (uint32_t j = 0; j < 16; ++j) words[j] = words[j] * 31u + (r * 16u + j);
    for (uint32_t j = 0; j < 16; ++j) {
      sum = (sum ^ words[j]) * 16777619u;
      sum ^= sum >> 13;
    }
  }
  return static_cast<int32_t>(sum);
}

std::string EchoGuestWat() {
  return R"((module
  (import "wali" "SYS_read" (func $read (param i64 i64 i64) (result i64)))
  (import "wali" "SYS_sendto" (func $sendto (param i64 i64 i64 i64 i64 i64) (result i64)))
  (import "wali" "get_argv_len" (func $get_argv_len (param i64) (result i64)))
  (import "wali" "copy_argv" (func $copy_argv (param i64 i64) (result i64)))
  (memory 1)
  (func (export "main") (result i32)
    (local $fd i64) (local $k i32)
    (if (i64.ne (call $get_argv_len (i64.const 1)) (i64.const 5))
      (then (return (i32.const -10))))
    (drop (call $copy_argv (i64.const 16) (i64.const 1)))
    (block $parsed
      (loop $digit
        (br_if $parsed (i32.ge_u (local.get $k) (i32.const 4)))
        (local.set $fd
          (i64.add (i64.mul (local.get $fd) (i64.const 10))
                   (i64.extend_i32_u
                     (i32.sub (i32.load8_u (i32.add (i32.const 16) (local.get $k)))
                              (i32.const 48)))))
        (local.set $k (i32.add (local.get $k) (i32.const 1)))
        (br $digit)))
    ;; read parks until the client writes; sendto is synchronous
    (if (i64.ne (call $read (local.get $fd) (i64.const 64) (i64.const 1)) (i64.const 1))
      (then (return (i32.const -1))))
    ;; flags = MSG_NOSIGNAL
    (if (i64.ne (call $sendto (local.get $fd) (i64.const 64) (i64.const 1)
                              (i64.const 16384) (i64.const 0) (i64.const 0))
                (i64.const 1))
      (then (return (i32.const -2))))
    (i32.load8_u (i32.const 64)))
))";
}

std::string EchoFdArg(int fd) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d", fd);
  return buf;
}

std::string ColdGuestWat() {
  std::string wat = R"((module
  (import "wali" "SYS_getpid" (func $getpid (result i64)))
  (import "wali" "SYS_write" (func $write (param i64 i64 i64) (result i64)))
  (memory 64)
  (data (i32.const 16) ")" + std::string(kNonceMarker) + R"(\00\00\00\00")
)";
  for (int i = 0; i < kColdExtraFuncs; ++i) {
    wat += "  (func $f" + std::to_string(i) +
           " (param $x i32) (result i32)\n"
           "    (i32.add (i32.mul (local.get $x) (i32.const 3))\n"
           "             (i32.const " +
           std::to_string(i) + ")))\n";
  }
  wat += R"(  (func (export "main") (result i32)
    (local $i i32)
    (local $acc i32)
    (drop (call $getpid))
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const )" +
         std::to_string(kColdIters) + R"()))
        (local.set $acc (i32.add (local.get $acc) (call $f0 (local.get $i))))
        (i32.store (i32.add (i32.const 4096) (i32.shl (local.get $i) (i32.const 2)))
                   (local.get $acc))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (i32.xor (local.get $acc) (i32.load (i32.const 32))))
))";
  return wat;
}

size_t FindColdNonce(const std::string& encoded) {
  size_t at = encoded.find(kNonceMarker);
  return at == std::string::npos ? at : at + std::strlen(kNonceMarker);
}

void PatchColdNonce(std::string* encoded, size_t offset, uint32_t nonce) {
  for (int b = 0; b < 4; ++b) {
    (*encoded)[offset + b] = static_cast<char>((nonce >> (8 * b)) & 0xff);
  }
}

int32_t ColdExpected(uint32_t nonce) {
  uint32_t acc = 0;
  for (uint32_t i = 0; i < kColdIters; ++i) acc += i * 3u;  // $f0(i)
  return static_cast<int32_t>(acc ^ nonce);
}

uint32_t Mix32(uint32_t x) {
  x ^= x >> 16;
  x *= 0x85ebca6bu;
  x ^= x >> 13;
  x *= 0xc2b2ae35u;
  x ^= x >> 16;
  return x;
}

}  // namespace hostbench
