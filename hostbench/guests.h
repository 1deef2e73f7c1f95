// Guest modules and seeded inputs for the host benchmark's workloads.
//
// Every guest is handed to the host as binary .wasm bytes, the way a module
// registry would store it, and receives its per-request input through argv
// (kv payload, echo fd) or a patched data segment (cold nonce). Each guest's
// result is a pure function of that input, and the Expected* functions here
// compute it independently of the engine, so the benchmark can check every
// report. Instruction counts do not depend on the input, so per-guest engine
// and WALI counts repeat exactly from run to run.
#ifndef HOSTBENCH_GUESTS_H_
#define HOSTBENCH_GUESTS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace hostbench {

// splitmix64, kept local so the benchmark's inputs never change when the
// program's own PRNG does.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint32_t bound) { return static_cast<uint32_t>(Next() % bound); }

 private:
  uint64_t state_;
};

// kv: request/reply round trips per guest and the message size.
constexpr int kKvRounds = 32;
constexpr int kKvMessageBytes = 64;

// Parses and validates `wat`, then encodes it to binary. Empty on failure
// (with the reason in *error).
std::string EncodeWat(const std::string& wat, std::string* error);

// Request/reply loop over a guest-owned socketpair. argv[1] is the
// kKvMessageBytes-character request; the guest returns a checksum of every
// reply (see KvExpected).
std::string KvGuestWat();
// A request payload of printable characters drawn from `rng`.
std::string KvPayload(Rng& rng);
int32_t KvExpected(const std::string& payload);

// Echo server for one connection: argv[1] is the guest end's fd as four
// decimal digits. Reads one byte (parking until the client writes), sends it
// back, and returns it.
std::string EchoGuestWat();
std::string EchoFdArg(int fd);

// host_throughput's BuildGuestWat(192) shape with a 4-byte nonce in its data
// segment; returns the loop accumulator XOR the nonce (see ColdExpected).
std::string ColdGuestWat();
// Offset of the nonce inside the encoded cold module (npos if missing).
size_t FindColdNonce(const std::string& encoded);
void PatchColdNonce(std::string* encoded, size_t offset, uint32_t nonce);
int32_t ColdExpected(uint32_t nonce);
// A bijection on 32-bit values (murmur3's finalizer): distinct inputs give
// distinct nonces, so no two cold jobs in a run share module bytes.
uint32_t Mix32(uint32_t x);

}  // namespace hostbench

#endif  // HOSTBENCH_GUESTS_H_
