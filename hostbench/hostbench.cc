// hostbench: serves one workload through host::Supervisor in the
// configuration of `walirun --serve 2 --async-io` (JIT tier auto, threaded
// dispatch, I/O backend auto, 2 workers, no telemetry sink), checks every
// guest's output, and prints the run's metrics by name with their units.
//
//   hostbench --workload compute|kv|echo|cold --seed N --seconds S
//             --trace 0|1 [--corrupt-expected]
//
// Run from the repository root: compute reads examples/serve_guest.wat.
//
// --trace 0 measures the end-to-end metrics. --trace 1 makes three phases —
// untraced, traced (a host::Telemetry attached to the supervisor, module
// cache and I/O backend), and untraced with the JIT off — and reports the
// per-layer metrics, which the benchmark derives from outside the program:
// its own spans around ModuleCache::Load, submit->ready and
// InstancePool::Acquire, the RunReport fields, the program's stats
// counters, and the telemetry span ring.
//
// Load is a closed loop: clients that each wait for their guest's report
// before sending the next (front ends waiting on a reply), a fixed multiple
// of the worker count. echo instead keeps one guest parked per connection
// and wakes them from a single load thread. Every measured phase is cut
// into equal trials, and each end-to-end metric is the median over the half
// of the trials in which the hypervisor stole the least CPU time.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics, and with --trace 0 also each trial's steal and figures, from
// which run.py pools the calm trials of several processes. The exit code is
// 0 only when every guest's output was correct.

#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hostbench/guests.h"
#include "src/common/time_util.h"
#include "src/host/host.h"
#include "src/host/io_uring_backend.h"
#include "src/host/telemetry.h"
#include "src/wali/runtime.h"
#include "src/wasm/wasm.h"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace hostbench {
namespace {

constexpr size_t kWorkers = 2;
// Set-ups per run; setup_s is their median. One set-up takes 0.3 to 10 ms
// and a single run's set-ups spread over a factor of two or more (thread
// start-up, first wake-ups), so the median needs many of them.
constexpr size_t kSetups = 61;
constexpr int kEchoConnections = 256;
constexpr int kEchoBatch = 16;
constexpr int kAcquireSamples = 200;
constexpr uint64_t kWarmupGuests = 2048;
constexpr double kMaxExtraWarmupS = 10;
constexpr const char* kTenant = "bench";

int64_t Now() { return common::MonotonicNanos(); }

double CpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Peak resident set of this process image. VmHWM belongs to the address
// space, which execve replaces, so unlike ru_maxrss it does not carry over
// the peak of whatever launched the benchmark.
double PeakRssMiB() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // KiB
  }
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of sorted samples; p in (0, 1].
int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Machine-wide CPU ticks from /proc/stat: {steal, total}.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  uint64_t v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

// CPUs this process may run on, as nproc(1) counts them.
long Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_expected = false;
};

// ---------------------------------------------------------------- host ---

// The serving stack as `walirun --serve 2 --async-io` builds it.
struct Host {
  Host(wasm::JitTier jit, host::Telemetry* tel);

  wasm::Linker linker;
  wali::WaliRuntime runtime;
  host::ModuleCache cache;
  std::unique_ptr<host::IoBackend> backend;
  host::IoUringBackend* uring = nullptr;  // null on the poll backend
  std::unique_ptr<host::Supervisor> sup;  // destroyed before the backend
};

wali::WaliRuntime::Options RuntimeOptions(wasm::JitTier jit) {
  wali::WaliRuntime::Options o;
  o.jit = jit;
  return o;
}

Host::Host(wasm::JitTier jit, host::Telemetry* tel)
    : runtime(&linker, RuntimeOptions(jit)) {
  cache.SetTelemetry(tel);
  if (host::IoUringAvailable()) {
    auto u = std::make_unique<host::IoUringBackend>();
    u->SetTelemetry(tel);
    uring = u.get();
    backend = std::move(u);
  } else {
    auto r = std::make_unique<host::IoReactor>();
    r->SetTelemetry(tel);
    backend = std::move(r);
  }
  host::Supervisor::Options o;
  o.workers = kWorkers;
  o.pool.max_idle_per_module = kWorkers;
  o.io_backend = backend.get();
  o.telemetry = tel;
  sup = std::make_unique<host::Supervisor>(&runtime, o);
}

// ---------------------------------------------------------- workloads ---

enum class Kind { kCompute, kKv, kEcho, kCold };

// A measured phase is cut into equal trials, a constant number per workload,
// so a faster or slower change splits its window as its parent does. Many
// short trials let the median over the calm ones step over the host's steal
// phases instead of averaging them in. A trial's p99 needs 1,000 guests
// (10 beyond it): in a 15 s phase kv gets about 1,100 a trial at 10 trials,
// echo about 5,000 at 60.
int Trials(Kind kind) { return kind == Kind::kEcho ? 60 : 10; }

// What every request of a run is generated from.
struct Inputs {
  Kind kind = Kind::kCompute;
  uint64_t seed = 0;
  std::string module;       // binary; the unpatched template for cold
  size_t nonce_offset = 0;  // cold
  bool corrupt_expected = false;
};

// One guest request as a front end issues it.
struct Request {
  const std::string* shared = nullptr;  // the workload's module
  std::string owned;                    // cold: this request's own module
  std::vector<std::string> argv;
  int32_t expected = 0;

  const std::string& bytes() const { return owned.empty() ? *shared : owned; }
};

// Closed-loop clients per worker: enough queued work that a worker never
// idles between guests, and deep enough that a guest's latency is mostly
// its wait in line, not the host's scheduling stalls. compute's guests are
// short (about 0.25 ms of worker time) and each kv guest's 128 parks are a
// chain of hand-offs between threads, so at 4 per worker one stall of a few
// milliseconds decides the p99 (kv's p99 spread 22% over five calm runs at
// 4, against 4% at 8). cold's clients decode on their own threads, so more
// of them there only add CPU contention.
size_t ClientsPerWorker(Kind kind) { return kind == Kind::kCold ? 4 : 8; }

Request MakeRequest(const Inputs& in, Rng& rng, uint32_t unique_id) {
  Request rq;
  rq.shared = &in.module;
  switch (in.kind) {
    case Kind::kCompute:
      rq.argv = {"compute"};
      rq.expected = 9;
      break;
    case Kind::kKv: {
      std::string payload = KvPayload(rng);
      rq.expected = KvExpected(payload);
      rq.argv = {"kv", std::move(payload)};
      break;
    }
    case Kind::kCold: {
      uint32_t nonce = Mix32(unique_id ^ static_cast<uint32_t>(in.seed));
      rq.owned = in.module;
      PatchColdNonce(&rq.owned, in.nonce_offset, nonce);
      rq.argv = {"cold"};
      rq.expected = ColdExpected(nonce);
      break;
    }
    case Kind::kEcho:
      break;  // served per connection by EchoLoad, which sets argv
  }
  if (in.corrupt_expected) rq.expected ^= 1;
  return rq;
}

// ------------------------------------------------------------ samples ---

// Per-guest layer split of a traced run (RunReport fields plus the
// benchmark's own submit->ready span).
struct Detail {
  int64_t submit_to_ready = 0;
  int64_t queue = 0, wall = 0, wali = 0, kernel = 0, blocked = 0,
          resume_queue = 0;
  uint64_t parks = 0, syscalls = 0, instrs = 0;
};

Detail DetailOf(const host::RunReport& r, int64_t submit_to_ready) {
  Detail d;
  d.submit_to_ready = submit_to_ready;
  d.queue = r.queue_nanos;
  d.wall = r.wall_nanos;
  d.wali = r.wali_nanos;
  d.kernel = r.kernel_nanos;
  d.blocked = r.blocked_nanos;
  d.resume_queue = r.resume_queue_nanos;
  d.parks = r.parks;
  d.syscalls = r.total_syscalls;
  d.instrs = r.executed_instrs;
  return d;
}

// Baseline-JIT counters of one module (wasm::JitModuleState).
struct JitTotals {
  uint64_t compiles = 0, compile_nanos = 0, tierups = 0, osr_exits = 0;
  uint32_t deopts_max = 0;

  void Add(const JitTotals& o) {
    compiles += o.compiles;
    compile_nanos += o.compile_nanos;
    tierups += o.tierups;
    osr_exits += o.osr_exits;
    deopts_max = std::max(deopts_max, o.deopts_max);
  }
};

JitTotals ReadJit(const wasm::Module& m) {
  JitTotals t;
  if (m.jit == nullptr) return t;
  const wasm::JitModuleState& js = *m.jit;
  t.compiles = js.compiles.load();
  t.compile_nanos = js.compile_nanos_sum.load();
  t.tierups = js.tierups.load();
  t.osr_exits = js.osr_exits.load();
  for (size_t f = 0; f < m.functions.size(); ++f) {
    t.deopts_max = std::max(t.deopts_max, js.slots[f].deopts.load());
  }
  return t;
}

// What the load threads produced since the last Take.
struct Batch {
  std::vector<int64_t> latency;  // guests with correct output only
  std::vector<Detail> details;   // traced phase only
  std::vector<int64_t> load_miss_nanos;
  JitTotals jit;  // cold: summed over each guest's own module
  uint64_t ok = 0, failed = 0;
  // Sums over every guest, traced or not: where its submit->ready time went.
  int64_t wall = 0, blocked = 0, resume_queue = 0, queue = 0;
};

class Collector {
 public:
  explicit Collector(bool keep_details) : keep_details_(keep_details) {}

  void Record(bool ok, int64_t latency, const Detail& d,
              const JitTotals* jit) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
      ++cur_.ok;
      cur_.latency.push_back(latency);
    } else {
      ++cur_.failed;
    }
    cur_.wall += d.wall;
    cur_.blocked += d.blocked;
    cur_.resume_queue += d.resume_queue;
    cur_.queue += d.queue;
    if (keep_details_) {
      cur_.details.push_back(d);
      if (jit != nullptr) cur_.jit.Add(*jit);
    }
  }
  void RecordLoadMiss(int64_t nanos) {
    if (!keep_details_) return;
    std::lock_guard<std::mutex> lock(mu_);
    cur_.load_miss_nanos.push_back(nanos);
  }
  Batch Take() {
    std::lock_guard<std::mutex> lock(mu_);
    Batch out = std::move(cur_);
    cur_ = Batch();
    return out;
  }
  bool keep_details() const { return keep_details_; }

 private:
  const bool keep_details_;
  std::mutex mu_;
  Batch cur_;
};

// Guests checked over the whole run (set-ups, warm-up, trials, drain).
struct Totals {
  uint64_t attempted = 0, failed = 0;
  void Add(const Batch& b) {
    attempted += b.ok + b.failed;
    failed += b.failed;
  }
};

std::atomic<int> g_reported_failures{0};

bool Check(const host::RunReport& r, int32_t expected, const char* what) {
  if (r.completed() && r.exit_code == expected) return true;
  if (g_reported_failures.fetch_add(1) < 5) {
    std::fprintf(stderr,
                 "hostbench: %s guest failed: outcome=%s trap=%s (%s) "
                 "exit=%d expected=%d\n",
                 what, host::OutcomeName(r.outcome), wasm::TrapKindName(r.trap),
                 r.trap_message.c_str(), r.exit_code, expected);
  }
  return false;
}

// -------------------------------------------------------- closed loop ---

// Loads the request's module through the host's cache (the front end),
// submits it, and waits for the report. Returns false when the output is
// wrong or the guest did not complete.
bool ServeOne(Host& h, const Request& rq, bool unique_module,
              Collector* col) {
  int64_t l0 = Now();
  auto module = h.cache.Load(rq.bytes());
  int64_t l1 = Now();
  if (!module.ok()) {
    std::fprintf(stderr, "hostbench: load failed: %s\n",
                 module.status().ToString().c_str());
    if (col != nullptr) col->Record(false, 0, Detail(), nullptr);
    return false;
  }
  host::GuestJob job;
  job.module = *module;
  job.argv = rq.argv;
  job.tenant = kTenant;
  int64_t t0 = Now();
  std::future<host::RunReport> fut = h.sup->Submit(std::move(job));
  fut.wait();
  int64_t t1 = Now();
  host::RunReport r = fut.get();
  bool ok = Check(r, rq.expected, "closed-loop");
  if (col != nullptr) {
    JitTotals jit;
    if (unique_module) {
      col->RecordLoadMiss(l1 - l0);
      if (col->keep_details()) jit = ReadJit(**module);
    }
    col->Record(ok, t1 - t0, DetailOf(r, t1 - t0),
                unique_module ? &jit : nullptr);
  }
  return ok;
}

// A running load generator; Stop() ends it and joins its threads.
class Load {
 public:
  virtual ~Load() = default;
  virtual void Stop() = 0;
};

class ClosedLoop : public Load {
 public:
  ClosedLoop(Host& h, const Inputs& in, Collector& col, uint32_t salt)
      : h_(h), in_(in), col_(col) {
    const size_t clients = kWorkers * ClientsPerWorker(in.kind);
    for (size_t c = 0; c < clients; ++c) {
      threads_.emplace_back([this, c, salt] { Client(c, salt); });
    }
  }
  ~ClosedLoop() override { Stop(); }

  void Stop() override {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  void Client(size_t c, uint32_t salt) {
    // Each client draws from its own stream, so the inputs a client sends
    // depend only on the seed, not on how the clients interleave.
    Rng rng(in_.seed * 0x100000001b3ULL + (salt << 8) + c + 1);
    uint32_t n = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      // Unique per run: salt (phase) | client | counter.
      uint32_t id = (salt << 28) | (static_cast<uint32_t>(c) << 24) | (n++ & 0xffffff);
      Request rq = MakeRequest(in_, rng, id);
      ServeOne(h_, rq, in_.kind == Kind::kCold, &col_);
    }
  }

  Host& h_;
  const Inputs& in_;
  Collector& col_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// --------------------------------------------------------------- echo ---

struct EchoConn {
  int client = -1;  // the benchmark's end
  int guest = -1;   // the guest's end (its fd travels in argv)
  std::future<host::RunReport> fut;
  int64_t submit = 0, wrote = 0;
  uint8_t byte = 0;
  bool live = false;  // a guest is serving this connection
};

bool MakeSocketPair(int* client, int* guest) {
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) return false;
  *client = sv[0];
  *guest = sv[1];
  return true;
}

void SubmitEcho(Host& h, const Inputs& in, EchoConn& c) {
  host::GuestJob job;
  auto module = h.cache.Load(in.module);
  if (module.ok()) job.module = *module;
  job.argv = {"echo", EchoFdArg(c.guest)};
  job.tenant = kTenant;
  c.submit = Now();
  c.fut = h.sup->Submit(std::move(job));
  c.live = true;
}

// Collects the report of a connection whose echo (`echoed`, or -1 when none
// arrived) has been read, and checks it against the byte sent.
bool FinishEcho(EchoConn& c, int echoed, int64_t read_at, bool corrupt,
                Collector* col) {
  c.fut.wait();
  int64_t ready = Now();
  host::RunReport r = c.fut.get();
  c.live = false;
  int32_t expected = corrupt ? (c.byte ^ 1) : c.byte;
  bool ok = Check(r, expected, "echo") && echoed == c.byte;
  if (col != nullptr) {
    col->Record(ok, read_at - c.wrote, DetailOf(r, ready - c.submit), nullptr);
  }
  return ok;
}

// One echo read back by the load thread: the connection, the byte (-1 on EOF or
// a short read), and when it was read. `arrived` is false when nothing came
// back before the deadline; that guest is stuck and is abandoned.
struct Echo {
  int id;
  int byte;
  int64_t read_at;
  bool arrived;
};

// Writes one byte to each connection in `ids` and reads every echo as it
// arrives.
void WakeBatch(std::vector<EchoConn>& conns, const std::vector<int>& ids,
               Rng& rng, std::vector<Echo>* echoes) {
  constexpr int kDeadlineMs = 10000;
  std::vector<struct pollfd> fds;
  for (int id : ids) {
    EchoConn& c = conns[id];
    c.byte = static_cast<uint8_t>(rng.Below(256));
    c.wrote = Now();
    bool sent = write(c.client, &c.byte, 1) == 1;
    fds.push_back({sent ? c.client : -1, POLLIN, 0});
    if (!sent) echoes->push_back({id, -1, Now(), false});
  }
  size_t pending = ids.size() - echoes->size();
  while (pending > 0 && poll(fds.data(), fds.size(), kDeadlineMs) > 0) {
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      uint8_t got = 0;
      int echoed = read(fds[i].fd, &got, 1) == 1 ? got : -1;
      echoes->push_back({ids[i], echoed, Now(), true});
      fds[i].fd = -1;
      --pending;
    }
  }
  for (size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].fd >= 0) echoes->push_back({ids[i], -1, Now(), false});
  }
}

class EchoLoad : public Load {
 public:
  EchoLoad(Host& h, const Inputs& in, Collector& col, uint32_t salt)
      : h_(h), in_(in), col_(col), rng_(in.seed * 0x9e3779b97f4a7c15ULL + salt) {
    conns_.resize(kEchoConnections);
    for (EchoConn& c : conns_) {
      if (MakeSocketPair(&c.client, &c.guest)) {
        SubmitEcho(h_, in_, c);
      } else {
        col_.Record(false, 0, Detail(), nullptr);
      }
    }
    load_thread_ = std::thread([this] { Drive(); });
  }
  ~EchoLoad() override {
    Stop();
    for (EchoConn& c : conns_) {
      close(c.client);
      close(c.guest);
    }
  }

  void Stop() override {
    stop_.store(true);
    if (load_thread_.joinable()) load_thread_.join();
  }

 private:
  // Wakes `ids`, checks every echo and report, and resubmits a fresh guest
  // on each connection when `resubmit`. False when a guest got stuck.
  bool Serve(const std::vector<int>& ids, bool resubmit) {
    std::vector<Echo> echoes;
    WakeBatch(conns_, ids, rng_, &echoes);
    bool stuck = false;
    for (const Echo& e : echoes) {
      EchoConn& c = conns_[e.id];
      if (!e.arrived) {
        std::fprintf(stderr, "hostbench: no echo on connection %d\n", e.id);
        col_.Record(false, 0, Detail(), nullptr);
        c.fut = std::future<host::RunReport>();  // abandoned to Shutdown
        c.live = false;
        stuck = true;
        continue;
      }
      FinishEcho(c, e.byte, e.read_at, in_.corrupt_expected, &col_);
      if (resubmit) SubmitEcho(h_, in_, c);
    }
    return !stuck;
  }

  // Wakes every connection once per round, in a seeded random order, a
  // batch at a time; then wakes the rest once more so no guest is left
  // parked.
  void Drive() {
    std::vector<int> order;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].live) order.push_back(static_cast<int>(i));
    }
    bool healthy = !order.empty();
    while (healthy && !stop_.load(std::memory_order_relaxed)) {
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng_.Below(static_cast<uint32_t>(i + 1))]);
      }
      for (size_t b = 0; healthy && b < order.size() && !stop_.load(); b += kEchoBatch) {
        std::vector<int> ids(order.begin() + b,
                             order.begin() + std::min(order.size(), b + kEchoBatch));
        healthy = Serve(ids, true);
      }
    }
    std::vector<int> live;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].live) live.push_back(static_cast<int>(i));
    }
    Serve(live, false);
  }

  Host& h_;
  const Inputs& in_;
  Collector& col_;
  Rng rng_;
  std::vector<EchoConn> conns_;
  std::atomic<bool> stop_{false};
  std::thread load_thread_;
};

std::unique_ptr<Load> StartLoad(Host& h, const Inputs& in, Collector& col,
                                uint32_t salt) {
  if (in.kind == Kind::kEcho) return std::make_unique<EchoLoad>(h, in, col, salt);
  return std::make_unique<ClosedLoop>(h, in, col, salt);
}

// ------------------------------------------------------------- set-up ---

// Builds a host and serves its first guest; returns the seconds that took
// and the time of the Load (a miss: the cache is new).
std::unique_ptr<Host> SetUp(const Inputs& in, double* setup_s,
                            int64_t* load_nanos, Totals* totals) {
  int64_t t0 = Now();
  auto h = std::make_unique<Host>(wasm::JitTier::kAuto, nullptr);
  Rng rng(in.seed ^ 0x5e7u);
  bool ok = false;
  int64_t l0 = Now();
  if (in.kind == Kind::kEcho) {
    auto module = h->cache.Load(in.module);
    *load_nanos = Now() - l0;
    std::vector<EchoConn> conns(1);
    EchoConn& c = conns[0];
    if (module.ok() && MakeSocketPair(&c.client, &c.guest)) {
      SubmitEcho(*h, in, c);
      std::vector<Echo> echoes;
      WakeBatch(conns, {0}, rng, &echoes);
      const Echo& e = echoes.front();
      ok = e.arrived && FinishEcho(c, e.byte, e.read_at, in.corrupt_expected, nullptr);
      close(c.client);
      close(c.guest);
    }
  } else {
    Request rq = MakeRequest(in, rng, 0xfffffffu);
    auto module = h->cache.Load(rq.bytes());
    *load_nanos = Now() - l0;
    ok = module.ok() && ServeOne(*h, rq, false, nullptr);
  }
  *setup_s = (Now() - t0) / 1e9;
  totals->attempted += 1;
  totals->failed += ok ? 0 : 1;
  return h;
}

// -------------------------------------------------------------- phases ---

// One trial's figures. Latency samples are summarized and dropped at the
// trial's end, so the benchmark's own memory does not grow with throughput
// and inflate rss_peak_mib.
struct Trial {
  double seconds = 0;
  double cpu_seconds = 0;
  double steal = 0;  // share of the machine's CPU time stolen by its host
  uint64_t ok = 0, failed = 0;
  int64_t p50 = 0, p99 = 0;
  // Per guest: worker run time, time parked, wait for a worker after a park
  // completes, and wait for the first worker.
  double wall_us = 0, blocked_us = 0, resume_queue_us = 0, queue_us = 0;

  double GuestsPerSecond() const { return Ratio(ok, seconds); }
  double LatencyMs(bool p99_not_p50) const { return (p99_not_p50 ? p99 : p50) / 1e6; }
  double CpuUsPerGuest() const { return Ratio(cpu_seconds * 1e6, ok); }
};

// The end-to-end figures of a phase are medians over the half of its trials
// with the least steal. A trial's guests/s and p99 follow the share of CPU
// time the hypervisor stole from the machine during it (on the 4-vCPU VM
// the benchmark was developed on, kv read 700 guests/s at 0.2% steal and
// 450 at 14%, at the same CPU per guest), and steal comes in phases that
// can cover much of a run. Steal is outside the program, and a change to
// the program moves every trial alike, so it still shows in the calm half.

struct Phase {
  std::vector<Trial> trials;
  Batch timed;  // details and spans of the whole timed window (traced)

  std::vector<const Trial*> Calmest() const {
    std::vector<const Trial*> v;
    for (const Trial& t : trials) v.push_back(&t);
    std::stable_sort(v.begin(), v.end(), [](const Trial* a, const Trial* b) {
      return a->steal < b->steal;
    });
    v.resize(v.size() / 2);
    return v;
  }
  double MedianOverCalmest(const std::function<double(const Trial&)>& f) const {
    std::vector<double> v;
    for (const Trial* t : Calmest()) v.push_back(f(*t));
    return Median(v);
  }
  double GuestsPerSecond() const {
    return MedianOverCalmest([](const Trial& t) { return t.GuestsPerSecond(); });
  }
  double LatencyMs(bool p99) const {
    return MedianOverCalmest([p99](const Trial& t) { return t.LatencyMs(p99); });
  }
  double CpuUsPerGuest() const {
    return MedianOverCalmest([](const Trial& t) { return t.CpuUsPerGuest(); });
  }
  uint64_t Samples() const {
    uint64_t n = 0;
    for (const Trial& t : trials) n += t.ok;
    return n;
  }
  uint64_t MinTrialSamples() const {
    uint64_t n = ~0ULL;
    for (const Trial& t : trials) n = std::min<uint64_t>(n, t.ok);
    return trials.empty() ? 0 : n;
  }
  uint64_t Attempted() const {
    uint64_t n = 0;
    for (const Trial& t : trials) n += t.ok + t.failed;
    return n;
  }
  uint64_t Failed() const {
    uint64_t n = 0;
    for (const Trial& t : trials) n += t.failed;
    return n;
  }
};

void Append(Batch* into, Batch&& from) {
  into->details.insert(into->details.end(), from.details.begin(), from.details.end());
  into->load_miss_nanos.insert(into->load_miss_nanos.end(),
                               from.load_miss_nanos.begin(), from.load_miss_nanos.end());
  into->jit.Add(from.jit);
  into->ok += from.ok;
  into->failed += from.failed;
}

// Runs load against `h`: a warm-up, then `measure_s` seconds cut into
// trials. `on_start`/`on_end` bracket the timed window (while the
// load is still running), for counter deltas.
Phase RunPhase(Host& h, const Inputs& in, bool traced, double warmup_s,
               double measure_s, uint32_t salt, Totals* totals,
               const std::function<void()>& on_start = nullptr,
               const std::function<void()>& on_end = nullptr) {
  Collector col(traced);
  Phase ph;
  std::unique_ptr<Load> load = StartLoad(h, in, col, salt);
  auto sleep_for = [](double s) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<int64_t>(s * 1e9)));
  };
  // Warm up for warmup_s and at least kWarmupGuests guests: the JIT tier
  // keeps re-entering a function that deopts until it has deopted 1024
  // times, so the first thousand-odd guests of a module are not steady
  // state.
  const int64_t warm_start = Now();
  const int64_t warm_end = warm_start + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t warm_cap = warm_end + static_cast<int64_t>(kMaxExtraWarmupS * 1e9);
  uint64_t warmed = 0;
  while (Now() < warm_cap && (Now() < warm_end || warmed < kWarmupGuests)) {
    sleep_for(0.05);
    Batch b = col.Take();
    warmed += b.ok + b.failed;
    totals->Add(b);
  }
  if (on_start) on_start();
  const int trials = Trials(in.kind);
  const double trial_s = measure_s / trials;
  for (int t = 0; t < trials; ++t) {
    double c0 = CpuSeconds();
    auto ticks0 = CpuTicks();
    int64_t t0 = Now();
    sleep_for(trial_s);
    Batch b = col.Take();
    Trial tr;
    tr.seconds = (Now() - t0) / 1e9;
    tr.cpu_seconds = CpuSeconds() - c0;
    auto ticks1 = CpuTicks();
    tr.steal = Ratio(ticks1.first - ticks0.first, ticks1.second - ticks0.second);
    const double guests = static_cast<double>(b.ok + b.failed);
    tr.wall_us = Ratio(b.wall / 1e3, guests);
    tr.blocked_us = Ratio(b.blocked / 1e3, guests);
    tr.resume_queue_us = Ratio(b.resume_queue / 1e3, guests);
    tr.queue_us = Ratio(b.queue / 1e3, guests);
    tr.ok = b.ok;
    tr.failed = b.failed;
    std::sort(b.latency.begin(), b.latency.end());
    tr.p50 = Percentile(b.latency, 0.5);
    tr.p99 = Percentile(b.latency, 0.99);
    totals->Add(b);
    Append(&ph.timed, std::move(b));
    ph.trials.push_back(std::move(tr));
  }
  if (on_end) on_end();
  load->Stop();
  totals->Add(col.Take());
  return ph;
}

// ------------------------------------------------------------- output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// `trials`, when given, adds each trial's steal and end-to-end figures, from
// which run.py pools the calm trials of several processes.
void PrintResult(const Totals& totals, const std::vector<Metric>& metrics,
                 const Phase* trials = nullptr) {
  std::string out = "{\"correct\": ";
  out += totals.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(totals.attempted);
  out += ", \"failed\": " + std::to_string(totals.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           FormatNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}";
  if (trials != nullptr) {
    out += ", \"trials\": [";
    for (size_t i = 0; i < trials->trials.size(); ++i) {
      const Trial& t = trials->trials[i];
      out += (i ? ", {" : "{") + std::string("\"steal\": ") + FormatNumber(t.steal) +
             ", \"guests_per_s\": " + FormatNumber(t.GuestsPerSecond()) +
             ", \"latency_p50_ms\": " + FormatNumber(t.LatencyMs(false)) +
             ", \"latency_p99_ms\": " + FormatNumber(t.LatencyMs(true)) +
             ", \"cpu_us_per_guest\": " + FormatNumber(t.CpuUsPerGuest()) + "}";
    }
    out += "]";
  }
  out += "}";
  std::printf("%s\n", out.c_str());
}

void PrintPhase(const char* label, const Phase& ph) {
  std::printf(
      "# %s: %.1f guests/s, latency p50 %.4f ms p99 %.4f ms over %llu samples "
      "(min %llu per trial), cpu %.1f us/guest, %llu failed of %llu\n",
      label, ph.GuestsPerSecond(), ph.LatencyMs(false), ph.LatencyMs(true),
      static_cast<unsigned long long>(ph.Samples()),
      static_cast<unsigned long long>(ph.MinTrialSamples()), ph.CpuUsPerGuest(),
      static_cast<unsigned long long>(ph.Failed()),
      static_cast<unsigned long long>(ph.Attempted()));
  // One line per trial, '*' on the calm ones the figures above come from.
  std::printf("# %s per trial: guests/s p99_ms cpu_us steal%% | per guest us: "
              "wall blocked resume_queue queue\n", label);
  const std::vector<const Trial*> calm = ph.Calmest();
  for (const Trial& t : ph.trials) {
    const bool used = std::find(calm.begin(), calm.end(), &t) != calm.end();
    std::printf("#  %c%7.0f %8.3f %7.1f %5.1f | %8.1f %8.1f %8.1f %8.1f\n", used ? '*' : ' ',
                t.GuestsPerSecond(), t.LatencyMs(true), t.CpuUsPerGuest(), t.steal * 100,
                t.wall_us, t.blocked_us, t.resume_queue_us, t.queue_us);
  }
}

// -------------------------------------------------------- per-layer run ---

uint64_t CounterValue(host::Telemetry& tel, const std::string& name) {
  return tel.registry().GetCounter(name)->value();
}

// kPark -> following kIoComplete of the same run, for events stamped inside
// [from, to].
std::vector<int64_t> ParkToComplete(const host::Telemetry::Snapshot& snap,
                                    int64_t from, int64_t to) {
  std::map<uint64_t, int64_t> open;
  std::vector<int64_t> out;
  for (const host::TraceEvent& ev : snap.spans) {
    if (ev.event == host::SpanEvent::kPark) {
      open[ev.run_id] = ev.t_nanos;
    } else if (ev.event == host::SpanEvent::kIoComplete) {
      auto it = open.find(ev.run_id);
      if (it == open.end()) continue;
      if (it->second >= from && ev.t_nanos <= to) out.push_back(ev.t_nanos - it->second);
      open.erase(it);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Median of direct InstancePool::Acquire calls on the workload's module (a
// fresh module per call for cold, as its guests see), Release untimed.
double AcquireMicros(Host& h, const Inputs& in) {
  host::InstancePool::Options po;
  po.max_idle_per_module = kWorkers;
  host::InstancePool pool(&h.runtime, po);
  Rng rng(in.seed ^ 0xacu);
  std::vector<double> us;
  for (int i = 0; i < kAcquireSamples; ++i) {
    Request rq = MakeRequest(in, rng, 0xe000000u + i);
    if (in.kind == Kind::kEcho) rq.argv = {"echo", EchoFdArg(0)};  // never run
    auto module = h.cache.Load(rq.bytes());
    if (!module.ok()) continue;
    int64_t t0 = Now();
    auto lease = pool.Acquire(*module, std::move(rq.argv), {});
    int64_t t1 = Now();
    if (!lease.ok()) continue;
    us.push_back((t1 - t0) / 1e3);
  }
  return Median(us);
}

std::vector<Metric> PerLayer(const Inputs& in, const Args& args,
                             const std::vector<int64_t>& setup_loads,
                             std::unique_ptr<Host> untraced, Totals* totals,
                             double warmup_s) {
  const double phase_s = args.seconds / 3;

  // A: untraced, the reference for telemetry.overhead and the JIT speedup.
  Phase a = RunPhase(*untraced, in, false, warmup_s, phase_s, 1, totals);
  PrintPhase("untraced", a);
  untraced.reset();

  // B: traced.
  host::Telemetry::Options topts;
  topts.span_capacity = 1 << 18;
  host::Telemetry tel(topts);
  Host h(wasm::JitTier::kAuto, &tel);
  const std::string io_label =
      std::string("{io_backend=\"") + (h.uring != nullptr ? "io_uring" : "poll") + "\"}";
  host::ModuleCache::Stats cache0, cache1;
  host::InstancePool::Stats pool0, pool1;
  host::IoUringBackend::Stats ring0, ring1;
  JitTotals jit0, jit1, jit_life;
  uint64_t submits0 = 0, submits1 = 0, cancels0 = 0, cancels1 = 0;
  int64_t w0 = 0, w1 = 0;
  // The workload's one module (none for cold, whose every job has its own).
  std::shared_ptr<const wasm::Module> wm;
  if (in.kind != Kind::kCold) {
    auto m = h.cache.Load(in.module);
    if (m.ok()) wm = *m;
  }
  auto read_counters = [&](host::ModuleCache::Stats* c, host::InstancePool::Stats* p,
                           host::IoUringBackend::Stats* r, JitTotals* j,
                           uint64_t* subs, uint64_t* cans, int64_t* when) {
    *when = Now();
    *c = h.cache.stats();
    *p = h.sup->pool().stats();
    if (h.uring != nullptr) *r = h.uring->stats();
    if (wm != nullptr) *j = ReadJit(*wm);
    *subs = CounterValue(tel, "io_submits_total" + io_label);
    *cans = CounterValue(tel, "io_cancels_total" + io_label);
  };
  Phase b = RunPhase(
      h, in, true, warmup_s, phase_s, 2, totals,
      [&] { read_counters(&cache0, &pool0, &ring0, &jit0, &submits0, &cancels0, &w0); },
      [&] { read_counters(&cache1, &pool1, &ring1, &jit1, &submits1, &cancels1, &w1); });
  PrintPhase("traced", b);
  host::Telemetry::Snapshot snap = tel.TakeSnapshot();
  host::Supervisor::IoStats io = h.sup->io_stats();
  if (wm != nullptr) jit_life = ReadJit(*wm);
  const double acquire_us = AcquireMicros(h, in);

  // C: untraced with the JIT off.
  double gps_jit_off = 0;
  {
    Host off(wasm::JitTier::kOff, nullptr);
    Phase c = RunPhase(off, in, false, warmup_s, phase_s, 3, totals);
    PrintPhase("jit-off", c);
    gps_jit_off = c.GuestsPerSecond();
  }

  // Per-guest sums over the traced timed window.
  const std::vector<Detail>& ds = b.timed.details;
  const double n = static_cast<double>(std::max<size_t>(ds.size(), 1));
  double wall = 0, wali = 0, kernel = 0, blocked = 0, resume_q = 0, overhead = 0;
  double parks = 0, syscalls = 0, instrs = 0;
  std::vector<int64_t> queue;
  for (const Detail& d : ds) {
    wall += d.wall;
    wali += d.wali;
    kernel += d.kernel;
    blocked += d.blocked;
    resume_q += d.resume_queue;
    overhead += d.submit_to_ready - d.queue - d.blocked - d.wall;
    parks += d.parks;
    syscalls += d.syscalls;
    queue.push_back(d.queue);
    instrs += d.instrs;
  }
  std::sort(queue.begin(), queue.end());

  JitTotals jit_timed;  // timed-window JIT activity
  if (in.kind == Kind::kCold) {
    jit_timed = b.timed.jit;
    jit_life = b.timed.jit;
  } else {
    jit_timed.tierups = jit1.tierups - jit0.tierups;
    jit_timed.osr_exits = jit1.osr_exits - jit0.osr_exits;
    jit_timed.deopts_max = jit1.deopts_max;
  }

  std::vector<int64_t> load_miss =
      in.kind == Kind::kCold ? b.timed.load_miss_nanos : setup_loads;
  std::sort(load_miss.begin(), load_miss.end());
  const double cache_lookups = static_cast<double>(
      (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses));
  const double pool_acquires = static_cast<double>(
      (pool1.hits - pool0.hits) + (pool1.misses - pool0.misses));
  std::vector<int64_t> p2c = ParkToComplete(snap, w0, w1);
  const double gps_untraced = a.GuestsPerSecond();
  const double gps_traced = b.GuestsPerSecond();
  const double attempted = static_cast<double>(b.Attempted());

  std::printf("# traced window: %zu guests, %zu park->complete spans, %llu spans dropped\n",
              ds.size(), p2c.size(), static_cast<unsigned long long>(snap.spans_dropped));

  return {
      {"module_cache.load_us", Percentile(load_miss, 0.5) / 1e3, "us"},
      {"module_cache.hit_ratio", Ratio(cache1.hits - cache0.hits, cache_lookups), "ratio"},
      {"jit.compile_us", Ratio(jit_life.compile_nanos / 1e3, jit_life.compiles), "us"},
      {"instance_pool.acquire_us", acquire_us, "us"},
      {"instance_pool.hit_ratio", Ratio(pool1.hits - pool0.hits, pool_acquires), "ratio"},
      {"instance_pool.drops", static_cast<double>(pool1.drops - pool0.drops), "count"},
      {"engine.instrs_per_guest", instrs / n, "count"},
      {"engine.compute_us_per_guest", (wall - wali - kernel) / n / 1e3, "us"},
      {"jit.osr_exits_per_guest", jit_timed.osr_exits / n, "count"},
      {"jit.tierups", jit_timed.tierups / n, "1/guest"},
      {"jit.deopts_max", static_cast<double>(jit_timed.deopts_max), "count"},
      {"jit.speedup_vs_threaded", Ratio(gps_untraced, gps_jit_off), "x"},
      {"wali.syscalls_per_guest", syscalls / n, "count"},
      {"wali.us_per_guest", wali / n / 1e3, "us"},
      {"wali.ns_per_syscall", Ratio(wali, syscalls), "ns"},
      {"kernel.us_per_guest", kernel / n / 1e3, "us"},
      {"supervisor.queue_us_p50", Percentile(queue, 0.5) / 1e3, "us"},
      {"supervisor.queue_us_p99", Percentile(queue, 0.99) / 1e3, "us"},
      {"supervisor.overhead_us_per_guest", overhead / n / 1e3, "us"},
      {"supervisor.parks_per_guest", parks / n, "count"},
      {"supervisor.blocked_us_per_guest", blocked / n / 1e3, "us"},
      {"supervisor.resume_queue_us_per_park", Ratio(resume_q / 1e3, parks), "us"},
      {"supervisor.peak_in_flight", static_cast<double>(io.peak_in_flight), "count"},
      {"io.park_to_complete_us_p50", Percentile(p2c, 0.5) / 1e3, "us"},
      {"io.park_to_complete_us_p99", Percentile(p2c, 0.99) / 1e3, "us"},
      {"io.submits_per_guest", (submits1 - submits0) / n, "count"},
      {"io.cancels", static_cast<double>(cancels1 - cancels0), "count"},
      {"io_uring.sqes_per_enter",
       Ratio(static_cast<double>(ring1.sqes - ring0.sqes), ring1.enters - ring0.enters),
       "ratio"},
      {"telemetry.overhead", Ratio(gps_untraced, gps_traced), "ratio"},
      {"telemetry.spans_dropped", static_cast<double>(snap.spans_dropped), "count"},
      {"error_rate", Ratio(static_cast<double>(b.Failed()), attempted), "ratio"},
  };
}

// ---------------------------------------------------------------- main ---

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload compute|kv|echo|cold --seed N "
               "--seconds S --trace 0|1 [--corrupt-expected]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") args.workload = value();
    else if (a == "--seed") args.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") args.seconds = std::atof(value().c_str());
    else if (a == "--trace") args.trace = value() == "1";
    else if (a == "--corrupt-expected") args.corrupt_expected = true;
    else return Usage();
  }
  if (args.seconds <= 0) return Usage();

  Inputs in;
  in.seed = args.seed;
  in.corrupt_expected = args.corrupt_expected;
  std::string wat, error;
  if (args.workload == "compute") {
    in.kind = Kind::kCompute;
    if (!ReadFile("examples/serve_guest.wat", &wat)) {
      std::fprintf(stderr, "hostbench: cannot read examples/serve_guest.wat\n");
      return 2;
    }
  } else if (args.workload == "kv") {
    in.kind = Kind::kKv;
    wat = KvGuestWat();
  } else if (args.workload == "echo") {
    in.kind = Kind::kEcho;
    wat = EchoGuestWat();
  } else if (args.workload == "cold") {
    in.kind = Kind::kCold;
    wat = ColdGuestWat();
  } else {
    return Usage();
  }
  in.module = EncodeWat(wat, &error);
  if (in.module.empty()) {
    std::fprintf(stderr, "hostbench: guest module: %s\n", error.c_str());
    return 2;
  }
  if (in.kind == Kind::kCold) {
    in.nonce_offset = FindColdNonce(in.module);
    if (in.nonce_offset == std::string::npos) {
      std::fprintf(stderr, "hostbench: cold guest has no nonce marker\n");
      return 2;
    }
  }

  const bool uring = host::IoUringAvailable();
  std::printf(
      "# env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"io_backend\": \"%s\", \"jit_available\": %s, \"threaded_dispatch\": %s, "
      "\"nproc\": %ld, \"build_type\": \"%s\", \"workers\": %zu, \"clients\": %zu, "
      "\"echo_connections\": %d}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, uring ? "io_uring" : "poll",
      wasm::JitAvailable() ? "true" : "false",
      wasm::ThreadedDispatchAvailable() ? "true" : "false", Nproc(),
      HOSTBENCH_BUILD_TYPE, kWorkers,
      in.kind == Kind::kEcho ? 1 : kWorkers * ClientsPerWorker(in.kind), kEchoConnections);
  std::fflush(stdout);

  Totals totals;
  std::vector<double> setups;
  std::vector<int64_t> setup_loads;
  auto set_up = [&] {
    double s = 0;
    int64_t load_nanos = 0;
    std::unique_ptr<Host> h = SetUp(in, &s, &load_nanos, &totals);
    setups.push_back(s);
    setup_loads.push_back(load_nanos);
    return h;
  };
  const double warmup_s = std::min(2.0, std::max(0.3, args.seconds / 10));

  std::vector<Metric> metrics;
  Phase ph;  // the measured phase of an untraced run
  std::unique_ptr<Host> h = set_up();
  if (!args.trace) {
    ph = RunPhase(*h, in, false, warmup_s, args.seconds, 0, &totals);
    h.reset();
    // Read before the remaining set-ups, whose hosts are not the workload's.
    const double rss_peak = PeakRssMiB();
    while (setups.size() < kSetups) set_up();
    PrintPhase("run", ph);
    std::vector<double> sorted = setups;
    std::sort(sorted.begin(), sorted.end());
    std::printf("# setup ms over %zu set-ups: min %.3f p25 %.3f median %.3f p75 %.3f max %.3f\n",
                sorted.size(), sorted.front() * 1e3, sorted[sorted.size() / 4] * 1e3,
                Median(sorted) * 1e3, sorted[sorted.size() * 3 / 4] * 1e3, sorted.back() * 1e3);
    std::printf("# error_rate %.6g (%llu of %llu timed guests failed)\n",
                Ratio(ph.Failed(), ph.Attempted()),
                static_cast<unsigned long long>(ph.Failed()),
                static_cast<unsigned long long>(ph.Attempted()));
    metrics = {
        {"guests_per_s", ph.GuestsPerSecond(), "1/s"},
        {"latency_p50_ms", ph.LatencyMs(false), "ms"},
        {"latency_p99_ms", ph.LatencyMs(true), "ms"},
        {"cpu_us_per_guest", ph.CpuUsPerGuest(), "us"},
        {"rss_peak_mib", rss_peak, "MiB"},
        {"setup_s", Median(setups), "s"},
    };
  } else {
    while (setups.size() < kSetups) {
      h.reset();
      h = set_up();
    }
    std::sort(setup_loads.begin(), setup_loads.end());
    metrics = PerLayer(in, args, setup_loads, std::move(h), &totals, warmup_s);
  }
  PrintResult(totals, metrics, args.trace ? nullptr : &ph);
  return totals.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::Main(argc, argv); }
