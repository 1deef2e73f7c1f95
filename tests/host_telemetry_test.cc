// Telemetry subsystem under the deterministic supervisor harness: span
// ordering across park/resume on a manual clock, counter exactness (every
// submitted job ends in exactly one outcome), tenant retention (Forget
// drops series AND spans), resume-queue latency attribution, IoStats/io_*
// consistency under a concurrent completion storm (the TSan CI job runs
// this), export formats, and interpreter hot-function profiling.
//
// Tests construct their OWN Telemetry instance — never Telemetry::Global()
// — so assertions can demand exact counts without cross-test bleed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/host/host.h"
#include "src/host/telemetry.h"
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

// Pure compute, no syscalls: deterministic fuel, completes immediately.
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

// Traps on its first instruction.
const char* kTrapGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    unreachable)
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

// Same shape as host_io_test's IoWorld, plus the telemetry sink. Members
// are ordered so the supervisor (declared last) shuts down first, while the
// backend and the telemetry it still references are alive.
struct TelWorld {
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wali::WaliRuntime> runtime;
  std::unique_ptr<host::ModuleCache> cache;
  std::unique_ptr<host::Telemetry> tel;
  std::unique_ptr<host::FakeIoBackend> fake =
      std::make_unique<host::FakeIoBackend>();
  ManualClock clock;
  std::unique_ptr<host::Supervisor> sup;
};

TelWorld MakeTelWorld(size_t workers, bool with_backend = true,
                      host::Telemetry::Options topts = {},
                      size_t queue_depth = 0, bool start_paused = false) {
  TelWorld w;
  w.linker = std::make_unique<wasm::Linker>();
  w.runtime = std::make_unique<wali::WaliRuntime>(w.linker.get());
  w.cache = std::make_unique<host::ModuleCache>();
  w.tel = std::make_unique<host::Telemetry>(topts);
  w.cache->SetTelemetry(w.tel.get());
  host::Supervisor::Options opts;
  opts.workers = workers;
  opts.queue_depth = queue_depth;
  opts.start_paused = start_paused;
  opts.clock = w.clock.fn();
  opts.pool.max_idle_per_module = workers;
  opts.telemetry = w.tel.get();
  if (with_backend) {
    w.fake->SetTelemetry(w.tel.get());
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

uint64_t CounterValue(const host::Telemetry::Snapshot& s,
                      const std::string& name) {
  for (const auto& [n, v] : s.registry.counters) {
    if (n == name) return v;
  }
  return 0;
}

int64_t GaugeValue(const host::Telemetry::Snapshot& s,
                   const std::string& name) {
  for (const auto& [n, v] : s.registry.gauges) {
    if (n == name) return v;
  }
  return 0;
}

const metrics::Registry::HistogramSnapshot* FindHistogram(
    const host::Telemetry::Snapshot& s, const std::string& name) {
  for (const auto& h : s.registry.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// Events of one run, in ring (= recording) order.
std::vector<host::TraceEvent> RunEvents(const host::Telemetry::Snapshot& s,
                                        uint64_t run_id) {
  std::vector<host::TraceEvent> out;
  for (const host::TraceEvent& e : s.spans) {
    if (e.run_id == run_id) out.push_back(e);
  }
  return out;
}

TEST(HostTelemetry, SpanOrderingAcrossParkResume) {
  // Every lifecycle stage of a parked run lands as a span event with the
  // supervisor's (manual) clock, so submit <= dispatch <= park <=
  // io_complete <= resume <= finish holds with EXACT timestamps.
  TelWorld w = MakeTelWorld(1, /*with_backend=*/true, {}, /*queue_depth=*/0,
                            /*start_paused=*/true);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  w.clock.Advance(1 * kMs);
  w.sup->Resume();  // dispatch at t=1ms
  ASSERT_TRUE(WaitForPending(*w.fake, 1));  // park also at t=1ms
  w.sup->Pause();
  w.clock.Advance(2 * kMs);
  w.fake->AdvanceBy(50 * kMs);  // io_complete at t=3ms (workers paused)
  w.clock.Advance(3 * kMs);
  w.sup->Resume();  // resume + finish at t=6ms
  host::RunReport r = fut.get();
  ASSERT_TRUE(r.completed()) << r.trap_message;

  host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
  ASSERT_FALSE(s.spans.empty());
  std::vector<host::TraceEvent> ev = RunEvents(s, s.spans[0].run_id);
  ASSERT_EQ(ev.size(), 6u);
  EXPECT_EQ(ev[0].event, host::SpanEvent::kSubmit);
  EXPECT_EQ(ev[1].event, host::SpanEvent::kDispatch);
  EXPECT_EQ(ev[2].event, host::SpanEvent::kPark);
  EXPECT_EQ(ev[3].event, host::SpanEvent::kIoComplete);
  EXPECT_EQ(ev[4].event, host::SpanEvent::kResume);
  EXPECT_EQ(ev[5].event, host::SpanEvent::kFinish);
  EXPECT_EQ(ev[0].t_nanos, 0);
  EXPECT_EQ(ev[1].t_nanos, 1 * kMs);
  EXPECT_EQ(ev[2].t_nanos, 1 * kMs);
  EXPECT_EQ(ev[3].t_nanos, 3 * kMs);
  EXPECT_EQ(ev[4].t_nanos, 6 * kMs);
  EXPECT_EQ(ev[5].t_nanos, 6 * kMs);
  for (size_t i = 1; i < ev.size(); ++i) {
    EXPECT_LE(ev[i - 1].t_nanos, ev[i].t_nanos);
  }
  EXPECT_EQ(ev[5].outcome, host::Outcome::kCompleted);
  EXPECT_GT(ev[2].fuel, 0u) << "park carries partial fuel";
  EXPECT_GE(ev[5].fuel, ev[2].fuel);
  // The tenant resolves by name.
  ASSERT_NE(s.tenant_names.find(ev[0].tenant), s.tenant_names.end());
  EXPECT_EQ(s.tenant_names.at(ev[0].tenant), "t");
}

TEST(HostTelemetry, CounterExactnessAcrossAllOutcomes) {
  // Sum of per-outcome counters == jobs submitted, with every one of the
  // five outcomes represented. One worker, bounded queue, paused pickup so
  // admission decisions are deterministic.
  TelWorld w = MakeTelWorld(1, /*with_backend=*/false, {}, /*queue_depth=*/4,
                            /*start_paused=*/true);
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok()) << burner.status().ToString();
  auto trapper = w.cache->Load(WrapModule(kTrapGuest));
  ASSERT_TRUE(trapper.ok()) << trapper.status().ToString();

  host::TenantBudget broke;
  broke.max_fuel = 1;  // the budget tenant's run stops almost immediately
  w.sup->ledger().SetBudget("broke", broke);

  std::vector<std::future<host::RunReport>> futs;
  futs.push_back(w.sup->Submit(MakeJob(*burner, "t")));                 // completed
  futs.push_back(w.sup->Submit(MakeJob(*burner, "t", /*ddl=*/5 * kMs)));  // shed
  futs.push_back(w.sup->Submit(MakeJob(*trapper, "t")));                // trapped
  futs.push_back(w.sup->Submit(MakeJob(*burner, "t")));                 // completed
  // Queue (depth 4) is now full for "t": the next two bounce.
  futs.push_back(w.sup->Submit(MakeJob(*burner, "t")));                 // rejected
  futs.push_back(w.sup->Submit(MakeJob(*burner, "t")));                 // rejected
  futs.push_back(w.sup->Submit(MakeJob(*burner, "broke")));             // budget

  w.clock.Advance(10 * kMs);  // expires the 5ms deadline while still queued
  w.sup->Resume();
  int completed = 0, trapped = 0, shed = 0, rejected = 0, budget = 0;
  for (auto& f : futs) {
    switch (f.get().outcome) {
      case host::Outcome::kCompleted: ++completed; break;
      case host::Outcome::kTrapped: ++trapped; break;
      case host::Outcome::kShed: ++shed; break;
      case host::Outcome::kRejected: ++rejected; break;
      case host::Outcome::kBudget: ++budget; break;
    }
  }
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(trapped, 1);
  EXPECT_EQ(shed, 1);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(budget, 1);

  host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
  EXPECT_EQ(CounterValue(s, "supervisor_jobs_submitted_total"), 7u);
  uint64_t outcome_sum = 0;
  for (size_t i = 0; i < host::kNumOutcomes; ++i) {
    outcome_sum += CounterValue(
        s, std::string("supervisor_jobs_total{outcome=\"") +
               host::OutcomeName(static_cast<host::Outcome>(i)) + "\"}");
  }
  EXPECT_EQ(outcome_sum, 7u) << "every submitted job ends in exactly one outcome";
  EXPECT_EQ(CounterValue(s, "supervisor_jobs_total{outcome=\"completed\"}"), 2u);
  EXPECT_EQ(CounterValue(s, "supervisor_jobs_total{outcome=\"rejected\"}"), 2u);
  EXPECT_EQ(GaugeValue(s, "supervisor_queue_depth"), 0);

  // Per-tenant series agree, and every span run closed with one kFinish.
  uint64_t tenant_submitted = 0, tenant_outcomes = 0;
  for (const auto& [name, series] : s.tenants) {
    tenant_submitted += series.submitted;
    for (size_t i = 0; i < host::kNumOutcomes; ++i) {
      tenant_outcomes += series.outcomes[i];
    }
  }
  EXPECT_EQ(tenant_submitted, 7u);
  EXPECT_EQ(tenant_outcomes, 7u);
  int submits = 0, finishes = 0;
  for (const host::TraceEvent& e : s.spans) {
    submits += e.event == host::SpanEvent::kSubmit;
    finishes += e.event == host::SpanEvent::kFinish;
  }
  EXPECT_EQ(submits, 7);
  EXPECT_EQ(finishes, 7);
  // The trap surfaced in the ledger's denial counters? No — traps are not
  // denials; the fuel-slice stop for "broke" is:
  EXPECT_GE(CounterValue(s, "ledger_denials_total{resource=\"fuel\"}") +
                CounterValue(s, "supervisor_jobs_total{outcome=\"budget\"}"),
            1u);
}

TEST(HostTelemetry, ForgetDropsSeriesAndSpans) {
  // Mirrors the ledger retention test: Supervisor::ForgetTenant (and the
  // TenantLedger::Forget it delegates to) must drop the tenant's metric
  // series and every span it still has in the ring — queued jobs reject,
  // other tenants are untouched.
  TelWorld w = MakeTelWorld(1, /*with_backend=*/false);
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  EXPECT_TRUE(w.sup->Submit(MakeJob(*burner, "gone")).get().completed());
  EXPECT_TRUE(w.sup->Submit(MakeJob(*burner, "kept")).get().completed());
  {
    host::Telemetry::Snapshot before = w.tel->TakeSnapshot();
    EXPECT_EQ(before.tenants.size(), 2u);
    EXPECT_FALSE(before.spans.empty());
  }

  // A job still queued when the tenant is forgotten resolves as rejected.
  w.sup->Pause();
  std::future<host::RunReport> queued = w.sup->Submit(MakeJob(*burner, "gone"));
  w.sup->ForgetTenant("gone");
  EXPECT_EQ(queued.get().outcome, host::Outcome::kRejected);
  w.sup->Resume();

  host::Telemetry::Snapshot after = w.tel->TakeSnapshot();
  ASSERT_EQ(after.tenants.size(), 1u);
  EXPECT_EQ(after.tenants[0].first, "kept");
  EXPECT_EQ(after.tenants[0].second.submitted, 1u);
  for (const host::TraceEvent& e : after.spans) {
    auto it = after.tenant_names.find(e.tenant);
    if (it != after.tenant_names.end()) {
      EXPECT_NE(it->second, "gone") << "forgotten tenant's spans must be gone";
    }
  }
  // The ledger agrees (same retention hook).
  EXPECT_EQ(w.sup->ledger().usage("gone").runs, 0u);
}

TEST(HostTelemetry, ResumeQueueNanosIsCompletionToRedispatch) {
  // resume_queue_nanos isolates "completion delivered -> worker re-dispatch"
  // from total blocked time: park at t=0, completion at t=3ms (workers
  // paused), re-dispatch at t=8ms => blocked 8ms, of which 5ms resume-queue.
  TelWorld w = MakeTelWorld(1);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok());

  std::future<host::RunReport> fut = w.sup->Submit(MakeJob(*module, "t"));
  ASSERT_TRUE(WaitForPending(*w.fake, 1));  // parked at t=0
  w.sup->Pause();
  w.clock.Advance(3 * kMs);
  w.fake->AdvanceBy(50 * kMs);  // ready_stamp = 3ms; no worker may take it
  w.clock.Advance(5 * kMs);
  w.sup->Resume();  // re-dispatch at t=8ms

  host::RunReport r = fut.get();
  ASSERT_TRUE(r.completed()) << r.trap_message;
  EXPECT_EQ(r.blocked_nanos, 8 * kMs);
  EXPECT_EQ(r.resume_queue_nanos, 5 * kMs);

  host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
  const metrics::Registry::HistogramSnapshot* h =
      FindHistogram(s, "supervisor_resume_queue_nanos");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->sum, 5 * kMs);
}

TEST(HostTelemetry, IoStatsAndCountersConsistentUnderCompletionStorm) {
  // Concurrent park/complete storm (drive this under TSan): scripted
  // completions from one thread race the manual-clock advancer and
  // snapshot readers; afterwards every io_* series balances exactly, and a
  // shutdown with parked guests accounts its cancellations.
  TelWorld w = MakeTelWorld(4);
  auto module = w.cache->Load(WrapModule(kSleeperGuest));
  ASSERT_TRUE(module.ok());

  constexpr size_t kRuns = 12;
  std::vector<std::future<host::RunReport>> futs;
  for (size_t i = 0; i < kRuns; ++i) {
    futs.push_back(w.sup->Submit(MakeJob(*module, "t" + std::to_string(i % 3))));
  }
  ASSERT_TRUE(WaitForPending(*w.fake, kRuns));
  std::vector<uint64_t> cookies = w.fake->PendingCookies();
  ASSERT_EQ(cookies.size(), kRuns);

  std::thread completer([&] {
    for (size_t i = 0; i < cookies.size() / 2; ++i) {
      w.fake->CompleteReady(cookies[i]);
    }
  });
  std::thread advancer([&] {
    for (int i = 0; i < 10; ++i) {
      w.fake->AdvanceBy(5 * kMs);  // 50ms total: the rest complete by timer
    }
  });
  std::thread reader([&] {
    for (int i = 0; i < 50; ++i) {
      (void)w.sup->io_stats();
      host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
      EXPECT_LE(GaugeValue(s, "io_in_flight{io_backend=\"fake\"}"), static_cast<int64_t>(kRuns));
    }
  });
  completer.join();
  advancer.join();
  reader.join();
  for (auto& f : futs) {
    EXPECT_TRUE(f.get().completed());
  }

  host::Supervisor::IoStats io = w.sup->io_stats();
  EXPECT_EQ(io.parks_total, kRuns);
  EXPECT_EQ(io.resumes_total, kRuns);
  EXPECT_EQ(io.in_flight_now, 0u);
  {
    host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
    EXPECT_EQ(CounterValue(s, "io_submits_total{io_backend=\"fake\"}"), kRuns);
    EXPECT_EQ(CounterValue(s, "io_completions_total{io_backend=\"fake\"}"), kRuns);
    EXPECT_EQ(CounterValue(s, "io_cancels_total{io_backend=\"fake\"}"), 0u);
    EXPECT_EQ(GaugeValue(s, "io_in_flight{io_backend=\"fake\"}"), 0);
  }

  // Shutdown with guests still parked cancels their ops; the io_* series
  // keep balancing: submits == completions + cancels, in-flight back to 0.
  std::future<host::RunReport> parked1 = w.sup->Submit(MakeJob(*module, "t0"));
  std::future<host::RunReport> parked2 = w.sup->Submit(MakeJob(*module, "t1"));
  ASSERT_TRUE(WaitForPending(*w.fake, 2));
  w.sup->Shutdown();
  (void)parked1.get();
  (void)parked2.get();
  host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
  EXPECT_EQ(CounterValue(s, "io_submits_total{io_backend=\"fake\"}"),
            CounterValue(s, "io_completions_total{io_backend=\"fake\"}") +
                CounterValue(s, "io_cancels_total{io_backend=\"fake\"}"));
  EXPECT_EQ(CounterValue(s, "io_cancels_total{io_backend=\"fake\"}"), 2u);
  EXPECT_EQ(GaugeValue(s, "io_in_flight{io_backend=\"fake\"}"), 0);
}

TEST(HostTelemetry, SpanRingIsBoundedAndCountsDrops) {
  host::Telemetry::Options topts;
  topts.span_capacity = 4;
  TelWorld w = MakeTelWorld(1, /*with_backend=*/false, topts);
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  // 3 runs x 3 events (submit/dispatch/finish) = 9 > 4: oldest spill out.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(w.sup->Submit(MakeJob(*burner, "t")).get().completed());
  }
  host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
  EXPECT_LE(s.spans.size(), 4u);
  EXPECT_EQ(s.spans.size() + s.spans_dropped, 9u);
  // Counters are unaffected by span eviction.
  EXPECT_EQ(CounterValue(s, "supervisor_jobs_submitted_total"), 3u);
}

TEST(HostTelemetry, PrometheusJsonAndChromeTraceExports) {
  TelWorld w = MakeTelWorld(1, /*with_backend=*/false);
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());
  EXPECT_TRUE(w.sup->Submit(MakeJob(*burner, "t")).get().completed());
  EXPECT_TRUE(w.sup->Submit(MakeJob(*burner, "t")).get().completed());

  std::string prom = w.tel->PrometheusText();
  EXPECT_NE(prom.find("# TYPE supervisor_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("supervisor_jobs_submitted_total 2"), std::string::npos);
  EXPECT_NE(prom.find("supervisor_jobs_total{outcome=\"completed\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE supervisor_run_wall_nanos histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("supervisor_run_wall_nanos_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("supervisor_run_wall_nanos_count 2"), std::string::npos);
  EXPECT_NE(prom.find("host_tenant_jobs_submitted_total{tenant=\"t\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("wasm_func_entries_total"), std::string::npos)
      << "profiled function entries must export";

  std::string json = w.tel->JsonText();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"tenants\""), std::string::npos);
  EXPECT_NE(json.find("\"hot_functions\""), std::string::npos);
  EXPECT_NE(json.find("\"supervisor_jobs_submitted_total\":2"),
            std::string::npos);

  std::string trace = w.tel->ChromeTraceJson();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("tenant:t"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"run\""), std::string::npos);
}

TEST(HostTelemetry, HotFunctionProfileCountsEntriesAndFuel) {
  // The interpreter's frame-entry hooks feed per-function counters on the
  // module; the cache registered the module, so the snapshot surfaces it.
  // One local function, N runs => entries == N and, with complete fuel
  // attribution (HarvestResult flushes the open window), per-function fuel
  // == total fuel the reports billed.
  TelWorld w = MakeTelWorld(1, /*with_backend=*/false);
  auto burner = w.cache->Load(WrapModule(kBurnGuest));
  ASSERT_TRUE(burner.ok());

  uint64_t fuel_total = 0;
  constexpr int kRuns = 3;
  for (int i = 0; i < kRuns; ++i) {
    host::RunReport r = w.sup->Submit(MakeJob(*burner, "t")).get();
    ASSERT_TRUE(r.completed());
    fuel_total += r.fuel_consumed;
  }
  ASSERT_GT(fuel_total, 0u);

  host::Telemetry::Snapshot s = w.tel->TakeSnapshot();
  ASSERT_EQ(s.hot_functions.size(), 1u);
  const host::Telemetry::HotFunction& hf = s.hot_functions[0];
  EXPECT_FALSE(hf.module.empty());
  EXPECT_FALSE(hf.func.empty());
  EXPECT_EQ(hf.entries, static_cast<uint64_t>(kRuns));
  EXPECT_EQ(hf.fuel, fuel_total)
      << "per-function fuel must sum to executed instructions";
}

}  // namespace
