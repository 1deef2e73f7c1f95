// Supervisor: concurrent multi-tenant WALI hosting on a worker-thread pool,
// behind an admission-controlled, per-tenant fair queue.
//
// Submit enqueues a GuestJob on its tenant's bounded queue (beyond
// Options::queue_depth pending jobs the submit is rejected immediately with
// Outcome::kRejected). Workers pull jobs in weighted-round-robin order
// across tenants: each tenant gets `weight` consecutive slots per ring
// rotation, so under saturation a weight-2 tenant completes twice the runs
// of a weight-1 tenant and no tenant exceeds its share by more than one
// burst. A job whose deadline passes while still queued is shed at pop time
// (Outcome::kShed, zero guest execution).
//
// Each admitted job runs in its own WaliProcess (leased from an
// InstancePool, so warm submissions recycle linear-memory slabs) with a
// per-tenant SyscallPolicy and per-run fuel / frame limits. Every run is
// charged to the TenantLedger (fuel, thread-CPU, syscalls, memory
// high-water); tenants with a TenantBudget are refused once a cumulative
// limit is reached, and a run in progress is stopped at the next safepoint
// when its tenant's remaining fuel or CPU slice runs dry
// (Outcome::kBudget). The outcome of every run is collected into a
// RunReport: exit code or trap, resource consumption, syscall counts from
// the process's SyscallTrace, and wall / WALI / kernel time.
//
// Position in the stack (docs/ARCHITECTURE.md): guest module -> WALI/WASI
// syscall layer -> host supervisor. Every future scaling layer (sharding,
// async syscall batching) drives this interface.
#ifndef SRC_HOST_SUPERVISOR_H_
#define SRC_HOST_SUPERVISOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/host/instance_pool.h"
#include "src/host/io_reactor.h"
#include "src/host/telemetry.h"
#include "src/host/tenant_ledger.h"
#include "src/wali/policy.h"
#include "src/wasm/instance.h"

namespace host {

// One tenant request: which module to run, with what identity and limits.
struct GuestJob {
  std::shared_ptr<const wasm::Module> module;
  std::vector<std::string> argv;
  std::vector<std::string> env;
  // Optional per-tenant syscall policy, consulted before every dispatch.
  std::shared_ptr<wali::SyscallPolicy> policy;
  uint64_t fuel = 0;        // instruction budget; 0 = runtime default
  uint32_t max_frames = 0;  // call-depth cap; 0 = runtime default

  // Admission control. Jobs with the same tenant id share one bounded
  // queue, one scheduler weight, and one ledger account ("" is a valid
  // tenant). weight > 0 updates the tenant's weight; 0 keeps the current
  // one (tenants start at weight 1, and a tenant's weight lasts only while
  // it has queued work — an idle tenant's scheduler state is dropped, so
  // persistent weights must be re-supplied on submit). A nonzero deadline
  // (absolute, on the supervisor's clock) sheds the job if it is still
  // queued at that time.
  std::string tenant;
  uint32_t weight = 0;
  int64_t deadline_nanos = 0;
};

// Outcome (how a submitted job left the supervisor) and OutcomeName live in
// telemetry.h now — the span/series layer is keyed by them — and are
// re-exported here via the include above.

// Everything the host layer knows about one finished guest run.
struct RunReport {
  Outcome outcome = Outcome::kCompleted;
  std::string tenant;
  wasm::TrapKind trap = wasm::TrapKind::kNone;
  std::string trap_message;
  int32_t exit_code = 0;
  uint64_t executed_instrs = 0;
  // Resource consumption, as charged to the TenantLedger.
  uint64_t fuel_consumed = 0;          // == executed_instrs, ledger units
  uint64_t mem_high_water_pages = 0;   // linear-memory peak during the run
  int64_t cpu_nanos = 0;               // worker thread-CPU time (on-worker
                                       // segments only; parked time is free)
  uint64_t total_syscalls = 0;
  // (syscall name, count) for every syscall the guest issued.
  std::vector<std::pair<std::string, uint64_t>> syscall_counts;
  int64_t wall_nanos = 0;    // on-worker wall time (excludes parked time)
  int64_t wali_nanos = 0;    // time inside WALI handlers (exclusive)
  int64_t kernel_nanos = 0;  // time inside the kernel
  int64_t queue_nanos = 0;   // submit -> FIRST dispatch (or shed) latency;
                             // never includes parked/blocked time
  // Time spent parked off-worker in blocking syscalls (park -> resume
  // dispatch, summed over parks, on the supervisor's clock). A sleeping or
  // I/O-bound guest accrues blocked_nanos without holding a worker, so it
  // inflates neither queue_nanos nor cpu_nanos.
  int64_t blocked_nanos = 0;
  // The re-dispatch wait: I/O completion -> a worker picking the run back
  // up, summed over parks. A SUBSET of blocked_nanos — large values mean
  // completions are ready but workers are saturated, which is a scheduling
  // problem, not an I/O one.
  int64_t resume_queue_nanos = 0;
  // How many times the run parked at a syscall boundary (async offload).
  uint64_t parks = 0;
  // Global dispatch order (1-based); 0 for jobs that were never dispatched
  // to a worker (kRejected and kShed).
  uint64_t dispatch_seq = 0;
  bool pooled = false;  // served from a recycled slot

  // The run reached a normal end: fell off main or exited with any code.
  bool completed() const {
    return outcome == Outcome::kCompleted &&
           (trap == wasm::TrapKind::kNone || trap == wasm::TrapKind::kExit);
  }
};

class Supervisor {
 public:
  struct Options {
    size_t workers = 4;  // concurrent guests
    // Max pending jobs per tenant; submits beyond it fail immediately with
    // Outcome::kRejected. 0 = unbounded (no admission control).
    size_t queue_depth = 0;
    // Workers do not pick up jobs until Resume() is called. Lets tests (and
    // batch planners) build up a queue and observe pure scheduling order.
    bool start_paused = false;
    // Scheduler clock used for enqueue stamps and deadline shedding;
    // defaults to common::MonotonicNanos. Tests inject a manual clock here
    // to make shedding deterministic. Mid-run CPU budget enforcement always
    // uses the real monotonic clock.
    std::function<int64_t()> clock;
    // Async syscall offload. Non-null enables the park-at-the-WALI-boundary
    // path: a guest entering a blocking-capable syscall suspends
    // (kSyscallPending) instead of blocking its worker; the op is
    // registered here and the job is parked off-worker until the backend
    // completes it. Null (default) keeps the fully synchronous 1:1 model.
    // Borrowed; must outlive the supervisor's Shutdown. Suspended/resumed
    // runs are bit-identical to blocking runs in instruction counts, fuel,
    // and syscall results (tests/host_io_test.cc holds the line).
    IoBackend* io_backend = nullptr;
    // Observability sink. Non-null wires the supervisor (and its ledger,
    // pool, and guest runs) into the telemetry subsystem: span events for
    // every job lifecycle stage, process-wide counters/histograms, and
    // interpreter frame-entry profiling. Borrowed; must outlive Shutdown.
    Telemetry* telemetry = nullptr;
    // Where EvictParked writes snapshots ("evict-<cookie>.snap"). Empty
    // (default) keeps the serialized blob in memory — the slab is still
    // released, which is most of a parked guest's footprint; a directory
    // moves even the blob out of the process.
    std::string evict_dir;
    InstancePool::Options pool;
  };

  // `runtime` (and its linker) must outlive the supervisor. The runtime's
  // registry is immutable after construction, so workers share it freely.
  Supervisor(wali::WaliRuntime* runtime, const Options& options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Enqueues a job on its tenant's queue; the future resolves when the
  // guest finishes, is shed, or is rejected. Rejection (queue full,
  // supervisor shut down) resolves the future immediately.
  std::future<RunReport> Submit(GuestJob job);

  // Convenience barrier: submits every job and waits for all reports.
  // Reports are returned in SUBMISSION order, regardless of the order in
  // which the scheduler dispatches or completes them (reports[i] always
  // belongs to jobs[i]); RunReport.dispatch_seq carries the scheduler's
  // actual dispatch order for callers who need it.
  std::vector<RunReport> RunAll(std::vector<GuestJob> jobs);

  // Pauses/resumes job pickup. Already-running guests finish; queued jobs
  // (and deadline shedding, which happens at pop time) wait for Resume.
  void Pause();
  void Resume();

  // Drains the queue (Shutdown overrides Pause), then stops the workers.
  // Idempotent; the destructor calls it. Jobs submitted after Shutdown fail
  // with a kRejected / kHostError report.
  void Shutdown();

  const InstancePool& pool() const { return pool_; }
  TenantLedger& ledger() { return ledger_; }
  const TenantLedger& ledger() const { return ledger_; }
  size_t workers() const { return workers_.size(); }
  // Jobs currently queued across all tenants (excludes running guests).
  size_t queued() const;
  // Jobs currently parked off-worker in a blocking syscall.
  size_t parked() const;

  // Async-offload telemetry. in_flight counts dispatched-but-unfinished
  // jobs (running + parked + awaiting resume); with offload active it can
  // exceed the worker count — that headroom is the whole point.
  struct IoStats {
    size_t parked_now = 0;
    size_t ready_now = 0;           // completions awaiting a worker
    uint64_t in_flight_now = 0;
    uint64_t peak_in_flight = 0;
    uint64_t parks_total = 0;
    uint64_t resumes_total = 0;
    // Completions for cookies no longer parked (guest shed / shut down
    // before its I/O finished). Absorbed, never an error.
    uint64_t orphan_completions = 0;
    uint64_t sheds_while_parked = 0;
    uint64_t budget_stops_while_parked = 0;
    // Snapshot/restore lifecycle (EvictParked / the ResumeOne restore).
    size_t evicted_now = 0;
    uint64_t evicts_total = 0;
    uint64_t restores_total = 0;
  };
  IoStats io_stats() const;

  // ---- snapshot eviction (memory pressure on the parked set) ----
  //
  // A parked guest holds a pool lease: its linear-memory slab, instance,
  // and suspended interpreter stack stay resident for the whole blocking
  // syscall. EvictParked serializes that state (wali::SnapshotProcess) and
  // releases the lease; the entry stays in `parked_` under its cookie, so
  // the backend completion path is oblivious — when the op completes, the
  // worker that picks the run up restores it into a freshly leased slot
  // before resuming. Billing is untouched: the park already settled
  // consumed-so-far and released the reservation, so an evict/restore
  // cycle adds zero ledger events. The report's process-derived fields
  // (syscall counts, WALI/kernel time, memory high-water) are harvested
  // before the lease goes, and a run whose deadline passes or whose tenant
  // runs out of budget while it is evicted is finished without a restore,
  // with the same report a resident run would get.
  //
  // Only timer-class parks (sleeps, the threadless futex timer) are
  // evictable: an fd-class park (read, write, accept, connect, poll)
  // resumes by re-dispatching its syscall against the guest's live fds,
  // which the snapshot does not carry, so it refuses with Unimplemented and
  // the guest simply stays resident. The guest's host fds themselves stay
  // open while it is evicted; the restore re-adopts them.

  // Cookies of currently parked runs, oldest first (for pressure policies:
  // evict the longest-parked first).
  std::vector<uint64_t> parked_cookies() const;
  // Evicts one parked run by cookie. NotFound if the cookie is not parked
  // (already completed, restored, or never existed); FailedPrecondition /
  // Unimplemented if the park is not serializable; otherwise the snapshot
  // error. On success the run's lease is released (and the blob written to
  // Options::evict_dir when set).
  common::Status EvictParked(uint64_t cookie);
  // Evicts every eligible parked run; returns how many were evicted.
  size_t EvictAllParked();

  // Drops every trace of a tenant: queued jobs are rejected (their futures
  // resolve with Outcome::kRejected), the scheduler ring entry is removed,
  // and the ledger account — and, through the ledger's retention hook, the
  // tenant's telemetry series and spans — are forgotten. Runs already
  // dispatched or parked are NOT stopped; they finish under their own
  // outcome and re-create a fresh ledger/telemetry row.
  void ForgetTenant(const std::string& tenant);

 private:
  struct Task {
    GuestJob job;
    std::promise<RunReport> done;
    int64_t enqueue_nanos = 0;
    Telemetry::RunHandle trun;  // span handle; invalid when telemetry is off
  };

  // A dispatched run's full in-progress state. Lives on the worker's stack
  // between dispatch and completion for synchronous runs; moves into
  // `parked_` (keyed by backend cookie) while the guest is suspended in a
  // blocking syscall, and back out via `ready_` when the op completes.
  struct RunState {
    GuestJob job;
    std::promise<RunReport> done;
    InstancePool::Lease lease;
    wali::WaliRuntime::MainContinuation cont;
    TenantLedger::RunReservation reserved;
    // Consumption already settled into the ledger by earlier parks of this
    // run. A park RELEASES the reservation (settling consumed-so-far), so
    // a sleeping guest's unused slices go back to the tenant's pool and
    // cannot starve its runnable jobs; resume re-reserves after the Admit
    // re-check. Finish charges report totals MINUS this, so nothing is
    // billed twice.
    TenantUsage settled;
    bool fuel_clamped = false;
    RunReport report;  // accumulated across on-worker segments
    int64_t park_stamp = 0;       // clock_ at park, for blocked_nanos
    // The backend deadline was tightened to the job's deadline, so a
    // kTimedOut completion means "shed the parked guest", not "the
    // syscall's own timeout elapsed".
    bool timeout_is_shed = false;
    Telemetry::RunHandle trun;  // span handle; invalid when telemetry is off
    // Snapshot eviction (EvictParked): when set, the lease has been
    // released and the run lives only as serialized bytes — in
    // `evicted_snapshot`, or on disk at `evicted_path` when the supervisor
    // has an evict_dir. argv/env are stashed for the restore-time lease
    // (RunOne moved the job's copies into the original lease).
    bool evicted = false;
    std::vector<uint8_t> evicted_snapshot;
    std::string evicted_path;
    std::vector<std::string> saved_argv;
    std::vector<std::string> saved_env;
    // The guest's host fds, taken off the slot before its lease is
    // released: re-adopted on restore, closed if the run is dropped.
    std::vector<int> evicted_fds;
  };

  struct ReadyEntry {
    RunState st;
    IoCompletion completion;
    // clock_ at completion delivery, for RunReport::resume_queue_nanos (how
    // long the ready run waited for a worker).
    int64_t ready_stamp = 0;
  };

  // Per-tenant scheduler state. Entries exist only while the tenant has
  // queued work: PopLocked erases a drained tenant's entry, so an open
  // tenant namespace (hostile or not) cannot grow this map beyond the jobs
  // actually pending. (Cumulative accounting lives in the TenantLedger,
  // which by design does not self-evict — see TenantLedger::Forget.)
  struct TenantQueue {
    std::deque<Task> q;
    uint32_t weight = 1;
    uint32_t credits = 0;  // remaining slots in the current WRR burst
    bool in_ring = false;
  };

  void WorkerLoop();
  // Weighted-round-robin pop. Returns true with `*out` filled when a
  // runnable task was taken; expired-deadline tasks encountered at queue
  // heads are moved to `*shed` (they do not consume scheduling credit).
  bool PopLocked(Task* out, std::vector<Task>* shed);
  bool RunnableLocked() const { return !ring_.empty(); }

  // The run lifecycle. A job that never runs a guest instruction leaves
  // through Refuse. A dispatched run goes RunOne -> RunSegment, then
  // (ParkRun [-> EvictParked] -> ResumeOne -> RunSegment)* and always
  // leaves through Finish, whether it completed, trapped, or was stopped,
  // and whether its state sits in a pool slot or in snapshot bytes.
  //
  // Dispatches one task: admission, lease, memory cap, then its first
  // segment. Refuses the task if the tenant is over budget or no slot can
  // be leased.
  void RunOne(Task& task);
  // Continues a parked run whose op completed. Decides first: a run whose
  // deadline passed or whose tenant ran out of budget while it was parked
  // goes straight to Finish (an evicted one is never restored for that).
  // Otherwise restores an evicted run, materializes the syscall result and
  // runs the next segment.
  void ResumeOne(ReadyEntry entry);
  // One on-worker segment: reserves fresh budget slices (`fuel_demand`
  // bounds the fuel slice) and arms them as executed + slice fuel, now +
  // slice CPU deadline, run_syscalls + slice syscalls; then times RunMain
  // with `*first` (first dispatch) or, when `first` is null, ResumeMain
  // with `sys_ret`, and hands the run to ParkRun or Finish.
  void RunSegment(RunState&& st, wasm::ExecOptions* first,
                  uint64_t fuel_demand, int64_t sys_ret);
  // Parks a suspended run: settles consumed-so-far and releases the
  // reservation, tightens the op's deadline to the job's, registers it with
  // the backend. Sheds instead (via Finish) when the deadline already
  // passed or the supervisor is shutting down.
  void ParkRun(RunState st);
  // The only exit of a dispatched run. The caller has set report.outcome,
  // trap and message. A resident run is disarmed, its suspension dropped
  // and its report harvested from the process; an evicted one (no lease)
  // has its snapshot file removed and its fds closed. Then: settle totals
  // minus `settled`, charge runs / high-water / shed or budget_stops by
  // outcome plus `extra`, drop in_flight_, close the span, resolve.
  void Finish(RunState st, TenantUsage extra = {});
  // Fills the report's process-derived fields (syscall counts, WALI and
  // kernel time, memory high-water) from `proc`. Finish calls it for
  // resident runs, EvictParked before it releases the lease.
  void Harvest(wali::WaliProcess& proc, RunReport& report) const;
  // Rehydrates an evicted run into a freshly leased slot. On failure the
  // run is finished as kTrapped/kHostError (one host error, nothing
  // re-billed) and false is returned.
  bool RestoreParked(RunState& st);
  // Resolves a job that never ran: charges `delta` (null charges nothing),
  // closes the span, and resolves a control report carrying the caller's
  // queue_nanos / dispatch_seq (0 when the job never left the queue).
  void Refuse(Task& task, Outcome outcome, std::string message,
              const TenantUsage* delta, int64_t queue_nanos = 0,
              uint64_t dispatch_seq = 0);
  // Closes a run's span (kFinish + per-outcome counter). No-op without
  // telemetry; called once per BeginRun, by Refuse or Finish.
  void EndRunTel(Telemetry::RunHandle h, Outcome outcome, uint64_t fuel);

  wali::WaliRuntime* runtime_;
  InstancePool pool_;
  TenantLedger ledger_;
  std::function<int64_t()> clock_;
  size_t queue_depth_;
  IoBackend* io_;
  std::string evict_dir_;
  std::atomic<uint64_t> dispatch_seq_{0};

  // Telemetry wiring, resolved once at construction (null series handles
  // when tel_ is null; hot paths check tel_ only).
  Telemetry* tel_;
  metrics::Counter* c_submitted_ = nullptr;
  metrics::Counter* c_outcome_[kNumOutcomes] = {nullptr};
  metrics::Gauge* g_queue_depth_ = nullptr;
  metrics::Histogram* h_queue_ = nullptr;
  metrics::Histogram* h_run_wall_ = nullptr;
  metrics::Histogram* h_blocked_ = nullptr;
  metrics::Histogram* h_resume_queue_ = nullptr;
  metrics::Counter* c_evicts_ = nullptr;
  metrics::Counter* c_restores_ = nullptr;
  metrics::Gauge* g_evicted_now_ = nullptr;

  // Async-offload counters (outside mu_: bumped on hot completion paths).
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> peak_in_flight_{0};
  std::atomic<uint64_t> parks_total_{0};
  std::atomic<uint64_t> resumes_total_{0};
  std::atomic<uint64_t> orphan_completions_{0};
  std::atomic<uint64_t> sheds_while_parked_{0};
  std::atomic<uint64_t> budget_stops_while_parked_{0};
  std::atomic<uint64_t> evicts_total_{0};
  std::atomic<uint64_t> restores_total_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, TenantQueue> queues_;
  // Tenants with pending work, in rotation order (front = next scheduled).
  std::deque<std::string> ring_;
  // Runs suspended in a blocking syscall, keyed by backend cookie; moved to
  // ready_ by the completion handler and picked up by workers ahead of
  // fresh queue pops (a resumed guest holds a lease and budget slices — it
  // should leave, not wait behind new admissions).
  std::map<uint64_t, RunState> parked_;
  std::deque<ReadyEntry> ready_;
  uint64_t next_cookie_ = 1;
  bool paused_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace host

#endif  // SRC_HOST_SUPERVISOR_H_
