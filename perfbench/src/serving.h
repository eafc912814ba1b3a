// Pieces every workload of the benchmark shares: query classes with their
// classic reference answers, the approximate-answer soundness check, the
// closed-loop client runner, the open-loop ingest writer, and the layer
// probes of the traced run.

#ifndef WASTENOT_PERFBENCH_SERVING_H_
#define WASTENOT_PERFBENCH_SERVING_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "columnstore/database.h"
#include "core/plan.h"
#include "core/query.h"
#include "device/device.h"
#include "device/residency_cache.h"
#include "server/query_server.h"
#include "storage/mutable_table.h"

namespace wastenot::perfbench {

inline constexpr server::EngineKind kEngines[] = {
    server::EngineKind::kAr, server::EngineKind::kClassic,
    server::EngineKind::kStreaming};
const char* EngineName(server::EngineKind engine);

/// One query shape a workload sends, with the answer every engine must
/// return for it. Exactly one of `spec` and `plan` is set.
struct QueryClass {
  std::string name;  ///< unique within the workload ("Q6.1994", "Q3")
  std::optional<core::QuerySpec> spec;
  std::optional<core::PhysicalPlan> plan;
  core::QueryResult reference;
  std::vector<core::AggFunc> funcs;  ///< aggregate functions, in order
};

QueryClass SpecClass(std::string name, core::QuerySpec spec);
QueryClass PlanClass(std::string name, core::PhysicalPlan plan);

/// Fills every class's reference with the classic engine on `db`.
Status ComputeReferences(const cs::Database& db,
                         std::vector<QueryClass>* classes);

/// The strict-bounds contract of an approximate answer: every exact group
/// lies in exactly one pre-group, and each pre-group's intervals contain
/// the exact aggregates of the groups it holds.
bool ApproxContains(const core::ApproximateAnswer& approx,
                    const core::QueryResult& exact,
                    const std::vector<core::AggFunc>& funcs);

/// One request of a client's fixed sequence.
struct Request {
  size_t cls = 0;
  server::EngineKind engine = server::EngineKind::kAr;
};

/// What a client saw for one request.
struct Outcome {
  uint64_t request_id = 0;
  size_t cls = 0;
  server::EngineKind engine = server::EngineKind::kAr;  ///< requested
  bool traced = false;
  bool ok = false;       ///< both futures resolved OK
  bool correct = false;  ///< refined answer (and bounds) checked correct
  bool approximate = false;  ///< an approximate answer preceded the exact
  double submit_s = 0;   ///< NowSeconds() before the submit call
  double first_s = 0;    ///< first answer available to the client
  double done_s = 0;     ///< refined answer available to the client
  double server_latency_s = 0;  ///< QueryResponse::latency_seconds
  double queue_s = 0;           ///< QueryResponse::queue_seconds
  core::ExecutionBreakdown breakdown;
  uint64_t pending_rows = 0;  ///< delta rows seen at submit (ingest only)

  double client_ms() const { return (done_s - submit_s) * 1e3; }
  double first_ms() const { return (first_s - submit_s) * 1e3; }
};

/// Checks one response: returns whether it is correct. The default checker
/// compares with the class reference and, for approximate answers, the
/// soundness of the bounds against it.
using Checker = std::function<bool(const QueryClass&, const Outcome&,
                                   const server::QueryResponse&,
                                   const server::ApproximateResponse&)>;
bool CheckAgainstReference(const QueryClass& cls, const Outcome& outcome,
                           const server::QueryResponse& refined,
                           const server::ApproximateResponse& approx);

/// Submits one request on behalf of client `client`.
using SubmitFn =
    std::function<server::ProgressiveFutures(unsigned client, const Request&)>;

/// Runs `sequences.size()` closed-loop clients: client c replays
/// sequences[c] cyclically, sending its next request once the previous
/// refined answer arrived, until `seconds` have passed; requests in flight
/// then complete and count. In a traced run every other request (by
/// client-local index) records a span annotated with its response fields,
/// so traced and untraced requests interleave under identical load.
/// `before_submit` (optional) runs on the client thread before each submit
/// and returns the outcome's pending_rows.
struct LoopResult {
  std::vector<Outcome> outcomes;
  double start_s = 0;
  double makespan_s = 0;  ///< start → last refined answer
};
LoopResult RunClosedLoop(const std::vector<std::vector<Request>>& sequences,
                         const std::vector<QueryClass>& classes,
                         double seconds, const SubmitFn& submit,
                         const Checker& checker, Tracer* tracer,
                         const std::function<uint64_t()>& before_submit = {});

/// End-to-end metrics over a loop's outcomes: qps, p50/p95 (p99 where the
/// sample supports it), first-answer p50, mean modelled device+bus time.
/// Percentiles cover untraced requests only in a traced run.
void AddServingMetrics(const LoopResult& loop, bool traced_run,
                       Report* report);

/// Kernel-cache and residency-cache counters summed over a workload's
/// devices and streaming caches.
struct DeviceCounters {
  uint64_t kernel_hits = 0;
  uint64_t kernels_compiled = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
};
DeviceCounters SampleDevices(
    const std::vector<device::Device*>& devices,
    const std::vector<const device::ResidencyCache*>& caches);

/// device.* metrics of a window: mean modelled kernel and bus ms per
/// served request, cache hit rates and evictions from the counter deltas.
void AddDeviceMetrics(const LoopResult& loop, const DeviceCounters& before,
                      const DeviceCounters& after, Report* report);

/// scheduler.share.{ar,classic,streaming} from per-engine dispatch counts
/// over a window, and scheduler.degraded.
void AddEngineShares(const std::array<uint64_t, 3>& before,
                     const std::array<uint64_t, 3>& after, uint64_t degraded,
                     Report* report);

/// error_rate (failures over attempted) and server.refused.
void AddFailureMetrics(uint64_t attempted, uint64_t failures,
                       uint64_t refused, Report* report);

/// Per-request server-side metrics from a traced loop's annotated spans:
/// server.queue_ms.p50, server.exec_ms.p50, scheduler.wait_ms.p50,
/// server.overhead_ms.p50 (served execution minus the direct-call median of
/// the same class and engine, `direct_ms[cls][engine]`) and
/// trace.overhead_pct (traced against untraced client p50).
void AddTracedServingMetrics(
    const LoopResult& loop, const Tracer& tracer,
    const std::vector<std::vector<double>>& direct_ms, Report* report);

/// Serial direct-call replay of one class on one engine: runs `exec` until
/// `reps` runs or `budget_s` seconds (at least one run), recording a span
/// "core.exec" per run. Returns the median wall ms.
struct DirectRun {
  double wall_ms = 0;
  double phase_r_ms = 0;  ///< host_cpu_seconds (A&R only)
  uint64_t candidates = 0;
  uint64_t refined = 0;
  double modelled_ms = 0;  ///< device + bus
};
using ExecFn = std::function<StatusOr<DirectRun>()>;
StatusOr<DirectRun> ReplayClass(const std::string& label, const ExecFn& exec,
                                int reps, double budget_s, Tracer* tracer);

/// Aggregates per-class direct runs ([class][engine]) into the per-engine
/// core.* metrics, and records each class's own values.
void AddCoreMetrics(const std::vector<QueryClass>& classes,
                    const std::vector<std::vector<DirectRun>>& runs,
                    Report* report);

/// device.launch_us: median Device::Launch of an empty 64-element grid.
void ProbeDeviceLaunch(device::Device* dev, Tracer* tracer, Report* report);
/// bwd.scan_melem_s: packed-codec MatchBlock rate over `column`'s digits.
void ProbeCodecScan(const bwd::BwdColumn& column, Tracer* tracer,
                    Report* report);
/// core.plan.lower_us: LowerToPlan + ValidatePlan + PlanToSpec per class.
void ProbePlanLowering(const std::vector<QueryClass>& classes,
                       const cs::Database& db, Tracer* tracer,
                       Report* report);
/// scheduler.decide_us: AdaptiveScheduler::Decide per class on `backend`.
void ProbeSchedulerDecide(const server::QueryServer::Backend& backend,
                          const std::vector<QueryClass>& classes,
                          Tracer* tracer, Report* report);

/// Produces row `index` of an ingest stream (3 int64 values).
using RowFn = std::function<void(uint64_t index, int64_t* row)>;

/// Open-loop writer: appends `batch`-row batches at `rows_per_s` offered
/// rate, each followed by one group commit, until `seconds` pass. Commit
/// latency is timed from the batch's due time. Appends go through `server`
/// when set, else straight into `table`.
struct IngestResult {
  uint64_t acked_rows = 0;  ///< rows covered by OK commits (after `first_row`)
  uint64_t next_row = 0;    ///< index of the next row the stream would write
  uint64_t refused = 0;     ///< appends refused by backlog admission
  uint64_t failed_commits = 0;
  double seconds = 0;
  std::vector<double> commit_ms;
  std::vector<double> flush_ms;
  std::vector<double> late_ms;
  std::vector<double> pending_rows;  ///< delta rows after each commit
  double append_us_per_row = 0;
  uint64_t swaps = 0;         ///< swaps during the stream
  uint64_t failed_swaps = 0;
  uint64_t rows_reencoded = 0;  ///< Σ base rows rebuilt by those swaps
};
IngestResult RunIngestWriter(storage::MutableTable* table,
                             server::QueryServer* server, const RowFn& row,
                             uint64_t first_row, double rows_per_s,
                             uint64_t batch, double seconds, Tracer* tracer);

/// storage.* metrics from a writer run (plus recovery/drain timings the
/// caller measured).
void AddStorageMetrics(const IngestResult& ingest, double recovery_s,
                       double drain_s, double pending_rows_p50,
                       Report* report);

/// Storage replay for workloads that do not ingest: streams `rows` of the
/// workload's own fact columns into a temporary MutableTable under `dir`
/// with the writer above, then reopens it (recovery) and times one
/// synchronous drain. Returns false if the reopened table lost acked rows.
bool ReplayStorage(const std::string& dir, const cs::Table& fact,
                   const std::vector<std::string>& columns, Tracer* tracer,
                   Report* report);

}  // namespace wastenot::perfbench

#endif  // WASTENOT_PERFBENCH_SERVING_H_
