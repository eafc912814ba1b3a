// ingest_mixed: writes beside reads.
//
// A MutableTable of three int64 columns (values from a seeded hash) is
// preloaded with a 1M-row base and served by a QueryServer with default
// options; the table keeps its defaults too (background drain at 4096
// rows). One open-loop writer appends 1024-row batches at 200k rows/s
// offered, each followed by FlushIngest; two closed-loop readers
// round-robin a filtered, grouped SUM/COUNT over the three engines. The
// only workload that exercises `storage`.
//
// Correctness: rows are a pure function of (seed, row index) and every
// commit covers whole batches, so a read that saw D durable rows must equal
// the aggregate of the first D generated rows for some batch boundary D.
// After the writer stops, every engine must return the aggregate of all
// acknowledged rows; after a close and reopen, the recovered table must
// hold at least those rows and return the identical aggregate.

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bwd/bwd_table.h"
#include "core/ar_engine.h"
#include "core/classic_engine.h"
#include "core/streaming_engine.h"
#include "device/residency_cache.h"
#include "serving.h"
#include "storage/mutable_table.h"
#include "workloads.h"

namespace wastenot::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kBaseRows = 1'000'000;
constexpr double kRowsPerSecond = 200'000;
constexpr uint64_t kBatch = 1024;
constexpr int kSetups = 5;
constexpr int64_t kGroups = 4;

void MakeRow(uint64_t seed, uint64_t index, int64_t* row) {
  for (uint64_t col = 0; col < 3; ++col) {
    uint64_t x = (index + 1) * 0x9E3779B97F4A7C15ull + col * 0xD1B54A32D192ED03ull +
                 seed;
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 32;
    row[col] = static_cast<int64_t>(x % 1000);
  }
  row[1] %= kGroups;
}

core::QuerySpec ReadQuery() {
  core::QuerySpec q;
  q.name = "ingest read";
  q.table = "fact";
  q.predicates = {{"a", cs::RangePred::Lt(500)}};
  q.group_by = {"g"};
  q.aggregates = {core::Aggregate::SumOf("v", "sum_v"),
                  core::Aggregate::CountStar("n")};
  return q;
}

/// The read query's answer over a row prefix: per group (sum_v, n).
struct Aggregate {
  int64_t sum[kGroups] = {0, 0, 0, 0};
  int64_t count[kGroups] = {0, 0, 0, 0};
  int64_t total() const { return count[0] + count[1] + count[2] + count[3]; }
  void Add(const int64_t* row) {
    if (row[0] < 500) {
      sum[row[1]] += row[2];
      ++count[row[1]];
    }
  }
  bool Matches(const core::QueryResult& r) const {
    size_t next = 0;
    for (int64_t g = 0; g < kGroups; ++g) {
      if (count[g] == 0) continue;
      if (next >= r.num_groups() || r.group_keys[next][0] != g ||
          r.agg_values[next][0] != sum[g] || r.agg_values[next][1] != count[g]) {
        return false;
      }
      ++next;
    }
    return next == r.num_groups();
  }
};

/// Aggregates of every batch-boundary prefix: entry k covers the first
/// kBaseRows + k * kBatch rows.
std::vector<Aggregate> PrefixAggregates(uint64_t seed, uint64_t max_rows) {
  std::vector<Aggregate> out;
  Aggregate acc;
  int64_t row[3];
  for (uint64_t i = 0; i < max_rows; ++i) {
    if (i >= kBaseRows && (i - kBaseRows) % kBatch == 0) out.push_back(acc);
    MakeRow(seed, i, row);
    acc.Add(row);
  }
  if (max_rows >= kBaseRows && (max_rows - kBaseRows) % kBatch == 0) {
    out.push_back(acc);
  }
  return out;
}

struct IngestServing {
  storage::MutableTableOptions table_options;
  std::unique_ptr<device::Device> dev;
  std::unique_ptr<storage::MutableTable> table;
  std::unique_ptr<server::QueryServer> server;
  double generate_s = 0;

  ~IngestServing() {
    if (server != nullptr) server->Shutdown();
    server.reset();
    table.reset();
  }
};

StatusOr<std::unique_ptr<IngestServing>> Build(uint64_t seed,
                                               const std::string& dir) {
  auto s = std::make_unique<IngestServing>();
  fs::remove_all(dir);
  fs::create_directories(dir);
  double t0 = NowSeconds();
  std::vector<int64_t> rows(kBaseRows * 3);
  for (uint64_t i = 0; i < kBaseRows; ++i) MakeRow(seed, i, &rows[i * 3]);
  s->generate_s = NowSeconds() - t0;

  s->dev = std::make_unique<device::Device>(device::DeviceSpec::Gtx680());
  s->table_options.dir = dir;
  s->table_options.name = "fact";
  s->table_options.columns = {"a", "g", "v"};
  s->table_options.device = s->dev.get();
  auto table = storage::MutableTable::Open(s->table_options);
  if (!table.ok()) return table.status();
  s->table = std::move(*table);
  for (uint64_t i = 0; i < kBaseRows; ++i) {
    WN_RETURN_IF_ERROR(s->table->Append(
        std::span<const int64_t>(&rows[i * 3], 3)));
  }
  WN_RETURN_IF_ERROR(s->table->Flush().status());
  WN_RETURN_IF_ERROR(s->table->Drain());
  server::QueryServer::Backend backend;
  backend.device = s->dev.get();
  backend.mutable_table = s->table.get();
  s->server = std::make_unique<server::QueryServer>(backend);
  return s;
}

struct Observed {
  uint64_t request_id = 0;
  core::QueryResult result;
};

}  // namespace

int RunIngestMixed(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  SplitMix rng(options.seed);
  const uint64_t data_seed = rng.Next();
  const std::string dir = options.out_dir + "/ingest_table";

  std::vector<double> setup_s;
  std::unique_ptr<IngestServing> serving;
  for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    serving.reset();
    const double t0 = NowSeconds();
    ScopedSpan span(&tracer, "workloads.setup");
    auto built = Build(data_seed, dir);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    serving = std::move(*built);
    setup_s.push_back(NowSeconds() - t0);
  }
  report.Add("setup_s", Median(setup_s), "s", Kind::kMeasured, setup_s.size());
  report.Add("workloads.generate_s", serving->generate_s, "s",
             Kind::kMeasured);

  const std::vector<QueryClass> classes = {SpecClass("QI", ReadQuery())};
  const std::vector<std::vector<Request>> sequences = {
      {{0, kEngines[0]}, {0, kEngines[1]}, {0, kEngines[2]}},
      {{0, kEngines[1]}, {0, kEngines[2]}, {0, kEngines[0]}}};

  // Reads are checked against the row prefix after the run; here only the
  // approximate bounds are checked against the read's own exact answer.
  std::mutex observed_mu;
  std::vector<Observed> observed;
  const Checker checker = [&](const QueryClass& cls, const Outcome& o,
                              const server::QueryResponse& refined,
                              const server::ApproximateResponse& approx) {
    {
      std::lock_guard<std::mutex> lock(observed_mu);
      observed.push_back({o.request_id, refined.result});
    }
    return !o.approximate ||
           ApproxContains(approx.approx, refined.result, cls.funcs);
  };

  storage::MutableTable* table = serving->table.get();
  server::QueryServer* srv = serving->server.get();
  const std::vector<device::Device*> devices = {serving->dev.get()};
  const std::vector<const device::ResidencyCache*> caches = {
      &srv->streaming_cache()};
  const server::ServerStats stats_before = srv->stats();
  const DeviceCounters counters_before = SampleDevices(devices, caches);

  IngestResult ingest;
  std::thread writer([&] {
    ingest = RunIngestWriter(
        table, srv,
        [&](uint64_t i, int64_t* row) { MakeRow(data_seed, i, row); },
        kBaseRows, kRowsPerSecond, kBatch, options.seconds, &tracer);
  });
  const LoopResult loop = RunClosedLoop(
      sequences, classes, options.seconds,
      [&](unsigned, const Request& r) {
        server::QueryRequest req;
        req.query = classes[r.cls].spec.value();
        req.engine = r.engine;
        return srv->SubmitProgressive(std::move(req));
      },
      checker, &tracer,
      [&] { return table->Stats().pending_rows; });
  writer.join();

  const server::ServerStats stats_after = srv->stats();
  const DeviceCounters counters_after = SampleDevices(devices, caches);
  const uint64_t acked_total = kBaseRows + ingest.acked_rows;
  const std::vector<Aggregate> prefix =
      PrefixAggregates(data_seed, ingest.next_row);
  const Aggregate& final_aggregate =
      prefix[(acked_total - kBaseRows) / kBatch];

  // Every read equals some committed prefix.
  uint64_t wrong = 0;
  for (const Outcome& o : loop.outcomes) wrong += o.ok && !o.correct ? 1 : 0;
  for (const Observed& obs : observed) {
    int64_t total = 0;
    for (const auto& g : obs.result.agg_values) total += g[1];
    auto it = std::lower_bound(
        prefix.begin(), prefix.end(), total,
        [](const Aggregate& a, int64_t t) { return a.total() < t; });
    if (it == prefix.end() || !it->Matches(obs.result)) {
      std::fprintf(stderr, "read %llx matches no committed prefix\n",
                   static_cast<unsigned long long>(obs.request_id));
      ++wrong;
    }
  }
  uint64_t failed = 0;
  for (const Outcome& o : loop.outcomes) failed += o.ok ? 0 : 1;

  // Writer stopped: every engine returns the aggregate of the acked rows.
  bool final_ok = true;
  for (server::EngineKind e : kEngines) {
    server::QueryRequest req;
    req.query = ReadQuery();
    req.engine = e;
    const server::QueryResponse r = srv->Submit(std::move(req)).get();
    if (!r.status.ok() || !final_aggregate.Matches(r.result)) {
      std::fprintf(stderr, "final %s read does not match the acked rows\n",
                   EngineName(e));
      final_ok = false;
    }
  }

  AddServingMetrics(loop, options.trace, &report);
  const uint64_t refused =
      (stats_after.rejected - stats_before.rejected) + ingest.refused;
  const uint64_t attempted = loop.outcomes.size() + ingest.commit_ms.size() +
                             ingest.failed_commits;
  const uint64_t failures = failed + wrong + refused + ingest.failed_commits;
  AddFailureMetrics(attempted, failures, refused, &report);
  AddDeviceMetrics(loop, counters_before, counters_after, &report);
  std::array<uint64_t, 3> submitted_before{}, submitted_after{};
  for (size_t e = 0; e < 3; ++e) {
    submitted_before[e] = stats_before.engines[e].submitted;
    submitted_after[e] = stats_after.engines[e].submitted;
  }
  AddEngineShares(submitted_before, submitted_after, 0, &report);
  std::vector<double> pending;
  for (const Outcome& o : loop.outcomes) {
    if (o.ok) pending.push_back(static_cast<double>(o.pending_rows));
  }

  // Durability: close, reopen, compare.
  serving->server->Shutdown();
  serving->server.reset();
  serving->table.reset();
  storage::MutableTableOptions reopen_options = serving->table_options;
  reopen_options.background = false;
  double recovery_s = 0, drain_s = 0;
  bool durable_ok = false;
  std::unique_ptr<storage::MutableTable> reopened;
  {
    ScopedSpan span(&tracer, "storage.reopen");
    const double t0 = NowSeconds();
    auto opened = storage::MutableTable::Open(reopen_options);
    recovery_s = NowSeconds() - t0;
    if (opened.ok()) reopened = std::move(*opened);
  }
  if (reopened != nullptr) {
    const storage::MutableTableStats st = reopened->Stats();
    const storage::TableView view = reopened->View();
    core::ClassicOptions classic;
    classic.delta = view.delta_or_null();
    auto classic_result = core::ExecuteClassic(ReadQuery(), *view.db, classic);
    const std::vector<Aggregate> recovered_prefix =
        PrefixAggregates(data_seed, st.durable_rows);
    durable_ok = st.durable_rows >= acked_total && classic_result.ok() &&
                 !recovered_prefix.empty() &&
                 recovered_prefix.back().Matches(*classic_result) &&
                 (st.durable_rows != acked_total ||
                  final_aggregate.Matches(*classic_result));
    std::printf("recovered %llu durable rows (acked %llu)\n",
                static_cast<unsigned long long>(st.durable_rows),
                static_cast<unsigned long long>(acked_total));
    // One synchronous re-decomposition pass at the table's final size.
    int64_t row[3];
    for (uint64_t i = 0; i < kBatch; ++i) {
      MakeRow(data_seed, st.durable_rows + i, row);
      durable_ok &= reopened->Append(row).ok();
    }
    durable_ok &= reopened->Flush().ok();
    ScopedSpan span(&tracer, "storage.drain");
    const double t0 = NowSeconds();
    durable_ok &= reopened->Drain().ok();
    drain_s = NowSeconds() - t0;
  }
  if (!durable_ok) std::fprintf(stderr, "durability check failed\n");
  AddStorageMetrics(ingest, recovery_s, drain_s, Median(pending), &report);

  bool correct = wrong == 0 && final_ok && durable_ok;
  if (options.trace && reopened != nullptr) {
    const storage::TableView view = reopened->View();
    device::Device* dev = view.bwd->device();
    device::ResidencyCache cache(dev);
    const auto direct = [&](server::EngineKind e) -> StatusOr<DirectRun> {
      DirectRun run;
      switch (e) {
        case server::EngineKind::kAr: {
          core::ArOptions ar;
          ar.num_threads = 1;
          ar.delta = view.delta_or_null();
          auto exec = core::ExecuteAr(ReadQuery(), *view.bwd, nullptr, dev, ar);
          if (!exec.ok()) return exec.status();
          run.phase_r_ms = exec->breakdown.host_cpu_seconds * 1e3;
          run.candidates = exec->num_candidates;
          run.refined = exec->num_refined;
          run.modelled_ms =
              (exec->breakdown.device_seconds + exec->breakdown.bus_seconds) *
              1e3;
          return run;
        }
        case server::EngineKind::kClassic: {
          core::ClassicOptions classic;
          classic.delta = view.delta_or_null();
          auto r = core::ExecuteClassic(ReadQuery(), *view.db, classic);
          if (!r.ok()) return r.status();
          return run;
        }
        case server::EngineKind::kStreaming: {
          auto exec = core::ExecuteStreaming(ReadQuery(), *view.db, dev, &cache,
                                             view.delta_or_null());
          if (!exec.ok()) return exec.status();
          run.modelled_ms =
              (exec->breakdown.device_seconds + exec->breakdown.bus_seconds) *
              1e3;
          return run;
        }
      }
      return Status::Internal("engine");
    };
    std::vector<std::vector<DirectRun>> runs(1);
    std::vector<std::vector<double>> direct_ms(1);
    for (server::EngineKind e : kEngines) {
      (void)direct(e);  // warm the kernels and the cache
      auto run = ReplayClass(std::string("QI/") + EngineName(e),
                             [&] { return direct(e); }, 5, 1.0, &tracer);
      if (!run.ok()) {
        std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
        return 1;
      }
      runs[0].push_back(*run);
      direct_ms[0].push_back(run->wall_ms);
    }
    AddCoreMetrics(classes, runs, &report);
    AddTracedServingMetrics(loop, tracer, direct_ms, &report);
    ProbePlanLowering(classes, *view.db, &tracer, &report);
    server::QueryServer::Backend backend;
    backend.device = serving->dev.get();
    backend.mutable_table = reopened.get();
    ProbeSchedulerDecide(backend, classes, &tracer, &report);
    ProbeDeviceLaunch(dev, &tracer, &report);
    ProbeCodecScan(view.bwd->column("a"), &tracer, &report);
    {
      device::Device fresh_dev;
      const double t0 = NowSeconds();
      ScopedSpan span(&tracer, "bwd.decompose");
      auto decomposed = bwd::BwdTable::Decompose(
          view.db->table("fact"),
          {{"a", 32}, {"g", 32}, {"v", 32}}, &fresh_dev);
      report.Add("bwd.decompose_s", NowSeconds() - t0, "s", Kind::kMeasured);
      correct &= decomposed.ok();
    }
    report.Add("bwd.device_mb",
               static_cast<double>(view.bwd->device_bytes()) / 1e6, "MB",
               Kind::kCount);
  }
  reopened.reset();
  serving.reset();
  fs::remove_all(dir);
  return FinishRun(options, &report, tracer, correct, attempted, failures);
}

}  // namespace wastenot::perfbench
