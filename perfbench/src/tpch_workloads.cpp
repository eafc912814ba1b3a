// The two TPC-H workloads.
//
// small_adaptive: SF 0.005 (30k lineitem rows), fully device-resident on one
// device with default memory, served through AdaptiveScheduler::Submit by
// four closed-loop clients of two tenants weighted 2:1, mix 45 % Q6 year
// variants / 45 % Q14 / 10 % Q1. Engine calls take ~0.1-0.5 ms here, so
// the scheduler, dispatch, plan lowering and launch fan-out show and scans
// barely register. The whole workload runs on one CPU: the four clients
// keep it busy, so qps is the CPU time one request costs,
// hand-offs and fan-out included, rather than how fast the host wakes idle
// vCPUs.
//
// tpch_sharded: the space-constrained decomposition (l_shipdate at 24
// device bits, so Phase R refines) plus resident l_orderkey, range-sharded
// on l_shipdate over a 2-device group with replicated dimensions, on
// per-device memory below the streaming engine's raw-column working set.
// Two closed-loop clients submit (query, engine) pairs from {Q1, Q6, Q14,
// Q3, Q10} x {ar, classic, streaming} through SubmitProgressive: every
// engine, the general plan executors, the sharded paths, refinement and
// residency misses.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bwd/bwd_table.h"
#include "bwd/partition.h"
#include "core/ar_engine.h"
#include "core/classic_engine.h"
#include "core/plan_exec.h"
#include "core/sharded_engine.h"
#include "core/streaming_engine.h"
#include "device/device_group.h"
#include "device/residency_cache.h"
#include "server/scheduler.h"
#include "serving.h"
#include "workloads.h"
#include "workloads/tpch.h"

namespace wastenot::perfbench {
namespace {

constexpr double kSmallSf = 0.005;
/// Small enough that a 20 s window holds over a thousand requests, which
/// is what keeps the run-to-run spread of qps and latency low on a shared
/// host. (At this scale the 2-way range split of l_shipdate falls on either
/// side of Q1's flag cutoff depending on the seed, so Q1's modelled device
/// time, and with it modelled_ms, takes one of two values.)
constexpr double kShardedSf = 0.05;
/// Per-device memory of the sharded group, 64 MB per unit of scale: holds
/// the decomposed shard and the dimension replicas, but not the streaming
/// engine's raw columns, so streaming re-transfers its inputs (residency
/// misses) on nearly every query.
constexpr uint64_t kShardedDeviceBytes =
    static_cast<uint64_t>(kShardedSf * (64 << 20));
/// Set-ups per untraced run (setup_s is their median): more where one is
/// only milliseconds long.
constexpr int kSmallSetups = 101;
constexpr int kShardedSetups = 25;

/// Everything a TPC-H workload serves from, and how to reach it directly.
class TpchServing {
 public:
  virtual ~TpchServing() = default;
  /// One direct engine call on the workload's own backend.
  virtual StatusOr<DirectRun> Direct(const QueryClass& cls,
                                     server::EngineKind engine) = 0;
  virtual server::ProgressiveFutures Submit(unsigned client,
                                            const QueryClass& cls,
                                            server::EngineKind engine) = 0;
  /// Requests dispatched per engine so far, and those the scheduler's
  /// pressure rules degraded.
  virtual std::array<uint64_t, 3> Dispatched() = 0;
  virtual uint64_t Degraded() = 0;
  virtual uint64_t Refused() = 0;
  virtual std::vector<device::Device*> Devices() = 0;
  virtual std::vector<const device::ResidencyCache*> Caches() = 0;
  virtual const bwd::BwdColumn& ScanColumn() = 0;
  virtual uint64_t DeviceBytes() = 0;
  virtual server::QueryServer::Backend backend() = 0;

  cs::Database db;
  double generate_s = 0;
  double decompose_s = 0;
};

StatusOr<DirectRun> FromAr(const StatusOr<core::ArExecution>& exec) {
  if (!exec.ok()) return exec.status();
  DirectRun run;
  run.phase_r_ms = exec->breakdown.host_cpu_seconds * 1e3;
  run.candidates = exec->num_candidates;
  run.refined = exec->num_refined;
  run.modelled_ms =
      (exec->breakdown.device_seconds + exec->breakdown.bus_seconds) * 1e3;
  return run;
}

StatusOr<DirectRun> FromClassic(const StatusOr<core::QueryResult>& result) {
  if (!result.ok()) return result.status();
  return DirectRun{};
}

StatusOr<DirectRun> FromStreaming(
    const StatusOr<core::StreamingExecution>& exec) {
  if (!exec.ok()) return exec.status();
  DirectRun run;
  run.modelled_ms =
      (exec->breakdown.device_seconds + exec->breakdown.bus_seconds) * 1e3;
  return run;
}

// ------------------------------------------------------------ small ----

class SmallServing : public TpchServing {
 public:
  static StatusOr<std::unique_ptr<SmallServing>> Build(uint64_t seed) {
    auto s = std::make_unique<SmallServing>();
    double t0 = NowSeconds();
    workloads::GenerateTpch(kSmallSf, seed, &s->db);
    s->generate_s = NowSeconds() - t0;
    t0 = NowSeconds();
    s->dev_ = std::make_unique<device::Device>(device::DeviceSpec::Gtx680());
    s->cache_ = std::make_unique<device::ResidencyCache>(s->dev_.get());
    auto fact = bwd::BwdTable::Decompose(s->db.table("lineitem"),
                                         workloads::TpchAllResident(),
                                         s->dev_.get());
    if (!fact.ok()) return fact.status();
    auto dim = bwd::BwdTable::Decompose(
        s->db.table("part"), workloads::TpchPartResident(), s->dev_.get());
    if (!dim.ok()) return dim.status();
    s->fact_ = std::make_unique<bwd::BwdTable>(std::move(*fact));
    s->dim_ = std::make_unique<bwd::BwdTable>(std::move(*dim));
    s->decompose_s = NowSeconds() - t0;
    s->scheduler_ = std::make_unique<server::AdaptiveScheduler>(s->backend());
    s->scheduler_->RegisterTenant("tenant_a", 2.0);
    s->scheduler_->RegisterTenant("tenant_b", 1.0);
    return s;
  }

  ~SmallServing() override {
    if (scheduler_ != nullptr) scheduler_->Shutdown();
  }

  StatusOr<DirectRun> Direct(const QueryClass& cls,
                             server::EngineKind engine) override {
    core::ArOptions ar;
    ar.num_threads = 1;  // the server's per-stream setting
    switch (engine) {
      case server::EngineKind::kAr:
        return FromAr(
            core::ExecuteAr(*cls.spec, *fact_, dim_.get(), dev_.get(), ar));
      case server::EngineKind::kClassic:
        return FromClassic(core::ExecuteClassic(*cls.spec, db));
      case server::EngineKind::kStreaming:
        return FromStreaming(
            core::ExecuteStreaming(*cls.spec, db, dev_.get(), cache_.get()));
    }
    return Status::Internal("engine");
  }

  server::ProgressiveFutures Submit(unsigned client, const QueryClass& cls,
                                    server::EngineKind) override {
    return scheduler_->Submit(client < 2 ? "tenant_a" : "tenant_b",
                              *cls.spec);
  }

  std::array<uint64_t, 3> Dispatched() override {
    return scheduler_->stats().dispatched;
  }
  uint64_t Degraded() override { return scheduler_->stats().degraded; }
  uint64_t Refused() override {
    const server::SchedulerStats st = scheduler_->stats();
    const server::ServerStats ss = scheduler_->server().stats();
    return st.rejected + st.cancelled + ss.rejected + ss.cancelled;
  }
  std::vector<device::Device*> Devices() override { return {dev_.get()}; }
  std::vector<const device::ResidencyCache*> Caches() override {
    return {&scheduler_->server().streaming_cache()};
  }
  const bwd::BwdColumn& ScanColumn() override {
    return fact_->column("l_shipdate");
  }
  uint64_t DeviceBytes() override {
    return fact_->device_bytes() + dim_->device_bytes();
  }
  server::QueryServer::Backend backend() override {
    return server::QueryServer::Backend{&db, fact_.get(), dim_.get(),
                                        dev_.get()};
  }

 private:
  std::unique_ptr<device::Device> dev_;
  std::unique_ptr<bwd::BwdTable> fact_;
  std::unique_ptr<bwd::BwdTable> dim_;
  /// Direct streaming calls get their own cache so they leave the served
  /// cache (a scheduler signal) untouched.
  std::unique_ptr<device::ResidencyCache> cache_;
  std::unique_ptr<server::AdaptiveScheduler> scheduler_;
};

// ---------------------------------------------------------- sharded ----

class ShardedServing : public TpchServing {
 public:
  static StatusOr<std::unique_ptr<ShardedServing>> Build(uint64_t seed) {
    auto s = std::make_unique<ShardedServing>();
    double t0 = NowSeconds();
    workloads::GenerateTpch(kShardedSf, seed, &s->db);
    s->generate_s = NowSeconds() - t0;
    t0 = NowSeconds();
    device::DeviceGroupOptions gopts;
    gopts.num_devices = 2;
    gopts.base.memory_capacity = kShardedDeviceBytes;
    s->group_ = std::make_unique<device::DeviceGroup>(gopts);
    std::vector<bwd::DecomposeRequest> reqs = workloads::TpchSpaceConstrained();
    for (const auto& r : workloads::TpchMultiJoinResident()) reqs.push_back(r);
    auto fact = bwd::DecomposeSharded(
        s->db.table("lineitem"), reqs,
        bwd::PartitionSpec{bwd::PartitionKind::kRange, "l_shipdate", 2},
        s->group_.get());
    if (!fact.ok()) return fact.status();
    s->fact_ = std::make_unique<bwd::ShardedBwdTable>(std::move(*fact));
    auto part = bwd::ReplicatePerDevice(
        s->db.table("part"), workloads::TpchPartResident(), s->group_.get());
    if (!part.ok()) return part.status();
    s->part_ = std::move(*part);
    auto orders = bwd::ReplicatePerDevice(s->db.table("orders"),
                                          workloads::TpchOrdersResident(),
                                          s->group_.get());
    if (!orders.ok()) return orders.status();
    s->orders_ = std::move(*orders);
    auto customer = bwd::ReplicatePerDevice(s->db.table("customer"),
                                            workloads::TpchCustomerResident(),
                                            s->group_.get());
    if (!customer.ok()) return customer.status();
    s->customer_ = std::move(*customer);
    for (uint32_t d = 0; d < s->group_->size(); ++d) {
      s->dim_maps_.push_back(
          {{"orders", &s->orders_[d]}, {"customer", &s->customer_[d]}});
    }
    s->shard_dbs_ = bwd::BuildShardDatabases(
        s->fact_->partition, {&s->db.table("part"), &s->db.table("orders"),
                              &s->db.table("customer")});
    s->decompose_s = NowSeconds() - t0;
    s->server_ = std::make_unique<server::QueryServer>(s->backend());
    return s;
  }

  ~ShardedServing() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  StatusOr<DirectRun> Direct(const QueryClass& cls,
                             server::EngineKind engine) override {
    core::ShardedArOptions ar;
    ar.ar.num_threads = 1;  // the server's per-stream setting
    const bwd::TablePartition* partition = &fact_->partition;
    switch (engine) {
      case server::EngineKind::kAr: {
        auto exec = cls.spec.has_value()
                        ? core::ExecuteArSharded(*cls.spec, *fact_, &part_,
                                                 group_.get(), ar)
                        : core::ExecutePlanArSharded(*cls.plan, *fact_,
                                                     &dim_maps_, group_.get(),
                                                     ar);
        if (!exec.ok()) return exec.status();
        return FromAr(std::move(exec->merged));
      }
      case server::EngineKind::kClassic:
        return FromClassic(cls.spec.has_value()
                               ? core::ExecuteClassic(*cls.spec, db)
                               : core::ExecutePlanClassic(*cls.plan, db));
      case server::EngineKind::kStreaming: {
        auto exec = cls.spec.has_value()
                        ? core::ExecuteStreamingSharded(
                              *cls.spec, shard_dbs_, group_.get(), partition,
                              1)
                        : core::ExecutePlanStreamingSharded(
                              *cls.plan, shard_dbs_, group_.get(), partition,
                              1);
        if (!exec.ok()) return exec.status();
        return FromStreaming(std::move(exec->merged));
      }
    }
    return Status::Internal("engine");
  }

  server::ProgressiveFutures Submit(unsigned, const QueryClass& cls,
                                    server::EngineKind engine) override {
    server::QueryRequest req;
    if (cls.spec.has_value()) {
      req.query = *cls.spec;
    } else {
      req.plan = *cls.plan;
    }
    req.engine = engine;
    return server_->SubmitProgressive(std::move(req));
  }

  std::array<uint64_t, 3> Dispatched() override {
    const server::ServerStats st = server_->stats();
    return {st.engines[0].submitted, st.engines[1].submitted,
            st.engines[2].submitted};
  }
  uint64_t Degraded() override { return 0; }
  uint64_t Refused() override {
    const server::ServerStats st = server_->stats();
    return st.rejected + st.cancelled;
  }
  std::vector<device::Device*> Devices() override {
    std::vector<device::Device*> out;
    for (uint32_t d = 0; d < group_->size(); ++d) {
      out.push_back(&group_->device(d));
    }
    return out;
  }
  std::vector<const device::ResidencyCache*> Caches() override {
    std::vector<const device::ResidencyCache*> out;
    for (uint32_t d = 0; d < group_->size(); ++d) {
      out.push_back(&group_->cache(d));
    }
    return out;
  }
  const bwd::BwdColumn& ScanColumn() override {
    return fact_->shards.front().column("l_shipdate");
  }
  uint64_t DeviceBytes() override {
    uint64_t bytes = 0;
    for (const auto& t : fact_->shards) bytes += t.device_bytes();
    for (const auto* v : {&part_, &orders_, &customer_}) {
      for (const auto& t : *v) bytes += t.device_bytes();
    }
    return bytes;
  }
  server::QueryServer::Backend backend() override {
    server::QueryServer::Backend b;
    b.db = &db;
    b.sharded_fact = fact_.get();
    b.dim_replicas = &part_;
    b.shard_dbs = &shard_dbs_;
    b.group = group_.get();
    b.dim_maps = &dim_maps_;
    return b;
  }

 private:
  std::unique_ptr<device::DeviceGroup> group_;
  std::unique_ptr<bwd::ShardedBwdTable> fact_;
  std::vector<bwd::BwdTable> part_;
  std::vector<bwd::BwdTable> orders_;
  std::vector<bwd::BwdTable> customer_;
  std::vector<core::BwdTableMap> dim_maps_;
  std::vector<cs::Database> shard_dbs_;
  std::unique_ptr<server::QueryServer> server_;
};

// ----------------------------------------------------------- shared ----

using BuildFn = std::function<StatusOr<std::unique_ptr<TpchServing>>(uint64_t)>;

/// One TPC-H workload run: set up `setups` times on one CPU (setup_s is
/// their median; the last instance serves), go back to every CPU unless
/// `serve_on_one_cpu`, compute references, warm every class and engine with
/// one direct call, serve the closed loop, check, and — in a traced run —
/// replay every layer directly.
int RunTpch(const Options& options, int setups, bool serve_on_one_cpu,
            const BuildFn& build,
            const std::function<std::vector<QueryClass>(const cs::Database&)>&
                make_classes,
            const std::function<std::vector<std::vector<Request>>(
                const std::vector<QueryClass>&, SplitMix*)>& make_sequences) {
  Report report;
  Tracer tracer(options.trace);
  SplitMix rng(options.seed);
  const uint64_t data_seed = rng.Next();

  // Set-up is timed on one CPU, where its median repeats from run to run
  // (tpch_sharded: 49-57 ms, against 40-74 ms on every CPU in the same
  // minutes of a shared host).
  if (!PinToOneCpu()) std::fprintf(stderr, "note: cannot pin to one CPU\n");
  std::vector<double> setup_s;
  std::unique_ptr<TpchServing> serving;
  for (int i = 0; i < (options.trace ? 1 : setups); ++i) {
    serving.reset();
    const double t0 = NowSeconds();
    ScopedSpan span(&tracer, "workloads.setup");
    auto built = build(data_seed);
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
  report.Add("bwd.decompose_s", serving->decompose_s, "s", Kind::kMeasured);
  report.Add("bwd.device_mb", static_cast<double>(serving->DeviceBytes()) / 1e6,
             "MB", Kind::kCount);

  if (!serve_on_one_cpu) UnpinCpu();

  std::vector<QueryClass> classes = make_classes(serving->db);
  if (Status s = ComputeReferences(serving->db, &classes); !s.ok()) {
    std::fprintf(stderr, "reference: %s\n", s.ToString().c_str());
    return 1;
  }

  // Warm-up: one direct call per class and engine compiles every kernel
  // (a one-time modelled JIT charge) before the measured window.
  for (const QueryClass& cls : classes) {
    for (server::EngineKind e : kEngines) {
      auto run = serving->Direct(cls, e);
      if (!run.ok()) {
        std::fprintf(stderr, "warm-up %s/%s: %s\n", cls.name.c_str(),
                     EngineName(e), run.status().ToString().c_str());
        return 1;
      }
    }
  }

  const std::vector<std::vector<Request>> sequences =
      make_sequences(classes, &rng);
  const DeviceCounters before =
      SampleDevices(serving->Devices(), serving->Caches());
  const std::array<uint64_t, 3> dispatched_before = serving->Dispatched();
  const uint64_t degraded_before = serving->Degraded();
  const LoopResult loop = RunClosedLoop(
      sequences, classes, options.seconds,
      [&](unsigned client, const Request& r) {
        return serving->Submit(client, classes[r.cls], r.engine);
      },
      CheckAgainstReference, &tracer);

  uint64_t failed = 0, wrong = 0;
  for (const Outcome& o : loop.outcomes) {
    failed += o.ok ? 0 : 1;
    wrong += o.ok && !o.correct ? 1 : 0;
  }
  const uint64_t refused = serving->Refused();
  const uint64_t attempted = loop.outcomes.size();
  AddServingMetrics(loop, options.trace, &report);
  AddFailureMetrics(attempted, failed + wrong + refused, refused, &report);
  AddDeviceMetrics(loop, before,
                   SampleDevices(serving->Devices(), serving->Caches()),
                   &report);
  // Which engine served: the scheduler's choices on small_adaptive (its
  // startup signals decide Q6's engine for the whole run), the requested
  // uniform mix elsewhere.
  AddEngineShares(dispatched_before, serving->Dispatched(),
                  serving->Degraded() - degraded_before, &report);

  bool correct = wrong == 0;
  if (options.trace) {
    // Serial replay: every class on every engine, directly on the backend.
    std::vector<std::vector<DirectRun>> runs(classes.size());
    std::vector<std::vector<double>> direct_ms(classes.size());
    for (size_t c = 0; c < classes.size(); ++c) {
      for (server::EngineKind e : kEngines) {
        auto run = ReplayClass(
            classes[c].name + "/" + EngineName(e),
            [&] { return serving->Direct(classes[c], e); }, 5, 1.0, &tracer);
        if (!run.ok()) {
          std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
          return 1;
        }
        runs[c].push_back(*run);
        direct_ms[c].push_back(run->wall_ms);
      }
    }
    AddCoreMetrics(classes, runs, &report);
    AddTracedServingMetrics(loop, tracer, direct_ms, &report);
    ProbePlanLowering(classes, serving->db, &tracer, &report);
    ProbeSchedulerDecide(serving->backend(), classes, &tracer, &report);
    ProbeDeviceLaunch(serving->Devices().front(), &tracer, &report);
    ProbeCodecScan(serving->ScanColumn(), &tracer, &report);
    correct &= ReplayStorage(options.out_dir + "/storage_replay",
                             serving->db.table("lineitem"),
                             {"l_shipdate", "l_quantity", "l_extendedprice"},
                             &tracer, &report);
  }
  serving.reset();
  return FinishRun(options, &report, tracer, correct, attempted,
                   failed + wrong + refused);
}

}  // namespace

int RunSmallAdaptive(const Options& options) {
  return RunTpch(
      options, kSmallSetups, /*serve_on_one_cpu=*/true,
      [](uint64_t seed) -> StatusOr<std::unique_ptr<TpchServing>> {
        auto s = SmallServing::Build(seed);
        if (!s.ok()) return s.status();
        return std::unique_ptr<TpchServing>(std::move(*s));
      },
      [](const cs::Database& db) {
        std::vector<QueryClass> classes;
        for (uint64_t v = 0; v < 5; ++v) {
          classes.push_back(SpecClass("Q6." + std::to_string(1993 + v),
                                      workloads::TpchQ6YearVariant(v)));
        }
        core::QuerySpec q14 = workloads::TpchQ14();
        (void)workloads::ResolvePromoFilter(db, &q14);
        classes.push_back(SpecClass("Q14", q14));
        classes.push_back(SpecClass("Q1", workloads::TpchQ1()));
        return classes;
      },
      [](const std::vector<QueryClass>&, SplitMix* rng) {
        // Decks of 20 requests — 9 Q6 (a random year), 9 Q14, 2 Q1 —
        // shuffled per client: the 45/45/10 mix holds in every window.
        std::vector<std::vector<Request>> sequences(4);
        for (auto& seq : sequences) {
          for (int deck = 0; deck < 200; ++deck) {
            std::vector<Request> d;
            for (int i = 0; i < 9; ++i) d.push_back({rng->Below(5)});
            for (int i = 0; i < 9; ++i) d.push_back({5});
            for (int i = 0; i < 2; ++i) d.push_back({6});
            rng->Shuffle(&d);
            seq.insert(seq.end(), d.begin(), d.end());
          }
        }
        return sequences;
      });
}

int RunTpchSharded(const Options& options) {
  return RunTpch(
      options, kShardedSetups, /*serve_on_one_cpu=*/false,
      [](uint64_t seed) -> StatusOr<std::unique_ptr<TpchServing>> {
        auto s = ShardedServing::Build(seed);
        if (!s.ok()) return s.status();
        return std::unique_ptr<TpchServing>(std::move(*s));
      },
      [](const cs::Database& db) {
        core::QuerySpec q14 = workloads::TpchQ14();
        (void)workloads::ResolvePromoFilter(db, &q14);
        return std::vector<QueryClass>{
            SpecClass("Q1", workloads::TpchQ1()),
            SpecClass("Q6", workloads::TpchQ6()),
            SpecClass("Q14", q14),
            PlanClass("Q3", workloads::TpchQ3()),
            PlanClass("Q10", workloads::TpchQ10())};
      },
      [](const std::vector<QueryClass>& classes, SplitMix* rng) {
        // Decks of all 15 (query, engine) pairs, shuffled per client.
        std::vector<std::vector<Request>> sequences(2);
        for (auto& seq : sequences) {
          for (int deck = 0; deck < 100; ++deck) {
            std::vector<Request> d;
            for (size_t c = 0; c < classes.size(); ++c) {
              for (server::EngineKind e : kEngines) d.push_back({c, e});
            }
            rng->Shuffle(&d);
            seq.insert(seq.end(), d.begin(), d.end());
          }
        }
        return sequences;
      });
}

}  // namespace wastenot::perfbench
