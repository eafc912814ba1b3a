#include "serving.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>

#include "bwd/bwd_column.h"
#include "bwd/packed_codec.h"
#include "core/bounds.h"
#include "core/classic_engine.h"
#include "core/plan_exec.h"
#include "server/scheduler.h"

namespace wastenot::perfbench {

const char* EngineName(server::EngineKind engine) {
  switch (engine) {
    case server::EngineKind::kAr:
      return "ar";
    case server::EngineKind::kClassic:
      return "classic";
    case server::EngineKind::kStreaming:
      return "streaming";
  }
  return "?";
}

QueryClass SpecClass(std::string name, core::QuerySpec spec) {
  QueryClass c;
  c.name = std::move(name);
  for (const core::Aggregate& a : spec.aggregates) c.funcs.push_back(a.func);
  c.spec = std::move(spec);
  return c;
}

QueryClass PlanClass(std::string name, core::PhysicalPlan plan) {
  QueryClass c;
  c.name = std::move(name);
  for (const core::PlanAggregate& a : plan.group_agg.aggregates) {
    c.funcs.push_back(a.func);
  }
  c.plan = std::move(plan);
  return c;
}

Status ComputeReferences(const cs::Database& db,
                         std::vector<QueryClass>* classes) {
  for (QueryClass& c : *classes) {
    auto result = c.spec.has_value() ? core::ExecuteClassic(*c.spec, db)
                                     : core::ExecutePlanClassic(*c.plan, db);
    if (!result.ok()) return result.status();
    c.reference = std::move(*result);
  }
  return Status::OK();
}

bool ApproxContains(const core::ApproximateAnswer& approx,
                    const core::QueryResult& exact,
                    const std::vector<core::AggFunc>& funcs) {
  if (!approx.row_count.Contains(static_cast<int64_t>(exact.selected_rows))) {
    return false;
  }
  // Map every exact group to the pre-group containing its keys. Pre-groups
  // whose keys are all exact (resident grouping columns) are found by
  // lookup; otherwise every pre-group is tested.
  std::map<std::vector<int64_t>, size_t> point_groups;
  bool all_points = true;
  for (uint64_t ga = 0; ga < approx.num_groups() && all_points; ++ga) {
    std::vector<int64_t> key;
    for (const core::ValueBounds& b : approx.key_bounds[ga]) {
      all_points &= b.IsExact();
      key.push_back(b.lo);
    }
    point_groups.emplace(std::move(key), ga);
  }
  struct Acc {
    bool any = false;
    int64_t count = 0;
    std::vector<int64_t> sums, mins, maxs;
  };
  std::vector<Acc> acc(approx.num_groups());
  for (Acc& a : acc) {
    a.sums.assign(funcs.size(), 0);
    a.mins.assign(funcs.size(), 0);
    a.maxs.assign(funcs.size(), 0);
  }
  for (uint64_t ge = 0; ge < exact.num_groups(); ++ge) {
    const std::vector<int64_t>& keys = exact.group_keys[ge];
    int64_t match = -1;
    if (all_points) {
      auto it = point_groups.find(keys);
      if (it != point_groups.end()) match = static_cast<int64_t>(it->second);
    } else {
      for (uint64_t ga = 0; ga < approx.num_groups(); ++ga) {
        bool contains = true;
        for (size_t k = 0; k < keys.size() && contains; ++k) {
          contains = approx.key_bounds[ga][k].Contains(keys[k]);
        }
        if (!contains) continue;
        if (match != -1) return false;  // pre-groups must be disjoint
        match = static_cast<int64_t>(ga);
      }
    }
    if (match == -1) return false;
    Acc& a = acc[static_cast<size_t>(match)];
    for (size_t i = 0; i < funcs.size(); ++i) {
      const int64_t v = exact.agg_values[ge][i];
      switch (funcs[i]) {
        case core::AggFunc::kCount:
        case core::AggFunc::kSum:
        case core::AggFunc::kAvg:  // exact avg values hold the group sum
          a.sums[i] += v;
          break;
        case core::AggFunc::kMin:
          a.mins[i] = a.any ? std::min(a.mins[i], v) : v;
          break;
        case core::AggFunc::kMax:
          a.maxs[i] = a.any ? std::max(a.maxs[i], v) : v;
          break;
      }
    }
    a.count += ge < exact.group_counts.size() ? exact.group_counts[ge] : 0;
    a.any = true;
  }
  for (uint64_t ga = 0; ga < approx.num_groups(); ++ga) {
    const Acc& a = acc[ga];
    for (size_t i = 0; i < funcs.size(); ++i) {
      const core::ValueBounds& b = approx.agg_bounds[ga][i];
      switch (funcs[i]) {
        case core::AggFunc::kCount:
        case core::AggFunc::kSum:
          if (!b.Contains(a.sums[i])) return false;
          break;
        case core::AggFunc::kAvg:
          if (a.any && a.count > 0 &&
              (!b.Contains(core::FloorDiv(a.sums[i], a.count)) ||
               !b.Contains(core::CeilDivSigned(a.sums[i], a.count)))) {
            return false;
          }
          break;
        case core::AggFunc::kMin:
          if (a.any && !b.Contains(a.mins[i])) return false;
          break;
        case core::AggFunc::kMax:
          if (a.any && !b.Contains(a.maxs[i])) return false;
          break;
      }
    }
  }
  return true;
}

bool CheckAgainstReference(const QueryClass& cls, const Outcome& outcome,
                           const server::QueryResponse& refined,
                           const server::ApproximateResponse& approx) {
  if (!(refined.result == cls.reference)) return false;
  return !outcome.approximate ||
         ApproxContains(approx.approx, cls.reference, cls.funcs);
}

LoopResult RunClosedLoop(const std::vector<std::vector<Request>>& sequences,
                         const std::vector<QueryClass>& classes,
                         double seconds, const SubmitFn& submit,
                         const Checker& checker, Tracer* tracer,
                         const std::function<uint64_t()>& before_submit) {
  const size_t clients = sequences.size();
  std::vector<std::vector<Outcome>> per_client(clients);
  std::vector<std::thread> threads;
  LoopResult out;
  out.start_s = NowSeconds();
  const double stop_s = out.start_s + seconds;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<Request>& seq = sequences[c];
      for (uint64_t i = 0; NowSeconds() < stop_s; ++i) {
        const Request& req = seq[i % seq.size()];
        Outcome o;
        o.request_id = (static_cast<uint64_t>(c + 1) << 32) | (i + 1);
        o.cls = req.cls;
        o.engine = req.engine;
        o.traced = tracer->enabled() && i % 2 == 0;
        if (before_submit) o.pending_rows = before_submit();
        const uint64_t span =
            o.traced ? tracer->Begin("client.request", 0, o.request_id) : 0;
        o.submit_s = NowSeconds();
        server::ProgressiveFutures futures;
        {
          const uint64_t submit_span =
              o.traced ? tracer->Begin("server.submit", span, o.request_id)
                       : 0;
          futures = submit(static_cast<unsigned>(c), req);
          tracer->End(submit_span);
        }
        const server::ApproximateResponse approx = futures.approximate.get();
        o.first_s = NowSeconds();
        const server::QueryResponse refined = futures.refined.get();
        o.done_s = NowSeconds();
        o.ok = approx.status.ok() && refined.status.ok();
        o.approximate = o.ok && !approx.exact_fallback;
        o.server_latency_s = refined.latency_seconds;
        o.queue_s = refined.queue_seconds;
        o.breakdown = refined.breakdown;
        o.correct = o.ok && checker(classes[req.cls], o, refined, approx);
        if (!o.ok) {
          std::fprintf(stderr, "request %s/%s failed: %s\n",
                       classes[req.cls].name.c_str(), EngineName(req.engine),
                       (refined.status.ok() ? approx.status : refined.status)
                           .ToString()
                           .c_str());
        } else if (!o.correct) {
          std::fprintf(stderr, "request %s/%s returned a WRONG answer\n",
                       classes[req.cls].name.c_str(), EngineName(req.engine));
        }
        if (span != 0) {
          // The engine that served the request: A&R answers come with an
          // approximate phase; streaming charges the device, classic not.
          const double served =
              o.approximate ? 0
              : (o.breakdown.device_seconds + o.breakdown.bus_seconds > 0)
                  ? 2
                  : 1;
          tracer->End(span,
                      {{"class", static_cast<double>(req.cls)},
                       {"served_engine", served},
                       {"server_id", static_cast<double>(refined.id)},
                       {"queue_ms", o.queue_s * 1e3},
                       {"latency_ms", o.server_latency_s * 1e3},
                       {"client_ms", o.client_ms()},
                       {"first_ms", o.first_ms()},
                       {"device_ms", o.breakdown.device_seconds * 1e3},
                       {"bus_ms", o.breakdown.bus_seconds * 1e3},
                       {"host_ms", o.breakdown.host_seconds * 1e3},
                       {"host_cpu_ms", o.breakdown.host_cpu_seconds * 1e3},
                       {"pending_rows", static_cast<double>(o.pending_rows)},
                       {"ok", o.ok ? 1.0 : 0.0}});
        }
        per_client[c].push_back(o);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double last = out.start_s;
  for (auto& v : per_client) {
    for (Outcome& o : v) {
      last = std::max(last, o.done_s);
      out.outcomes.push_back(o);
    }
  }
  out.makespan_s = last - out.start_s;
  return out;
}

void AddServingMetrics(const LoopResult& loop, bool traced_run,
                       Report* report) {
  std::vector<double> latency, first, modelled;
  uint64_t ok = 0;
  for (const Outcome& o : loop.outcomes) {
    if (!o.ok) continue;
    ++ok;
    if (traced_run && o.traced) continue;
    latency.push_back(o.client_ms());
    if (o.approximate) first.push_back(o.first_ms());
    modelled.push_back(
        (o.breakdown.device_seconds + o.breakdown.bus_seconds) * 1e3);
  }
  const uint64_t n = latency.size();
  report->Add("qps", static_cast<double>(ok) / loop.makespan_s, "1/s",
              Kind::kMeasured, ok);
  report->Add("p50_ms", Percentile(latency, 0.50), "ms", Kind::kMeasured, n);
  report->Add("p95_ms", Percentile(latency, 0.95), "ms", Kind::kMeasured, n);
  if (SamplesBeyond(latency, 0.95) < 10) {
    std::printf("note: p95_ms has fewer than 10 samples beyond it (n=%llu)\n",
                static_cast<unsigned long long>(n));
  }
  if (SamplesBeyond(latency, 0.99) >= 10) {
    report->Add("p99_ms", Percentile(latency, 0.99), "ms", Kind::kMeasured, n);
  }
  report->Add("first_answer_p50_ms", Percentile(first, 0.50), "ms",
              Kind::kMeasured, first.size());
  report->Add("modelled_ms", Mean(modelled), "ms", Kind::kModelled, n);
}

namespace {

double Ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

}  // namespace

DeviceCounters SampleDevices(
    const std::vector<device::Device*>& devices,
    const std::vector<const device::ResidencyCache*>& caches) {
  DeviceCounters c;
  for (device::Device* d : devices) {
    c.kernel_hits += d->kernel_cache().hit_count();
    c.kernels_compiled += d->kernel_cache().compiled_count();
  }
  for (const device::ResidencyCache* cache : caches) {
    c.cache_hits += cache->hits();
    c.cache_misses += cache->misses();
    c.cache_evictions += cache->evictions();
  }
  return c;
}

void AddDeviceMetrics(const LoopResult& loop, const DeviceCounters& before,
                      const DeviceCounters& after, Report* report) {
  std::vector<double> kernel_ms, bus_ms;
  for (const Outcome& o : loop.outcomes) {
    if (!o.ok) continue;
    kernel_ms.push_back(o.breakdown.device_seconds * 1e3);
    bus_ms.push_back(o.breakdown.bus_seconds * 1e3);
  }
  report->Add("device.kernel_modelled_ms", Mean(kernel_ms), "ms",
              Kind::kModelled, kernel_ms.size());
  report->Add("device.bus_modelled_ms", Mean(bus_ms), "ms", Kind::kModelled,
              bus_ms.size());
  const uint64_t kernel_hits = after.kernel_hits - before.kernel_hits;
  const uint64_t compiled = after.kernels_compiled - before.kernels_compiled;
  report->Add("device.kernel_cache_hit_rate",
              Ratio(kernel_hits, kernel_hits + compiled), "ratio",
              Kind::kCount, kernel_hits + compiled);
  const uint64_t hits = after.cache_hits - before.cache_hits;
  const uint64_t misses = after.cache_misses - before.cache_misses;
  report->Add("device.residency_hit_rate", Ratio(hits, hits + misses),
              "ratio", Kind::kCount, hits + misses);
  report->Add("device.residency_evictions",
              static_cast<double>(after.cache_evictions -
                                  before.cache_evictions),
              "count", Kind::kCount);
}

void AddEngineShares(const std::array<uint64_t, 3>& before,
                     const std::array<uint64_t, 3>& after, uint64_t degraded,
                     Report* report) {
  uint64_t total = 0;
  for (size_t e = 0; e < 3; ++e) total += after[e] - before[e];
  for (size_t e = 0; e < 3; ++e) {
    report->Add(std::string("scheduler.share.") + EngineName(kEngines[e]),
                Ratio(after[e] - before[e], total), "ratio", Kind::kCount,
                total);
  }
  report->Add("scheduler.degraded", static_cast<double>(degraded), "count",
              Kind::kCount);
}

void AddFailureMetrics(uint64_t attempted, uint64_t failures,
                       uint64_t refused, Report* report) {
  report->Add("error_rate", Ratio(failures, attempted), "ratio", Kind::kCount,
              attempted);
  report->Add("server.refused", static_cast<double>(refused), "count",
              Kind::kCount);
}

void AddTracedServingMetrics(
    const LoopResult& loop, const Tracer& tracer,
    const std::vector<std::vector<double>>& direct_ms, Report* report) {
  const std::vector<double> queue = tracer.Attr("client.request", "queue_ms");
  const std::vector<double> latency =
      tracer.Attr("client.request", "latency_ms");
  const std::vector<double> client = tracer.Attr("client.request", "client_ms");
  const std::vector<double> cls = tracer.Attr("client.request", "class");
  const std::vector<double> served =
      tracer.Attr("client.request", "served_engine");
  const std::vector<double> ok = tracer.Attr("client.request", "ok");
  std::vector<double> exec, wait, overhead, traced_ms;
  for (size_t i = 0; i < queue.size(); ++i) {
    if (ok[i] == 0) continue;
    const double exec_ms = latency[i] - queue[i];
    exec.push_back(exec_ms);
    wait.push_back(client[i] - latency[i]);
    traced_ms.push_back(client[i]);
    const double direct = direct_ms[static_cast<size_t>(cls[i])]
                                   [static_cast<size_t>(served[i])];
    if (direct > 0) overhead.push_back(exec_ms - direct);
  }
  std::vector<double> untraced_ms;
  for (const Outcome& o : loop.outcomes) {
    if (o.ok && !o.traced) untraced_ms.push_back(o.client_ms());
  }
  report->Add("server.queue_ms.p50", Percentile(queue, 0.5), "ms",
              Kind::kMeasured, queue.size());
  report->Add("server.exec_ms.p50", Percentile(exec, 0.5), "ms",
              Kind::kMeasured, exec.size());
  report->Add("server.overhead_ms.p50", Percentile(overhead, 0.5), "ms",
              Kind::kMeasured, overhead.size());
  report->Add("scheduler.wait_ms.p50", Percentile(wait, 0.5), "ms",
              Kind::kMeasured, wait.size());
  const double untraced_p50 = Percentile(untraced_ms, 0.5);
  report->Add("trace.overhead_pct",
              untraced_p50 > 0
                  ? (Percentile(traced_ms, 0.5) / untraced_p50 - 1) * 100
                  : 0,
              "%", Kind::kMeasured, traced_ms.size());
}

StatusOr<DirectRun> ReplayClass(const std::string& label, const ExecFn& exec,
                                int reps, double budget_s, Tracer* tracer) {
  std::vector<double> wall, phase_r;
  DirectRun last;
  const double start = NowSeconds();
  for (int r = 0; r < reps; ++r) {
    if (r > 0 && NowSeconds() - start > budget_s) break;
    ScopedSpan span(tracer, "core.exec");
    const double t0 = NowSeconds();
    StatusOr<DirectRun> run = exec();
    const double ms = (NowSeconds() - t0) * 1e3;
    if (!run.ok()) {
      return Status::Internal(label + ": " + run.status().ToString());
    }
    last = *run;
    wall.push_back(ms);
    phase_r.push_back(run->phase_r_ms);
    span.Annotate("wall_ms", ms);
    span.Annotate("phase_r_ms", run->phase_r_ms);
    span.Annotate("candidates", static_cast<double>(run->candidates));
    span.Annotate("refined", static_cast<double>(run->refined));
  }
  last.wall_ms = Median(wall);
  last.phase_r_ms = Median(phase_r);
  return last;
}

void AddCoreMetrics(const std::vector<QueryClass>& classes,
                    const std::vector<std::vector<DirectRun>>& runs,
                    Report* report) {
  std::vector<double> per_engine[3];
  std::vector<double> phase_r, emulation;
  uint64_t candidates = 0, refined = 0;
  for (size_t c = 0; c < classes.size(); ++c) {
    for (size_t e = 0; e < 3; ++e) {
      const DirectRun& run = runs[c][e];
      per_engine[e].push_back(run.wall_ms);
      report->Add("core." + classes[c].name + "." + EngineName(kEngines[e]) +
                      ".exec_ms",
                  run.wall_ms, "ms", Kind::kMeasured);
    }
    const DirectRun& ar = runs[c][0];
    phase_r.push_back(ar.phase_r_ms);
    emulation.push_back(ar.wall_ms - ar.phase_r_ms);
    candidates += ar.candidates;
    refined += ar.refined;
    report->Add("core." + classes[c].name + ".ar.phase_r_ms", ar.phase_r_ms,
                "ms", Kind::kMeasured);
    report->Add("core." + classes[c].name + ".ar.emulation_ms",
                ar.wall_ms - ar.phase_r_ms, "ms", Kind::kMeasured);
    report->Add("core." + classes[c].name + ".ar.refine_yield",
                ar.candidates > 0 ? static_cast<double>(ar.refined) /
                                        static_cast<double>(ar.candidates)
                                  : 1.0,
                "ratio", Kind::kCount, ar.candidates);
    report->Add("core." + classes[c].name + ".ar.modelled_ms", ar.modelled_ms,
                "ms", Kind::kModelled);
  }
  for (size_t e = 0; e < 3; ++e) {
    report->Add(std::string("core.") + EngineName(kEngines[e]) + ".exec_ms",
                Mean(per_engine[e]), "ms", Kind::kMeasured,
                per_engine[e].size());
  }
  report->Add("core.ar.phase_r_ms", Mean(phase_r), "ms", Kind::kMeasured,
              phase_r.size());
  report->Add("core.ar.emulation_ms", Mean(emulation), "ms", Kind::kMeasured,
              emulation.size());
  report->Add("core.ar.refine_yield",
              candidates > 0 ? static_cast<double>(refined) /
                                   static_cast<double>(candidates)
                             : 1.0,
              "ratio", Kind::kCount, candidates);
}

void ProbeDeviceLaunch(device::Device* dev, Tracer* tracer, Report* report) {
  const device::KernelSignature sig{"perfbench_empty", 32, 32, 0, ""};
  device::LaunchCost cost;
  cost.elements = 64;
  cost.ops = 64;
  auto body = [](uint64_t, uint64_t) {};
  dev->Launch(sig, cost, body);  // compile once, outside the timing
  constexpr int kBatch = 100;
  std::vector<double> per_call_us;
  const double start = NowSeconds();
  while (per_call_us.size() < 20 || NowSeconds() - start < 0.2) {
    ScopedSpan span(tracer, "device.launch_batch");
    const double t0 = NowSeconds();
    for (int i = 0; i < kBatch; ++i) dev->Launch(sig, cost, body);
    per_call_us.push_back((NowSeconds() - t0) * 1e6 / kBatch);
    span.Annotate("calls", kBatch);
    if (per_call_us.size() >= 2000) break;
  }
  report->Add("device.launch_us", Median(per_call_us), "us", Kind::kMeasured,
              per_call_us.size() * kBatch);
}

void ProbeCodecScan(const bwd::BwdColumn& column, Tracer* tracer,
                    Report* report) {
  const bwd::PackedView view = column.approximation();
  const uint64_t blocks = view.size() / bwd::kPackedBlockElems;
  const uint32_t width = view.width();
  // Match the lower half of the digit domain: a range scan's pass 1.
  const uint64_t span_digits =
      width == 0 ? 0 : (width >= 64 ? ~0ull : ((1ull << width) - 1)) / 2;
  std::vector<double> rates;
  uint64_t matched = 0;
  const double start = NowSeconds();
  while (blocks > 0 && (rates.size() < 5 || NowSeconds() - start < 0.2)) {
    ScopedSpan span(tracer, "bwd.match_block");
    const double t0 = NowSeconds();
    for (uint64_t b = 0; b < blocks; ++b) {
      matched += static_cast<uint64_t>(
          std::popcount(bwd::MatchBlock(view.words(), width, b, 0,
                                        span_digits)));
    }
    const double s = NowSeconds() - t0;
    rates.push_back(static_cast<double>(blocks * bwd::kPackedBlockElems) /
                    s / 1e6);
    span.Annotate("elements",
                  static_cast<double>(blocks * bwd::kPackedBlockElems));
    if (rates.size() >= 1000) break;
  }
  std::printf("codec scan: %u-bit digits, %s tier, %llu matches\n", width,
              bwd::PackedCodecIsa(), static_cast<unsigned long long>(matched));
  report->Add("bwd.scan_melem_s", Median(rates), "Melem/s", Kind::kMeasured,
              rates.size());
}

void ProbePlanLowering(const std::vector<QueryClass>& classes,
                       const cs::Database& db, Tracer* tracer,
                       Report* report) {
  std::vector<double> per_class_us;
  for (const QueryClass& c : classes) {
    ScopedSpan span(tracer, "core.plan.lower");
    constexpr int kReps = 200;
    uint64_t supported = 0;
    const double t0 = NowSeconds();
    for (int i = 0; i < kReps; ++i) {
      const core::PhysicalPlan plan =
          c.spec.has_value() ? core::LowerToPlan(*c.spec) : *c.plan;
      if (!core::ValidatePlan(plan, db).ok()) {
        std::fprintf(stderr, "plan %s failed validation\n", c.name.c_str());
      }
      supported += core::PlanToSpec(plan).ok() ? 1 : 0;
    }
    per_class_us.push_back((NowSeconds() - t0) * 1e6 / kReps);
    span.Annotate("spec_roundtrips", static_cast<double>(supported));
  }
  report->Add("core.plan.lower_us", Mean(per_class_us), "us", Kind::kMeasured,
              per_class_us.size());
}

void ProbeSchedulerDecide(const server::QueryServer::Backend& backend,
                          const std::vector<QueryClass>& classes,
                          Tracer* tracer, Report* report) {
  server::AdaptiveScheduler scheduler(backend);
  std::vector<double> per_class_us;
  for (const QueryClass& c : classes) {
    ScopedSpan span(tracer, "scheduler.decide");
    constexpr int kReps = 200;
    int chosen[3] = {0, 0, 0};
    const double t0 = NowSeconds();
    for (int i = 0; i < kReps; ++i) {
      const server::SchedulerDecision d = c.spec.has_value()
                                              ? scheduler.Decide(*c.spec)
                                              : scheduler.Decide(*c.plan);
      ++chosen[static_cast<int>(d.engine)];
    }
    per_class_us.push_back((NowSeconds() - t0) * 1e6 / kReps);
    span.Annotate("chose_ar", chosen[0]);
    span.Annotate("chose_classic", chosen[1]);
    span.Annotate("chose_streaming", chosen[2]);
  }
  scheduler.Shutdown();
  report->Add("scheduler.decide_us", Mean(per_class_us), "us",
              Kind::kMeasured, per_class_us.size());
}

IngestResult RunIngestWriter(storage::MutableTable* table,
                             server::QueryServer* server, const RowFn& row,
                             uint64_t first_row, double rows_per_s,
                             uint64_t batch, double seconds, Tracer* tracer) {
  IngestResult out;
  out.next_row = first_row;
  const double interval = static_cast<double>(batch) / rows_per_s;
  const storage::MutableTableStats before = table->Stats();
  uint64_t seen_swaps = before.swaps;
  uint64_t unacked = 0;
  double append_s = 0;
  uint64_t appended = 0;
  const double start = NowSeconds();
  for (uint64_t k = 0;; ++k) {
    const double due = start + static_cast<double>(k) * interval;
    if (due >= start + seconds) break;
    const double now = NowSeconds();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
    }
    out.late_ms.push_back(std::max(0.0, NowSeconds() - due) * 1e3);
    {
      ScopedSpan span(tracer, "storage.append_batch");
      const double t0 = NowSeconds();
      int64_t values[3];
      for (uint64_t r = 0; r < batch; ++r) {
        row(out.next_row, values);
        for (;;) {
          const Status s = server != nullptr ? server->Append(values)
                                             : table->Append(values);
          if (s.ok()) break;
          ++out.refused;  // backlog admission: wait for the drain
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ++out.next_row;
      }
      append_s += NowSeconds() - t0;
      appended += batch;
      unacked += batch;
      span.Annotate("rows", static_cast<double>(batch));
    }
    {
      ScopedSpan span(tracer, "storage.flush");
      const double t0 = NowSeconds();
      const StatusOr<uint64_t> durable =
          server != nullptr ? server->FlushIngest() : table->Flush();
      const double t1 = NowSeconds();
      out.flush_ms.push_back((t1 - t0) * 1e3);
      if (durable.ok()) {
        out.acked_rows += unacked;
        unacked = 0;
        out.commit_ms.push_back((t1 - due) * 1e3);
      } else {
        ++out.failed_commits;
      }
      span.Annotate("ok", durable.ok() ? 1 : 0);
    }
    const storage::MutableTableStats stats = table->Stats();
    out.pending_rows.push_back(static_cast<double>(stats.pending_rows));
    if (stats.swaps > seen_swaps) {
      out.rows_reencoded += (stats.swaps - seen_swaps) * stats.absorbed_rows;
      seen_swaps = stats.swaps;
    }
  }
  out.seconds = NowSeconds() - start;
  const storage::MutableTableStats after = table->Stats();
  out.swaps = after.swaps - before.swaps;
  out.failed_swaps = after.failed_swaps - before.failed_swaps;
  out.append_us_per_row =
      appended > 0 ? append_s * 1e6 / static_cast<double>(appended) : 0;
  return out;
}

void AddStorageMetrics(const IngestResult& ingest, double recovery_s,
                       double drain_s, double pending_rows_p50,
                       Report* report) {
  const uint64_t commits = ingest.commit_ms.size();
  report->Add("storage.ingest_rows_s",
              static_cast<double>(ingest.acked_rows) / ingest.seconds,
              "rows/s", Kind::kMeasured, ingest.acked_rows);
  report->Add("storage.commit_ms.p50", Percentile(ingest.commit_ms, 0.5),
              "ms", Kind::kMeasured, commits);
  report->Add("storage.commit_ms.p99", Percentile(ingest.commit_ms, 0.99),
              "ms", Kind::kMeasured, commits);
  report->Add("storage.append_us", ingest.append_us_per_row, "us",
              Kind::kMeasured, ingest.acked_rows);
  report->Add("storage.flush_ms.p50", Percentile(ingest.flush_ms, 0.5), "ms",
              Kind::kMeasured, ingest.flush_ms.size());
  report->Add("storage.flush_ms.p99", Percentile(ingest.flush_ms, 0.99), "ms",
              Kind::kMeasured, ingest.flush_ms.size());
  report->Add("storage.swaps", static_cast<double>(ingest.swaps), "count",
              Kind::kCount);
  report->Add("storage.failed_swaps", static_cast<double>(ingest.failed_swaps),
              "count", Kind::kCount);
  report->Add("storage.rewrite_amp",
              ingest.acked_rows > 0
                  ? static_cast<double>(ingest.rows_reencoded) /
                        static_cast<double>(ingest.acked_rows)
                  : 0,
              "ratio", Kind::kCount, ingest.swaps);
  report->Add("storage.pending_rows.p50", pending_rows_p50, "rows",
              Kind::kCount);
  report->Add("storage.ingest_late_ms.max",
              ingest.late_ms.empty()
                  ? 0
                  : *std::max_element(ingest.late_ms.begin(),
                                      ingest.late_ms.end()),
              "ms", Kind::kMeasured, ingest.late_ms.size());
  report->Add("storage.refused", static_cast<double>(ingest.refused), "count",
              Kind::kCount);
  report->Add("storage.recovery_s", recovery_s, "s", Kind::kMeasured);
  report->Add("storage.drain_s", drain_s, "s", Kind::kMeasured);
}

bool ReplayStorage(const std::string& dir, const cs::Table& fact,
                   const std::vector<std::string>& columns, Tracer* tracer,
                   Report* report) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);
  device::Device dev;
  storage::MutableTableOptions opts;
  opts.dir = dir;
  opts.name = "replay";
  opts.columns = columns;
  opts.device = &dev;
  std::vector<const cs::Column*> cols;
  for (const std::string& c : columns) cols.push_back(&fact.column(c));
  const uint64_t n = fact.num_rows();
  const RowFn row = [&](uint64_t i, int64_t* out) {
    for (size_t c = 0; c < cols.size(); ++c) out[c] = cols[c]->Get(i % n);
  };
  IngestResult ingest;
  {
    auto table = storage::MutableTable::Open(opts);
    if (!table.ok()) {
      std::fprintf(stderr, "storage replay: %s\n",
                   table.status().ToString().c_str());
      return false;
    }
    ingest = RunIngestWriter(table->get(), nullptr, row, 0, 200'000, 1024,
                             0.5, tracer);
  }
  double recovery_s = 0, drain_s = 0;
  bool ok = true;
  {
    ScopedSpan span(tracer, "storage.reopen");
    opts.background = false;
    const double t0 = NowSeconds();
    auto table = storage::MutableTable::Open(opts);
    recovery_s = NowSeconds() - t0;
    ok = table.ok() && (*table)->Stats().durable_rows >= ingest.acked_rows;
    if (ok) {
      int64_t values[3];
      for (uint64_t i = 0; i < 1024; ++i) {
        row(ingest.next_row + i, values);
        ok &= (*table)->Append(values).ok();
      }
      ok &= (*table)->Flush().ok();
      ScopedSpan drain_span(tracer, "storage.drain");
      const double t1 = NowSeconds();
      ok &= (*table)->Drain().ok();
      drain_s = NowSeconds() - t1;
    }
  }
  fs::remove_all(dir);
  if (!ok) std::fprintf(stderr, "storage replay lost acknowledged rows\n");
  AddStorageMetrics(ingest, recovery_s, drain_s, Median(ingest.pending_rows),
                    report);
  return ok;
}

}  // namespace wastenot::perfbench
