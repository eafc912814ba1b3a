// Served-system benchmark: runs one named workload for a fixed
// number of seconds with a seeded input, checks every answer, and prints
// its tagged records followed by one result line (see perfbench/README.md).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace wastenot::perfbench {
namespace {

/// Wall ms of a fixed integer loop run on `threads` threads at once (the
/// slowest thread). How fast this host ran when the run ended: on a shared
/// host the parallel capacity drifts by tens of percent over minutes, and
/// these records let two runs' figures be read against it.
double HostProbeMs(unsigned threads) {
  std::vector<double> ms(threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&ms, t] {
      const double t0 = NowSeconds();
      uint64_t x = 88172645463325252ull + t, sum = 0;
      for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum += x;
      }
      ms[t] = (NowSeconds() - t0) * 1e3;
      if (sum == 42) std::printf(" ");  // keeps the loop's result live
    });
  }
  for (std::thread& w : workers) w.join();
  return *std::max_element(ms.begin(), ms.end());
}

}  // namespace

int FinishRun(const Options& options, Report* report, const Tracer& tracer,
              bool correct, uint64_t attempted, uint64_t failed) {
  UnpinCpu();  // the host probes measure every CPU the process may use
  report->Add("peak_rss_mb", PeakRssMb(), "MB", Kind::kMeasured);
  report->Add("host.probe_1t_ms", HostProbeMs(1), "ms", Kind::kMeasured);
  report->Add("host.probe_4t_ms", HostProbeMs(4), "ms", Kind::kMeasured);
  if (options.trace) {
    report->Add("trace.spans", static_cast<double>(tracer.size()), "count",
                Kind::kCount);
  }
  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) +
                           (options.trace ? "-trace" : "");
  report->WriteRecords(stem + "-records.json", options);
  if (options.trace) tracer.Write(stem + "-spans.json");
  std::printf("workload %s seed %llu: %llu attempted, %llu failed, %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? "all answers correct" : "WRONG ANSWERS");
  report->PrintLines();
  report->PrintResultLine(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace wastenot::perfbench

int main(int argc, char** argv) {
  using namespace wastenot::perfbench;
  Options options;
  if (!ParseOptions(argc, argv, &options)) return 2;
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", options.out_dir.c_str());
    return 2;
  }
  if (options.workload == "small_adaptive") return RunSmallAdaptive(options);
  if (options.workload == "tpch_sharded") return RunTpchSharded(options);
  if (options.workload == "ingest_mixed") return RunIngestMixed(options);
  std::fprintf(stderr,
               "unknown workload %s (small_adaptive, tpch_sharded, "
               "ingest_mixed)\n",
               options.workload.c_str());
  return 2;
}
