// The benchmark's workloads. Each runs one seeded configuration for the
// requested seconds, checks every answer, prints its records and returns
// the process exit code (0 only when every check passed).

#ifndef WASTENOT_PERFBENCH_WORKLOADS_H_
#define WASTENOT_PERFBENCH_WORKLOADS_H_

#include "bench_util.h"

namespace wastenot::perfbench {

/// Fixed per-request cost: tiny TPC-H, fully resident, adaptive scheduler.
int RunSmallAdaptive(const Options& options);
/// Engine-bound analytics on scarce device memory over a 2-device group.
int RunTpchSharded(const Options& options);
/// Open-loop ingest beside closed-loop reads on a MutableTable.
int RunIngestMixed(const Options& options);

/// Shared tail of every workload: peak memory, the printed records, the
/// records file, the span file, and the result line.
int FinishRun(const Options& options, Report* report, const Tracer& tracer,
              bool correct, uint64_t attempted, uint64_t failed);

}  // namespace wastenot::perfbench

#endif  // WASTENOT_PERFBENCH_WORKLOADS_H_
