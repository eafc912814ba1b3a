// Shared plumbing of the served-system benchmark: command-line options,
// tagged metric records, percentiles, an in-memory span tracer, and the
// result line the benchmark prints last.
//
// Every number the benchmark reports is a Record tagged `measured` (wall time
// on this host), `modelled` (simulated device or bus time from the cost
// model) or `count` (events, ratios, sizes). Modelled and measured time are
// never added together: a metric holds exactly one kind.

#ifndef WASTENOT_PERFBENCH_BENCH_UTIL_H_
#define WASTENOT_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace wastenot::perfbench {

/// What one invocation runs.
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Directory for the run's temporary state (tables, WAL) and its written
  /// records and spans. Created if absent.
  std::string out_dir;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 --out-dir D`.
/// Returns false (after printing why) on any malformed or missing value.
bool ParseOptions(int argc, char** argv, Options* out);

enum class Kind { kMeasured, kModelled, kCount };
const char* KindName(Kind kind);

/// One tagged number. `samples` is the sample count behind a percentile
/// or mean (0 when not applicable).
struct Record {
  std::string name;
  double value = 0;
  std::string unit;
  Kind kind = Kind::kMeasured;
  uint64_t samples = 0;
};

/// The metrics of one run, keyed by name (a name is recorded once).
class Report {
 public:
  /// Adds a record; a duplicate name is a benchmark bug and aborts.
  void Add(const std::string& name, double value, const std::string& unit,
           Kind kind, uint64_t samples = 0);
  bool Has(const std::string& name) const;
  const std::vector<Record>& records() const { return records_; }

  /// One human-readable line per record, on stdout.
  void PrintLines() const;
  /// Writes every record as a JSON array of tagged objects to `path`.
  void WriteRecords(const std::string& path, const Options& options) const;
  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// every record as {"value", "unit"}.
  void PrintResultLine(bool correct, uint64_t attempted,
                       uint64_t failed) const;

 private:
  std::vector<Record> records_;
};

/// Nearest-rank percentile (sorted[ceil(f * n) - 1]); 0 for no samples.
double Percentile(std::vector<double> samples, double fraction);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);
/// Samples strictly above the `fraction` percentile — the "at least
/// ten samples beyond" test for reporting a tail percentile.
uint64_t SamplesBeyond(const std::vector<double>& samples, double fraction);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Seconds since an arbitrary process-wide epoch (steady clock).
double NowSeconds();

/// Confines every thread of the process, and every thread they start from
/// then on, to one CPU: the last of those the calling thread may run on.
/// Threads that hand work to each other then switch on that CPU instead of
/// waking idle vCPUs, whose wake-up latency on a shared host swings with
/// the neighbours' load. Returns false when the affinity of the calling
/// thread cannot be read or set.
bool PinToOneCpu();
/// Lets every thread of the process run on the CPUs the first PinToOneCpu
/// found again.
void UnpinCpu();

/// SplitMix64: the benchmark's only source of seeded randomness, so a seed
/// fixes every generated input and request sequence.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// One traced interval around a benchmark call into a layer.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< request id shared by a request's spans; 0 = none
  std::string name;      ///< "<layer>.<call>"
  double start_us = 0;
  double end_us = 0;
  std::map<std::string, double> attrs;  ///< annotations (response fields)
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).
  uint64_t Begin(const std::string& name, uint64_t parent = 0,
                 uint64_t request = 0);
  /// Closes span `id` and merges `attrs` into its annotations.
  void End(uint64_t id, const std::map<std::string, double>& attrs = {});

  /// Annotation `attr` of every closed span named `name` that carries it.
  std::vector<double> Attr(const std::string& name,
                           const std::string& attr) const;
  uint64_t size() const;
  /// Writes all spans as a JSON array to `path`.
  void Write(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< spans_[id - 1]
};

/// RAII span. `Annotate` adds attributes recorded when the span closes.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t parent = 0,
             uint64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_, attrs_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  void Annotate(const std::string& key, double value) {
    if (id_ != 0) attrs_[key] = value;
  }

 private:
  Tracer* tracer_;
  uint64_t id_;
  std::map<std::string, double> attrs_;
};

}  // namespace wastenot::perfbench

#endif  // WASTENOT_PERFBENCH_BENCH_UTIL_H_
