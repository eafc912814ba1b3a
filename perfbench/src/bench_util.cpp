#include "bench_util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>

namespace wastenot::perfbench {

namespace {

bool ParseU64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

/// JSON has no inf/nan: a non-finite value is a benchmark bug, reported as 0
/// so the line stays parseable (and the run is failed by the caller).
void PrintNumber(FILE* f, double v) {
  if (!std::isfinite(v)) v = 0;
  std::fprintf(f, "%.17g", v);
}

}  // namespace

bool ParseOptions(int argc, char** argv, Options* out) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    ++i;
    uint64_t n = 0;
    if (flag == "--workload") {
      out->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &out->seed)) {
        std::fprintf(stderr, "--seed expects a non-negative integer\n");
        return false;
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &n) || n == 0 || n > 3600) {
        std::fprintf(stderr, "--seconds expects an integer in 1..3600\n");
        return false;
      }
      out->seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseU64(value, &n) || n > 1) {
        std::fprintf(stderr, "--trace expects 0 or 1\n");
        return false;
      }
      out->trace = n == 1;
      have_trace = true;
    } else if (flag == "--out-dir") {
      out->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      out->out_dir.empty()) {
    std::fprintf(stderr,
                 "usage: wn_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR\n");
    return false;
  }
  return true;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kMeasured:
      return "measured";
    case Kind::kModelled:
      return "modelled";
    case Kind::kCount:
      return "count";
  }
  return "?";
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, Kind kind, uint64_t samples) {
  if (Has(name)) {
    std::fprintf(stderr, "duplicate record %s\n", name.c_str());
    std::abort();
  }
  records_.push_back(Record{name, value, unit, kind, samples});
}

bool Report::Has(const std::string& name) const {
  return std::any_of(records_.begin(), records_.end(),
                     [&](const Record& r) { return r.name == name; });
}

void Report::PrintLines() const {
  for (const Record& r : records_) {
    std::printf("%-9s %-34s %16.6g %-8s", KindName(r.kind), r.name.c_str(),
                r.value, r.unit.c_str());
    if (r.samples > 0) {
      std::printf(" n=%llu", static_cast<unsigned long long>(r.samples));
    }
    std::printf("\n");
  }
}

void Report::WriteRecords(const std::string& path,
                          const Options& options) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "  {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                 "\"name\": \"%s\", \"kind\": \"%s\", \"unit\": \"%s\", "
                 "\"samples\": %llu, \"value\": ",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 options.trace ? 1 : 0, r.name.c_str(), KindName(r.kind),
                 r.unit.c_str(), static_cast<unsigned long long>(r.samples));
    PrintNumber(f, r.value);
    std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

void Report::PrintResultLine(bool correct, uint64_t attempted,
                             uint64_t failed) const {
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", r.name.c_str());
    PrintNumber(stdout, r.value);
    std::printf(", \"unit\": \"%s\"}", r.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Percentile(std::vector<double> samples, double fraction) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(fraction * static_cast<double>(samples.size()));
  const size_t idx = static_cast<size_t>(std::clamp(
      rank - 1, 0.0, static_cast<double>(samples.size() - 1)));
  return samples[idx];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

uint64_t SamplesBeyond(const std::vector<double>& samples, double fraction) {
  const double cut = Percentile(samples, fraction);
  return static_cast<uint64_t>(std::count_if(
      samples.begin(), samples.end(), [cut](double v) { return v > cut; }));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

cpu_set_t unpinned_cpus;
bool pinned = false;

/// Sets the affinity of every thread of the process; threads inherit it
/// from the one that starts them.
void SetProcessAffinity(const cpu_set_t& cpus) {
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    sched_setaffinity(std::atoi(task.path().filename().c_str()), sizeof(cpus),
                      &cpus);
  }
}

}  // namespace

bool PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return false;
  if (!pinned) unpinned_cpus = allowed;
  pinned = true;
  SetProcessAffinity(one);
  return true;
}

void UnpinCpu() {
  if (pinned) SetProcessAffinity(unpinned_cpus);
  pinned = false;
}

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Tracer::Begin(const std::string& name, uint64_t parent,
                       uint64_t request) {
  if (!enabled_) return 0;
  const double now = NowSeconds() * 1e6;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_us = now;
  span.end_us = -1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint64_t id, const std::map<std::string, double>& attrs) {
  if (id == 0) return;
  const double now = NowSeconds() * 1e6;
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[id - 1];
  span.end_us = now;
  for (const auto& [k, v] : attrs) span.attrs[k] = v;
}

std::vector<double> Tracer::Attr(const std::string& name,
                                 const std::string& attr) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name != name || s.end_us < 0) continue;
    auto it = s.attrs.find(attr);
    if (it != s.attrs.end()) out.push_back(it->second);
  }
  return out;
}

uint64_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"attrs\": {",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 s.start_us, s.end_us);
    bool first = true;
    for (const auto& [k, v] : s.attrs) {
      std::fprintf(f, "%s\"%s\": ", first ? "" : ", ", k.c_str());
      PrintNumber(f, v);
      first = false;
    }
    std::fprintf(f, "}}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace wastenot::perfbench
