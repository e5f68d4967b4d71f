#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eq::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline Clock::time_point After(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

/// Command line of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< measured time budget of the run
  bool trace = false;   ///< traced run: per-layer metrics instead
  bool tiny = false;    ///< smoke size: every phase shrunk to a few ops
};

/// Nearest-rank percentile (pct in [0, 100]) over a copy of `xs`; 0 when
/// empty.
double Percentile(std::vector<double> xs, double pct);
double Median(std::vector<double> xs);
double Mean(const std::vector<double>& xs);

/// A tail that a rare stall cannot swing: `xs`, in the order taken, is cut
/// into consecutive windows just big enough to hold ten samples beyond
/// `pct` (1000 for p99, 200 for p95); the result is the median of the
/// windows' percentiles. `*windows` receives the window count; with fewer
/// samples than one window it is 0 and the pooled percentile is returned.
double WindowedPercentile(const std::vector<double>& xs, double pct,
                          size_t* windows = nullptr);

/// Process CPU time (user + system) in seconds, all threads.
double ProcessCpuSeconds();
/// Peak resident set size of the process so far, in MB.
double PeakRssMb();

/// The result of one run: metrics with units, correctness findings, the
/// operation counts, and notes (sample counts, diagnostics) printed
/// beside the metrics.
class Report {
 public:
  explicit Report(const RunOptions& opts) : opts_(opts) {}

  void Metric(const std::string& name, double value, const std::string& unit);

  /// A timing tail over `parts`, the samples of independent repeats:
  /// reports the median of each part's windowed `pct` as `name`, and notes
  /// the sample count, the fewest windows of any part, the pooled
  /// percentile and the maximum. Outside smoke runs, a part with too few
  /// samples for one window (ten beyond the percentile) makes the run
  /// invalid rather than report a tail that is one sample.
  void Tail(const std::string& name,
            const std::vector<std::vector<double>>& parts, double pct,
            const std::string& unit);

  /// A correctness check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  /// Marks the run invalid (the measurement itself is not trustworthy).
  void Invalid(const std::string& why);
  void Note(const std::string& key, double value);
  void Count(uint64_t attempted, uint64_t failed);

  bool correct() const { return errors_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const RunOptions& options() const { return opts_; }

  /// One-line JSON: correct, attempted, failed, metrics, notes, errors,
  /// invalid and the build stamp.
  std::string ToJson() const;

 private:
  struct Value {
    double value = 0;
    std::string unit;
  };
  RunOptions opts_;
  std::map<std::string, Value> metrics_;
  std::map<std::string, double> notes_;
  std::vector<std::string> errors_;
  std::vector<std::string> invalid_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The latency limit of max_qps_at_slo: group p99 at most this.
inline constexpr double kSloMs = 10.0;

/// Workload entry points (one per workload name).
void RunKwayOpen(Report* report);
void RunWriteMix(Report* report);
void RunClusterKway(Report* report);
void RunPaperBatch(Report* report);

}  // namespace eq::perfbench

#endif  // PERFBENCH_COMMON_H_
