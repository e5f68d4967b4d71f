#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace eq::perfbench {

double Percentile(std::vector<double> xs, double pct) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(xs.size())));
  if (rank == 0) rank = 1;
  return xs[std::min(rank, xs.size()) - 1];
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 50); }

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double WindowedPercentile(const std::vector<double>& xs, double pct,
                          size_t* windows) {
  const size_t size =
      static_cast<size_t>(std::llround(10.0 / (1.0 - pct / 100.0)));
  const size_t n = xs.size() / size;
  if (windows) *windows = n;
  if (n == 0) return Percentile(xs, pct);
  std::vector<double> tails;
  for (size_t w = 0; w < n; ++w) {
    auto begin = xs.begin() + static_cast<std::ptrdiff_t>(w * size);
    auto end = w + 1 == n ? xs.end() : begin + static_cast<std::ptrdiff_t>(size);
    tails.push_back(Percentile(std::vector<double>(begin, end), pct));
  }
  return Median(std::move(tails));
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Invalid("metric " + name + " is not finite");
    value = 0;
  }
  metrics_[name] = {value, unit};
}

void Report::Tail(const std::string& name,
                  const std::vector<std::vector<double>>& parts, double pct,
                  const std::string& unit) {
  std::vector<double> tails, all;
  size_t fewest = parts.empty() ? 0 : SIZE_MAX;
  for (const auto& xs : parts) {
    size_t windows = 0;
    tails.push_back(WindowedPercentile(xs, pct, &windows));
    fewest = std::min(fewest, windows);
    all.insert(all.end(), xs.begin(), xs.end());
  }
  Note("samples." + name, static_cast<double>(all.size()));
  Note("windows." + name, static_cast<double>(fewest));
  Note("pooled." + name, Percentile(all, pct));
  Note("max." + name, Percentile(all, 100));
  if (fewest == 0 && !opts_.tiny) {
    Invalid(name + ": a repeat has fewer than ten samples beyond the "
            "percentile");
  }
  Metric(name, Median(tails), unit);
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok && errors_.size() < 20) errors_.push_back(what);
}

void Report::Invalid(const std::string& why) { invalid_.push_back(why); }

void Report::Note(const std::string& key, double value) {
  notes_[key] = value;
}

void Report::Count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

namespace {

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Stamp() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef PERFBENCH_BUILD_TYPE
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#else
  const std::string build_type = "unknown";
#endif
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"build_type\": " + Quoted(build_type);
  out += ", \"compiler\": " + Quoted(std::string("gcc-compatible ") + __VERSION__);
  out += std::string(", \"optimized\": ") + (optimized ? "true" : "false");
  out += std::string(", \"ndebug\": ") + (ndebug ? "true" : "false");
  return out + "}";
}

}  // namespace

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += Quoted(name) + ": {\"value\": " + Number(v.value) +
           ", \"unit\": " + Quoted(v.unit) + "}";
  }
  out += "}, \"notes\": {";
  first = true;
  for (const auto& [key, v] : notes_) {
    if (!first) out += ", ";
    first = false;
    out += Quoted(key) + ": " + Number(v);
  }
  out += "}, \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    out += (i ? ", " : "") + Quoted(errors_[i]);
  }
  out += "], \"invalid\": [";
  for (size_t i = 0; i < invalid_.size(); ++i) {
    out += (i ? ", " : "") + Quoted(invalid_[i]);
  }
  out += "], \"workload\": " + Quoted(opts_.workload);
  out += ", \"seed\": " + std::to_string(opts_.seed);
  out += ", \"trace\": " + std::string(opts_.trace ? "1" : "0");
  out += ", \"stamp\": " + Stamp();
  return out + "}";
}

}  // namespace eq::perfbench
