// The benchmark's bookkeeping, kept apart from the site driving so the
// self-test can pin it down: tail percentiles, client-side spans, the
// arithmetic on two GET /metrics scrapes, the closure check and the
// reference-tree comparison.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "aida/tree.hpp"
#include "loadgen/promparse.hpp"
#include "loadgen/stats.hpp"

namespace cyclebench {

// --- percentiles -----------------------------------------------------------

/// ipa::loadgen::percentile (linear interpolation between closest ranks, q
/// clamped to [0,1], 0 for an empty sample) over values in any order.
inline double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return ipa::loadgen::percentile(values, q);
}
inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }
/// Mean of the values left after dropping the lowest and the highest
/// `trim` share (each side, rounded down); 0 for an empty sample. trim = 0
/// is the plain mean.
inline double trimmed_mean(std::vector<double> values, double trim) {
  std::sort(values.begin(), values.end());
  const auto cut = static_cast<std::size_t>(static_cast<double>(values.size()) *
                                            std::clamp(trim, 0.0, 0.49));
  double sum = 0;
  for (std::size_t i = cut; i + cut < values.size(); ++i) sum += values[i];
  const std::size_t n = values.size() - 2 * cut;
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// --- client-side spans -----------------------------------------------------

/// Monotonic seconds (steady clock) shared by every span and cycle stamp.
double now_s();

struct Span {
  const char* name = "";    // a string literal: recording never allocates
  double start_s = 0;
  double end_s = 0;
  int parent = -1;          // index into the owning log, -1 = root
  std::uint64_t cycle = 0;  // cycle id the span belongs to
  double duration_s() const { return end_s - start_s; }
};

/// Append-only, in-memory span store of one user thread. Nothing is
/// written out until the run ends.
class SpanLog {
 public:
  int begin(const char* name, std::uint64_t cycle, int parent);
  void end(int id);
  /// A span whose start and end are already known (poll sleeps).
  void add(const char* name, std::uint64_t cycle, int parent, double start_s, double end_s);
  const std::vector<Span>& spans() const { return spans_; }
  void append(const SpanLog& other);

 private:
  std::vector<Span> spans_;
};

// --- closure ---------------------------------------------------------------

/// How much of the root spans' wall time their direct children explain.
struct Closure {
  int roots = 0;
  double wall_s = 0;                       // summed root durations
  double covered_s = 0;                    // summed direct-child durations
  std::map<std::string, double> child_s;   // per child name, summed
  double coverage() const { return wall_s > 0 ? covered_s / wall_s : 0; }
  double gap_s() const { return wall_s - covered_s; }
};

/// Closure of every span named `root` in `spans` over its direct children.
Closure closure(const std::vector<Span>& spans, std::string_view root);

/// One line for the report: the coverage and, below `threshold`, a named
/// gap with its size per root.
std::string describe_closure(const Closure& c, double threshold);

// --- /metrics deltas -------------------------------------------------------

/// Sum of several series with identical bounds (e.g. every reactor's loop
/// histogram); series whose bounds differ from the first are skipped.
ipa::loadgen::HistogramSeries histogram_sum(
    const std::map<std::string, ipa::loadgen::HistogramSeries>& series);

/// Two scrapes of GET /metrics around one measured phase.
class ScrapeDelta {
 public:
  ScrapeDelta(std::string before, std::string after)
      : before_(std::move(before)), after_(std::move(after)) {}

  /// Increase of a counter/gauge family summed over all its label sets.
  double total(std::string_view family) const;
  /// Increase per value of `label_key`.
  std::map<std::string, double> by_label(std::string_view family,
                                         std::string_view label_key) const;
  /// Histogram increase per value of `label_key`.
  std::map<std::string, ipa::loadgen::HistogramSeries> histograms(
      std::string_view family, std::string_view label_key) const;

 private:
  std::string before_;
  std::string after_;
};

// --- server span dump ------------------------------------------------------

/// Self time (duration minus the durations of its children in the same
/// dump) summed per span name, from the JSON GET /status?session= serves.
/// Spans whose parent is outside the dump keep their full duration.
std::map<std::string, double> server_self_time(std::string_view status_json);

// --- correctness -----------------------------------------------------------

/// Empty when `got` matches `want`: same object paths and kinds; for 1-D
/// histograms equal entries and bin contents with mean/rms within
/// `moment_tolerance` relative (the moment sums are order-dependent in the
/// low bits); every other kind byte-identical. Otherwise a one-line reason.
std::string compare_trees(const ipa::aida::Tree& want, const ipa::aida::Tree& got,
                          double moment_tolerance = 1e-9);

}  // namespace cyclebench
