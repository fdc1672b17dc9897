#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <variant>

#include "loadgen/json.hpp"

namespace cyclebench {

using ipa::loadgen::HistogramSeries;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::begin(const char* name, std::uint64_t cycle, int parent) {
  const double t = now_s();
  spans_.push_back(Span{name, t, t, parent, cycle});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) { spans_[static_cast<std::size_t>(id)].end_s = now_s(); }

void SpanLog::add(const char* name, std::uint64_t cycle, int parent, double start_s,
                  double end_s) {
  spans_.push_back(Span{name, start_s, end_s, parent, cycle});
}

void SpanLog::append(const SpanLog& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

Closure closure(const std::vector<Span>& spans, std::string_view root) {
  Closure out;
  std::vector<bool> is_root(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != root) continue;
    is_root[i] = true;
    ++out.roots;
    out.wall_s += spans[i].duration_s();
  }
  for (const Span& span : spans) {
    if (span.parent < 0 || !is_root[static_cast<std::size_t>(span.parent)]) continue;
    out.covered_s += span.duration_s();
    out.child_s[span.name] += span.duration_s();
  }
  return out;
}

std::string describe_closure(const Closure& c, double threshold) {
  char line[256];
  std::snprintf(line, sizeof line,
                "closure: client steps cover %.1f%% of %d cycles (%.3f s of %.3f s)",
                100 * c.coverage(), c.roots, c.covered_s, c.wall_s);
  std::string out = line;
  if (c.roots > 0 && c.coverage() < threshold) {
    std::snprintf(line, sizeof line,
                  "; GAP below %.0f%%: %.6f s per cycle spent between client steps "
                  "(benchmark bookkeeping, not a site layer)",
                  100 * threshold, c.gap_s() / c.roots);
    out += line;
  }
  return out;
}

namespace {

/// `after - before` bucket by bucket (series that did not exist before count
/// from zero). The bounds of `after` are kept.
HistogramSeries histogram_delta(const HistogramSeries& after, const HistogramSeries* before) {
  HistogramSeries out = after;
  if (before == nullptr) return out;
  for (std::size_t i = 0; i < out.cumulative.size(); ++i) {
    const std::uint64_t prior = i < before->cumulative.size() ? before->cumulative[i] : 0;
    out.cumulative[i] = out.cumulative[i] >= prior ? out.cumulative[i] - prior : 0;
  }
  out.sum = after.sum - before->sum;
  out.count = after.count >= before->count ? after.count - before->count : 0;
  return out;
}

}  // namespace

HistogramSeries histogram_sum(const std::map<std::string, HistogramSeries>& series) {
  HistogramSeries out;
  bool first = true;
  for (const auto& [key, s] : series) {
    if (first) {
      out = s;
      first = false;
      continue;
    }
    if (s.upper_bounds != out.upper_bounds) continue;
    for (std::size_t i = 0; i < out.cumulative.size(); ++i) out.cumulative[i] += s.cumulative[i];
    out.sum += s.sum;
    out.count += s.count;
  }
  return out;
}

std::map<std::string, double> ScrapeDelta::by_label(std::string_view family,
                                                    std::string_view label_key) const {
  const auto before = ipa::loadgen::parse_scalar_family(before_, family, label_key);
  std::map<std::string, double> out =
      ipa::loadgen::parse_scalar_family(after_, family, label_key);
  for (auto& [key, value] : out) {
    const auto it = before.find(key);
    if (it != before.end()) value -= it->second;
  }
  return out;
}

double ScrapeDelta::total(std::string_view family) const {
  double sum = 0;
  // An impossible label key keys every sample by its whole label block, so
  // distinct label sets never collapse onto one map entry.
  for (const auto& [key, value] : by_label(family, "\x01")) sum += value;
  return sum;
}

std::map<std::string, HistogramSeries> ScrapeDelta::histograms(std::string_view family,
                                                               std::string_view label_key) const {
  const auto before = ipa::loadgen::parse_histogram_family(before_, family, label_key);
  std::map<std::string, HistogramSeries> out;
  const auto after = ipa::loadgen::parse_histogram_family(after_, family, label_key);
  for (const auto& [key, series] : after) {
    const auto it = before.find(key);
    out.emplace(key, histogram_delta(series, it == before.end() ? nullptr : &it->second));
  }
  return out;
}

std::map<std::string, double> server_self_time(std::string_view status_json) {
  std::map<std::string, double> out;
  auto doc = ipa::loadgen::Json::parse(status_json);
  if (!doc.is_ok()) return out;
  const ipa::loadgen::Json* sessions = doc->find("sessions");
  if (sessions == nullptr) return out;
  for (const ipa::loadgen::Json& session : sessions->items()) {
    const ipa::loadgen::Json* spans = session.find("spans");
    if (spans == nullptr) continue;
    std::map<std::string, double> child_total;  // parent span id -> children's time
    for (const ipa::loadgen::Json& span : spans->items()) {
      if (const ipa::loadgen::Json* parent = span.find("parent")) {
        child_total[parent->string_or("")] += span.number_at("duration", 0);
      }
    }
    for (const ipa::loadgen::Json& span : spans->items()) {
      const ipa::loadgen::Json* name = span.find("name");
      const ipa::loadgen::Json* id = span.find("span");
      if (name == nullptr || id == nullptr) continue;
      const auto children = child_total.find(id->string_or(""));
      const double self = span.number_at("duration", 0) -
                          (children == child_total.end() ? 0 : children->second);
      out[name->string_or("?")] += std::max(0.0, self);
    }
  }
  return out;
}

namespace {

bool close_relative(double a, double b, double tolerance) {
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= tolerance * scale;
}

std::string object_bytes(const std::string& path, const ipa::aida::Object& object) {
  ipa::aida::Tree single;
  single.put(path, object);
  const ipa::ser::Bytes bytes = single.serialize();
  return std::string(bytes.begin(), bytes.end());
}

std::string compare_h1(const ipa::aida::Histogram1D& want, const ipa::aida::Histogram1D& got,
                       double tolerance) {
  if (want.axis().bins() != got.axis().bins() || want.axis().lower() != got.axis().lower() ||
      want.axis().upper() != got.axis().upper()) {
    return "axis differs";
  }
  if (want.entries() != got.entries()) {
    return "entries " + std::to_string(got.entries()) + " != " + std::to_string(want.entries());
  }
  // The pseudo-indices kUnderflow (-2) and kOverflow (-1) lead the range.
  for (int bin = ipa::aida::kUnderflow; bin < want.axis().bins(); ++bin) {
    if (want.bin_height(bin) != got.bin_height(bin) || want.bin_error(bin) != got.bin_error(bin)) {
      return "bin " + std::to_string(bin) + " differs";
    }
  }
  if (!close_relative(want.mean(), got.mean(), tolerance)) return "mean differs";
  if (!close_relative(want.rms(), got.rms(), tolerance)) return "rms differs";
  return "";
}

}  // namespace

std::string compare_trees(const ipa::aida::Tree& want, const ipa::aida::Tree& got,
                          double moment_tolerance) {
  const std::vector<std::string> paths = want.paths();
  if (paths != got.paths()) {
    return "object paths differ (" + std::to_string(got.size()) + " vs " +
           std::to_string(want.size()) + ")";
  }
  for (const std::string& path : paths) {
    const ipa::aida::Object* a = *want.find(path);
    const ipa::aida::Object* b = *got.find(path);
    if (a->index() != b->index()) return path + ": kind differs";
    std::string why;
    if (const auto* h = std::get_if<ipa::aida::Histogram1D>(a)) {
      why = compare_h1(*h, std::get<ipa::aida::Histogram1D>(*b), moment_tolerance);
    } else if (object_bytes(path, *a) != object_bytes(path, *b)) {
      why = "serialized object differs";
    }
    if (!why.empty()) return path + ": " + why;
  }
  return "";
}

}  // namespace cyclebench
