#include "e2ebench/bench_util.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/rule_parser.h"
#include "src/util/crc32c.h"

namespace e2ebench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = (p / 100.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

size_t SamplesBeyond(size_t n, double p) {
  const size_t at_or_below =
      static_cast<size_t>(std::ceil(static_cast<double>(n) * p / 100.0));
  return n > at_or_below ? n - at_or_below : 0;
}

double HighestSupportedPercentile(size_t n,
                                  const std::vector<double>& ladder,
                                  size_t min_beyond) {
  for (const double p : ladder) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return -1.0;
}

const std::vector<double>& TailLadder() {
  static const std::vector<double> kLadder = {99.9, 99.0, 95.0,
                                              90.0, 75.0, 50.0};
  return kLadder;
}

uint32_t BitmapDigest(const emdbg::Bitmap& bits) {
  const uint64_t size = bits.size();
  uint32_t crc = emdbg::Crc32c(&size, sizeof(size));
  const std::vector<uint64_t>& words = bits.words();
  return emdbg::Crc32cExtend(crc, words.data(),
                             words.size() * sizeof(uint64_t));
}

uint32_t PlanDigest(const emdbg::MatchingFunction& fn,
                    const emdbg::FeatureCatalog& catalog) {
  std::string text;
  for (const emdbg::Rule& rule : fn.rules()) {
    text += rule.name();
    text += ':';
    for (const emdbg::Predicate& p : rule.predicates()) {
      text += ' ';
      text += emdbg::PredicateToDsl(p, catalog);
    }
    text += '\n';
  }
  return emdbg::Crc32c(text);
}

std::string Hex32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool ValidMetricUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(metrics[i].name);
    out += "\": {\"value\": ";
    out += Number(metrics[i].value);
    out += ", \"unit\": \"";
    out += JsonEscape(metrics[i].unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return StatusFieldMb("VmHWM"); }

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

unsigned OnlineCpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

const char* CompilerId() {
#ifdef E2EBENCH_COMPILER
  return E2EBENCH_COMPILER;
#else
  return "unknown";
#endif
}

const char* BuildType() {
#ifdef E2EBENCH_BUILD_TYPE
  return E2EBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string StatsJson(const emdbg::MatchStats& s) {
  return "{\"feature_computations\": " +
         std::to_string(s.feature_computations) +
         ", \"memo_hits\": " + std::to_string(s.memo_hits) +
         ", \"predicate_evaluations\": " +
         std::to_string(s.predicate_evaluations) +
         ", \"rule_evaluations\": " + std::to_string(s.rule_evaluations) +
         "}";
}

bool SameCounts(const emdbg::MatchStats& x, const emdbg::MatchStats& y) {
  return x.feature_computations == y.feature_computations &&
         x.memo_hits == y.memo_hits &&
         x.predicate_evaluations == y.predicate_evaluations &&
         x.rule_evaluations == y.rule_evaluations;
}

}  // namespace e2ebench
