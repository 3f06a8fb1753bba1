#include "e2ebench/trace.h"

#include <chrono>
#include <cstdio>

#include "e2ebench/bench_util.h"

namespace e2ebench {

namespace {

// Per-thread stack of open span indices (parents for new spans).
thread_local std::vector<int64_t> t_open;

uint64_t ThreadOrdinal() {
  static std::atomic<uint64_t> next{0};
  thread_local const uint64_t ordinal = next.fetch_add(1);
  return ordinal;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(std::string run_id) {
  run_id_ = std::move(run_id);
  enabled_.store(true, std::memory_order_relaxed);
}

int64_t Tracer::Open(const std::string& name) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = t_open.empty() ? -1 : t_open.back();
  rec.thread = ThreadOrdinal();
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(rec));
  }
  t_open.push_back(index);
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].start_ns = now;
  return index;
}

void Tracer::Close(int64_t index) {
  const int64_t now = NowNs();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ns = now;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    const int64_t self = (s.end_ns - s.start_ns) - child_ns[i];
    out[layer] += static_cast<double>(self > 0 ? self : 0) / 1e6;
  }
  return out;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"run_id\": \"%s\", \"spans\": [\n",
               JsonEscape(run_id_).c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %lld, \"thread\": %llu, "
                 "\"run_id\": \"%s\"}%s\n",
                 i, JsonEscape(s.name).c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - origin) / 1e3,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.thread),
                 JsonEscape(run_id_).c_str(),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name) {
  Tracer& t = Tracer::Get();
  if (t.enabled()) index_ = t.Open(name);
}

Span::~Span() {
  if (index_ >= 0) Tracer::Get().Close(index_);
}

}  // namespace e2ebench
