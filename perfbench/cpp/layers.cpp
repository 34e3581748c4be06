// Traced-run analysis: self time per layer and the Chrome trace export.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Op spans are the benchmark's calls into shmem/mpi; every other span is
/// a conduit-level child derived from the event stream.
bool is_child(const Span& span) {
  const std::string layer = span.layer;
  return layer != "shmem" && layer != "mpi";
}

using Intervals = std::vector<std::pair<Time, Time>>;

/// Sort and merge into disjoint, ascending intervals.
void merge(Intervals& iv) {
  std::sort(iv.begin(), iv.end());
  Intervals out;
  for (const auto& [s, e] : iv) {
    if (!out.empty() && s <= out.back().second) {
      out.back().second = std::max(out.back().second, e);
    } else {
      out.emplace_back(s, e);
    }
  }
  iv = std::move(out);
}

/// Length of [start, end) covered by the disjoint intervals `iv`.
Time covered(const Intervals& iv, Time start, Time end) {
  auto it = std::upper_bound(
      iv.begin(), iv.end(), start,
      [](Time t, const std::pair<Time, Time>& i) { return t < i.second; });
  Time total = 0;
  for (; it != iv.end() && it->first < end; ++it) {
    total += std::min(end, it->second) - std::max(start, it->first);
  }
  return total;
}

}  // namespace

void derive_traced_layers(JobResult& result) {
  std::vector<Intervals> children(result.pes);
  for (const Span& s : result.spans) {
    if (is_child(s) && s.end > s.start) {
      children[s.pe].emplace_back(s.start, s.end);
    }
  }
  for (auto& iv : children) merge(iv);

  std::map<std::string, std::pair<double, double>> per_layer;  // total, self
  double shmem_self = 0;
  std::uint64_t shmem_calls = 0;
  for (const Span& s : result.spans) {
    const Time duration = s.end - s.start;
    const Time self =
        is_child(s) ? duration
                    : duration - covered(children[s.pe], s.start, s.end);
    auto& [total, self_total] = per_layer[s.layer];
    total += static_cast<double>(duration);
    self_total += static_cast<double>(self);
    const std::string op = s.op;
    if (std::string(s.layer) == "shmem" && op != "start_pes" &&
        op != "finalize") {
      shmem_self += static_cast<double>(self);
      ++shmem_calls;
    }
  }
  auto& T = result.traced_layer;
  T["shmem.self_us"] =
      shmem_calls == 0
          ? 0
          : shmem_self / static_cast<double>(shmem_calls) / 1e3;
  for (const auto& [layer, times] : per_layer) {
    T["trace." + layer + ".total_ms"] = times.first / 1e6;
    T["trace." + layer + ".self_ms"] = times.second / 1e6;
  }
  T["trace.spans"] = static_cast<double>(result.spans.size());
}

void write_chrome_trace(const std::string& path, const JobResult& result) {
  std::vector<const Span*> order;
  order.reserve(result.spans.size());
  for (const Span& s : result.spans) order.push_back(&s);
  // Parents before the children they contain, so viewers nest them.
  std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
    if (a->pe != b->pe) return a->pe < b->pe;
    if (a->start != b->start) return a->start < b->start;
    return a->end > b->end;
  });
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  bool first = true;
  for (const Span* s : order) {
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"peer\":%u,"
                 "\"op_id\":%llu}}",
                 first ? "" : ",\n", s->op, s->layer, s->pe,
                 static_cast<double>(s->start) / 1e3,
                 static_cast<double>(s->end - s->start) / 1e3, s->peer,
                 static_cast<unsigned long long>(s->op_id));
    first = false;
  }
  std::fputs("\n]}\n", out);
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
