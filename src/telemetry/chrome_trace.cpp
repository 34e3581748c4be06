#include "telemetry/chrome_trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace odcm::telemetry {

namespace {

using core::PeerPhase;
using core::ProtocolEvent;

/// Virtual-time ns → Trace Event µs, nanosecond precision in the fraction.
void write_ts(std::ostream& out, sim::Time ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  out << buf;
}

class EventWriter {
 public:
  explicit EventWriter(std::ostream& out) : out_(out) {
    out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  }

  /// Begin one event object; the caller appends fields via raw() and then
  /// calls close().
  std::ostream& begin() {
    if (!first_) out_ << ",";
    out_ << "\n";
    first_ = false;
    return out_;
  }

  void finish() { out_ << "\n]}\n"; }

 private:
  std::ostream& out_;
  bool first_ = true;
};

}  // namespace

void export_chrome_trace(std::ostream& out,
                         const ConnectionTimeline& timeline,
                         std::uint32_t ranks,
                         const ChromeTraceOptions& options) {
  constexpr int kPePid = 1;
  constexpr int kConnPid = 2;

  // Stable track ids for every directional pair that ever left Idle.
  std::map<std::pair<fabric::RankId, fabric::RankId>, int> pair_tid;
  for (const auto& interval : timeline.intervals()) {
    pair_tid.emplace(std::make_pair(interval.self, interval.peer), 0);
  }
  for (const auto& hs : timeline.handshakes()) {
    pair_tid.emplace(std::make_pair(hs.self, hs.peer), 0);
  }
  {
    int next = 0;
    for (auto& [pair, tid] : pair_tid) tid = next++;
  }

  EventWriter writer(out);

  // Track naming metadata.
  writer.begin() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
                 << kPePid << ",\"args\":{\"name\":\"PEs\"}}";
  writer.begin() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
                 << kConnPid << ",\"args\":{\"name\":\"connections\"}}";
  for (std::uint32_t r = 0; r < ranks; ++r) {
    writer.begin() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                   << kPePid << ",\"tid\":" << r
                   << ",\"args\":{\"name\":\"PE " << r << "\"}}";
  }
  for (const auto& [pair, tid] : pair_tid) {
    writer.begin() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                   << kConnPid << ",\"tid\":" << tid
                   << ",\"args\":{\"name\":\"" << pair.first << "\\u2192"
                   << pair.second << "\"}}";
  }

  // Phase slices on the pair tracks.
  for (const auto& interval : timeline.intervals()) {
    int tid = pair_tid.at({interval.self, interval.peer});
    std::ostream& ev = writer.begin();
    ev << "{\"name\":\"" << core::to_string(interval.phase)
       << "\",\"cat\":\"conn\",\"ph\":\"X\",\"pid\":" << kConnPid
       << ",\"tid\":" << tid << ",\"ts\":";
    write_ts(ev, interval.start);
    ev << ",\"dur\":";
    write_ts(ev, interval.end - interval.start);
    ev << ",\"args\":{\"role\":\"" << core::to_string(interval.role)
       << "\",\"closed\":" << (interval.closed ? "true" : "false") << "}}";
  }

  // Handshake annotations as instant events on the pair tracks.
  if (options.annotations) {
    for (const auto& hs : timeline.handshakes()) {
      int tid = pair_tid.at({hs.self, hs.peer});
      for (const auto& note : hs.annotations) {
        std::ostream& ev = writer.begin();
        ev << "{\"name\":\"" << core::to_string(note.kind)
           << "\",\"cat\":\"conn\",\"ph\":\"i\",\"s\":\"t\",\"pid\":"
           << kConnPid << ",\"tid\":" << tid << ",\"ts\":";
        write_ts(ev, note.time);
        ev << ",\"args\":{";
        if (note.kind == ProtocolEvent::Kind::kRetransmit ||
            note.kind == ProtocolEvent::Kind::kConnectFailed) {
          ev << "\"attempt\":" << note.attempt;
        }
        ev << "}}";
      }
    }
  }

  // On-demand registration protocol steps as instant events on the owning
  // PE's track (chunk/rkey in args). Empty under eager registration.
  if (options.annotations) {
    for (const auto& mark : timeline.reg_marks()) {
      std::ostream& ev = writer.begin();
      ev << "{\"name\":\"" << core::to_string(mark.kind)
         << "\",\"cat\":\"reg\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << kPePid
         << ",\"tid\":" << mark.self << ",\"ts\":";
      write_ts(ev, mark.time);
      ev << ",\"args\":{\"peer\":" << mark.peer << ",\"chunk\":" << mark.chunk
         << ",\"rkey\":" << mark.rkey << "}}";
    }
  }

  // Large-message protocol steps (rendezvous, fragments, credit stalls) as
  // instant events on the initiating PE's track. Empty with tiering off.
  if (options.annotations) {
    for (const auto& mark : timeline.bulk_marks()) {
      std::ostream& ev = writer.begin();
      ev << "{\"name\":\"" << core::to_string(mark.kind)
         << "\",\"cat\":\"bulk\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << kPePid
         << ",\"tid\":" << mark.self << ",\"ts\":";
      write_ts(ev, mark.time);
      ev << ",\"args\":{\"peer\":" << mark.peer
         << ",\"attempt\":" << mark.attempt << ",\"detail\":" << mark.detail
         << "}}";
    }
  }

  // Live-connection counter per PE, derived from the Connected intervals.
  if (options.pe_counter_tracks) {
    // (pe, time) -> net delta; merging coincident edges keeps the counter
    // from zig-zagging within one instant.
    std::map<std::pair<fabric::RankId, sim::Time>, std::int64_t> deltas;
    for (const auto& interval : timeline.intervals()) {
      if (interval.phase != PeerPhase::kConnected) continue;
      deltas[{interval.self, interval.start}] += 1;
      deltas[{interval.self, interval.end}] -= 1;
    }
    fabric::RankId current_pe = 0;
    std::int64_t value = 0;
    bool have_pe = false;
    for (const auto& [key, delta] : deltas) {
      if (!have_pe || key.first != current_pe) {
        current_pe = key.first;
        value = 0;
        have_pe = true;
      }
      value += delta;
      std::ostream& ev = writer.begin();
      // Counter tracks are keyed by (pid, name), so the rank goes into the
      // name to give each PE its own track.
      ev << "{\"name\":\"established PE " << current_pe
         << "\",\"cat\":\"conn\",\"ph\":\"C\",\"pid\":" << kPePid
         << ",\"tid\":" << current_pe << ",\"ts\":";
      write_ts(ev, key.second);
      ev << ",\"args\":{\"connections\":" << value << "}}";
    }
  }

  writer.finish();
}

}  // namespace odcm::telemetry
