#include "sim/stats.hpp"

#include <deque>
#include <unordered_map>

namespace odcm::sim {

namespace {

/// Process-wide, append-only. Names live in a deque so the string_views
/// handed out (and used as index keys) stay valid as the table grows.
struct StatNames {
  std::deque<std::string> names;
  std::unordered_map<std::string_view, std::uint32_t> index;
};

StatNames& table() {
  static StatNames names;
  return names;
}

}  // namespace

StatId stat_id(std::string_view name) {
  StatNames& t = table();
  auto it = t.index.find(name);
  if (it != t.index.end()) return StatId{it->second};
  const auto id = static_cast<std::uint32_t>(t.names.size());
  const std::string& stored = t.names.emplace_back(name);
  t.index.emplace(stored, id);
  return StatId{id};
}

std::optional<StatId> find_stat_id(std::string_view name) {
  const StatNames& t = table();
  auto it = t.index.find(name);
  if (it == t.index.end()) return std::nullopt;
  return StatId{it->second};
}

std::string_view stat_name(StatId id) { return table().names.at(id.index); }

}  // namespace odcm::sim
