#include "perf/tuned.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

namespace chase::perf {

namespace {

// Class boundaries. The tuner measures one representative payload per class
// and the winner covers the whole class.
constexpr std::size_t kMsgSmallMax = std::size_t(64) << 10;   // 64 KiB
constexpr std::size_t kMsgMediumMax = std::size_t(1) << 20;   // 1 MiB

struct TableSlot {
  std::atomic<const TunedTables*> current{nullptr};
  std::mutex mu;  // serializes writers
  // Every distinct table ever installed, never freed: a reader may still
  // hold an old pointer (the dispatchers are called from rank threads).
  std::vector<std::unique_ptr<const TunedTables>> kept;
};

TableSlot& slot() {
  static TableSlot s;
  return s;
}

}  // namespace

const char* msg_class_name(MsgClass c) {
  switch (c) {
    case MsgClass::kSmallMsg:
      return "small";
    case MsgClass::kMediumMsg:
      return "medium";
    case MsgClass::kLargeMsg:
    default:
      return "large";
  }
}

MsgClass msg_class(std::size_t bytes) {
  if (bytes <= kMsgSmallMax) return MsgClass::kSmallMsg;
  if (bytes <= kMsgMediumMax) return MsgClass::kMediumMsg;
  return MsgClass::kLargeMsg;
}

const TunedTables* tuned_tables() {
  return slot().current.load(std::memory_order_acquire);
}

void set_tuned_tables(const TunedTables& t) {
  auto& s = slot();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = std::find_if(s.kept.begin(), s.kept.end(),
                         [&](const auto& k) { return *k == t; });
  if (it == s.kept.end()) {
    s.kept.push_back(std::make_unique<const TunedTables>(t));
    it = s.kept.end() - 1;
  }
  s.current.store(it->get(), std::memory_order_release);
}

void clear_tuned_tables() {
  auto& s = slot();
  std::lock_guard<std::mutex> lock(s.mu);
  s.current.store(nullptr, std::memory_order_release);
}

}  // namespace chase::perf
