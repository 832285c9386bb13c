#include "perf/tracker.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace chase::perf {

namespace {
thread_local Tracker* tls_tracker = nullptr;
}

std::string_view region_name(Region r) {
  switch (r) {
    case Region::kLanczos:
      return "Lanczos";
    case Region::kFilter:
      return "Filter";
    case Region::kQr:
      return "QR";
    case Region::kRayleighRitz:
      return "RR";
    case Region::kResidual:
      return "Resid";
    case Region::kOther:
    default:
      return "Other";
  }
}

const char* coll_kind_name(CollKind k) {
  switch (k) {
    case CollKind::kAllReduce:
      return "allreduce";
    case CollKind::kBroadcast:
      return "broadcast";
    case CollKind::kAllGather:
    default:
      return "allgather";
  }
}

Tracker::Tracker() : last_cpu_(thread_cpu_seconds()) {}

Tracker::Tracker(const Tracker& other) {
  std::lock_guard<std::mutex> lock(other.counters_mu_);
  region_ = other.region_;
  costs_ = other.costs_;
  colls_ = other.colls_;
  copies_ = other.copies_;
  counters_ = other.counters_;
  last_cpu_ = other.last_cpu_;
  in_collective_ = other.in_collective_;
}

Tracker& Tracker::operator=(const Tracker& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(counters_mu_, other.counters_mu_);
  region_ = other.region_;
  costs_ = other.costs_;
  colls_ = other.colls_;
  copies_ = other.copies_;
  counters_ = other.counters_;
  last_cpu_ = other.last_cpu_;
  in_collective_ = other.in_collective_;
  return *this;
}

void Tracker::attribute_elapsed(double* bucket) {
  const double now = thread_cpu_seconds();
  *bucket += now - last_cpu_;
  last_cpu_ = now;
}

Region Tracker::set_region(Region r) {
  auto& c = costs_[std::size_t(int(region_))];
  attribute_elapsed(in_collective_ ? &c.comm_cpu_seconds : &c.compute_seconds);
  const Region prev = region_;
  region_ = r;
  return prev;
}

void Tracker::add_flops(FlopClass cls, double flops) {
  costs_[std::size_t(int(region_))].flops[std::size_t(int(cls))] += flops;
}

void Tracker::add_mem_bytes(double bytes) {
  costs_[std::size_t(int(region_))].mem_bytes += bytes;
}

void Tracker::begin_collective() {
  CHASE_ABORT_IF(in_collective_, "nested collective accounting");
  auto& c = costs_[std::size_t(int(region_))];
  attribute_elapsed(&c.compute_seconds);
  in_collective_ = true;
}

void Tracker::end_collective(CollKind kind, std::size_t bytes, int nranks) {
  CHASE_ABORT_IF(!in_collective_, "end_collective without begin");
  auto& c = costs_[std::size_t(int(region_))];
  attribute_elapsed(&c.comm_cpu_seconds);
  in_collective_ = false;
  c.coll_count += 1;
  c.coll_bytes += bytes;
  colls_.push_back(CollectiveEvent{region_, kind, bytes, nranks});
}

void Tracker::record_collective(CollKind kind, std::size_t bytes, int nranks) {
  auto& c = costs_[std::size_t(int(region_))];
  c.coll_count += 1;
  c.coll_bytes += bytes;
  colls_.push_back(CollectiveEvent{region_, kind, bytes, nranks});
}

void Tracker::bump(std::string_view name, double amount) {
  std::lock_guard<std::mutex> lock(counters_mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), amount);
  } else {
    it->second += amount;
  }
}

double Tracker::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::map<std::string, double, std::less<>> Tracker::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

void Tracker::record_memcpy(std::size_t bytes, bool to_device) {
  auto& c = costs_[std::size_t(int(region_))];
  c.memcpy_count += 1;
  c.memcpy_bytes += bytes;
  copies_.push_back(MemcpyEvent{region_, bytes, to_device});
}

void Tracker::flush() {
  auto& c = costs_[std::size_t(int(region_))];
  attribute_elapsed(in_collective_ ? &c.comm_cpu_seconds : &c.compute_seconds);
}

void Tracker::merge_max_times(const Tracker& other) {
  for (int r = 0; r < kRegionCount; ++r) {
    auto& mine = costs_[std::size_t(r)];
    const auto& theirs = other.costs_[std::size_t(r)];
    mine.compute_seconds = std::max(mine.compute_seconds, theirs.compute_seconds);
    mine.comm_cpu_seconds =
        std::max(mine.comm_cpu_seconds, theirs.comm_cpu_seconds);
    mine.coll_count = std::max(mine.coll_count, theirs.coll_count);
    mine.coll_bytes = std::max(mine.coll_bytes, theirs.coll_bytes);
    mine.memcpy_count = std::max(mine.memcpy_count, theirs.memcpy_count);
    mine.memcpy_bytes = std::max(mine.memcpy_bytes, theirs.memcpy_bytes);
    for (int c = 0; c < kFlopClassCount; ++c) {
      mine.flops[std::size_t(c)] =
          std::max(mine.flops[std::size_t(c)], theirs.flops[std::size_t(c)]);
    }
    mine.mem_bytes = std::max(mine.mem_bytes, theirs.mem_bytes);
  }
  if (this != &other) {
    std::scoped_lock lock(counters_mu_, other.counters_mu_);
    for (const auto& [name, value] : other.counters_) {
      auto it = counters_.find(name);
      if (it == counters_.end()) {
        counters_.emplace(name, value);
      } else {
        it->second = std::max(it->second, value);
      }
    }
  }
  if (colls_.empty()) colls_ = other.colls_;
  if (copies_.empty()) copies_ = other.copies_;
}

void set_thread_tracker(Tracker* t) {
  if (t != nullptr) t->last_cpu_ = thread_cpu_seconds();
  tls_tracker = t;
}

Tracker* thread_tracker() { return tls_tracker; }

void bump_counter(std::string_view name, double amount) {
  if (tls_tracker != nullptr) tls_tracker->bump(name, amount);
}

}  // namespace chase::perf
