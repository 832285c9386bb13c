#include "tune/tuner.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "coll/engine.hpp"
#include "comm/communicator.hpp"
#include "common/env.hpp"
#include "tune/measure.hpp"

namespace chase::tune {

namespace {

using comm::Index;

// Appended in place: `std::string(prefix) + std::to_string(v)` trips a GCC 12
// -Wrestrict false positive.
std::string size_token(const char* prefix, long long v) {
  std::string token(prefix);
  token += std::to_string(v);
  return token;
}

// --- collective probes: coll.<kind>.b<bytes>.p<ranks>.<algo> = seconds ---

double time_collective(perf::CollKind kind, int p, std::size_t bytes,
                       const TuneOptions& opts) {
  const Index count = Index(std::max<std::size_t>(1, bytes / sizeof(double)));
  double per_op = 0;
  comm::Team team(p);
  team.run([&](comm::Communicator& comm) {
    // `bytes` follows the Tracker convention: total gathered payload for
    // allgather, per-rank payload otherwise.
    const Index send = kind == perf::CollKind::kAllGather
                           ? std::max<Index>(1, count / p)
                           : count;
    std::vector<double> x(std::size_t(send), double(comm.rank() + 1));
    std::vector<double> recv;
    if (kind == perf::CollKind::kAllGather) {
      recv.resize(std::size_t(send) * std::size_t(p));
    }
    const auto once = [&] {
      switch (kind) {
        case perf::CollKind::kAllReduce:
          comm.all_reduce(x.data(), send);
          break;
        case perf::CollKind::kBroadcast:
          comm.broadcast(x.data(), send, 0);
          break;
        case perf::CollKind::kAllGather:
        case perf::CollKind::kCount_:
          comm.all_gather(x.data(), send, recv.data());
          break;
      }
      comm.barrier();
    };
    const Measurement m = measure(opts.warmup, opts.repeats, once);
    if (comm.rank() == 0) per_op = m.best;
  });
  return per_op;
}

void probe_collectives(const TuneOptions& opts,
                       std::vector<RawMeasurement>& out) {
  constexpr perf::CollKind kKinds[] = {perf::CollKind::kAllReduce,
                                       perf::CollKind::kBroadcast,
                                       perf::CollKind::kAllGather};
  // Policies probed in enum order (the tie-break order of the replay).
  constexpr coll::Algorithm kAlgos[] = {coll::Algorithm::kNaive,
                                        coll::Algorithm::kRing,
                                        coll::Algorithm::kTree};
  const int p = std::max(2, opts.coll_ranks);
  // Pin the chunk size during the algorithm race so the two sweeps stay
  // independent (the chunk sweep below varies it with the ring pinned).
  for (const perf::CollKind kind : kKinds) {
    for (const std::size_t bytes : opts.coll_bytes) {
      for (const coll::Algorithm algo : kAlgos) {
        ScopedPolicy scoped(coll::algorithm_policy, algo);
        ScopedPolicy chunk(coll::chunk_bytes_policy, std::size_t(64) << 10);
        const double sec = time_collective(kind, p, bytes, opts);
        out.push_back({std::string("coll.") + perf::coll_kind_name(kind) +
                           "." + size_token("b", (long long)(bytes)) + "." +
                           size_token("p", p) + "." +
                           std::string(coll::algorithm_name(algo)),
                       sec, "s"});
      }
    }
  }
  // Chunk-bytes sweep: the largest allreduce payload under the ring policy,
  // the path the chunk size actually pipelines.
  if (!opts.coll_bytes.empty() && !opts.chunk_candidates.empty()) {
    const std::size_t bytes =
        *std::max_element(opts.coll_bytes.begin(), opts.coll_bytes.end());
    for (const std::size_t chunk : opts.chunk_candidates) {
      ScopedPolicy scoped(coll::algorithm_policy, coll::Algorithm::kRing);
      ScopedPolicy chunk_scope(coll::chunk_bytes_policy, chunk);
      const double sec =
          time_collective(perf::CollKind::kAllReduce, p, bytes, opts);
      out.push_back({std::string("chunk.allreduce.") +
                         size_token("b", (long long)(bytes)) + "." +
                         size_token("c", (long long)(chunk)),
                     sec, "s"});
    }
  }
}

// --- measurement-name parsing for derive_selections ----------------------

std::vector<std::string> split_dots(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = s.find('.', start);
    if (dot == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, dot - start));
    start = dot + 1;
  }
}

// "b16384" -> 16384; -1 on anything else.
long long numeric_token(const std::string& tok, char prefix) {
  if (tok.size() < 2 || tok[0] != prefix) return -1;
  long long v = 0;
  for (std::size_t i = 1; i < tok.size(); ++i) {
    if (tok[i] < '0' || tok[i] > '9') return -1;
    v = v * 10 + (tok[i] - '0');
  }
  return v;
}

int kind_index(const std::string& name) {
  for (int i = 0; i < perf::kCollKindCount; ++i) {
    if (name == perf::coll_kind_name(perf::CollKind(i))) return i;
  }
  return -1;
}

}  // namespace

TuneOptions TuneOptions::with_defaults() const {
  TuneOptions o = *this;
  if (o.coll_bytes.empty()) {
    // One per message-size class (boundaries 64 KiB / 1 MiB).
    o.coll_bytes = o.quick
                       ? std::vector<std::size_t>{std::size_t(16) << 10,
                                                  std::size_t(256) << 10,
                                                  std::size_t(2) << 20}
                       : std::vector<std::size_t>{std::size_t(16) << 10,
                                                  std::size_t(256) << 10,
                                                  std::size_t(4) << 20};
  }
  if (o.chunk_candidates.empty()) {
    o.chunk_candidates = {std::size_t(16) << 10, std::size_t(64) << 10,
                          std::size_t(256) << 10};
  }
  return o;
}

TuneOptions options_from_env() {
  TuneOptions o;
  if (const auto v = env::positive_env("CHASE_TUNE_REPS")) {
    o.repeats = int(env::ranged_int("CHASE_TUNE_REPS", std::to_string(*v), 1,
                                    1000));
  }
  if (const auto v = env::text_env("CHASE_TUNE_WARMUP")) {
    o.warmup = int(env::ranged_int("CHASE_TUNE_WARMUP", *v, 0, 1000));
  }
  if (const auto v = env::positive_env("CHASE_TUNE_RANKS")) {
    o.coll_ranks = int(env::ranged_int("CHASE_TUNE_RANKS",
                                       std::to_string(*v), 2, 256));
  }
  if (const auto v = env::boolean_env("CHASE_TUNE_QUICK")) o.quick = *v;
  return o;
}

MachineProfile run_tuning(const TuneOptions& opts_in) {
  const TuneOptions opts = opts_in.with_defaults();
  MachineProfile p;
  p.fingerprint = local_fingerprint();
  probe_collectives(opts, p.measurements);
  p.tables = derive_selections(p.measurements);
  return p;
}

perf::TunedTables derive_selections(
    const std::vector<RawMeasurement>& measurements) {
  perf::TunedTables t;
  // Winner accumulators: first-measured strictly-better wins, so replaying
  // the same log reproduces the same tables.
  double coll_best[perf::kCollKindCount][perf::kMsgClassCount];
  for (auto& row : coll_best) {
    for (double& v : row) v = std::numeric_limits<double>::infinity();
  }
  double chunk_best = std::numeric_limits<double>::infinity();

  for (const RawMeasurement& m : measurements) {
    const auto parts = split_dots(m.name);
    if (parts.size() == 5 && parts[0] == "coll") {
      const int kind = kind_index(parts[1]);
      const long long bytes = numeric_token(parts[2], 'b');
      const auto algo = coll::parse_algorithm(parts[4]);
      if (kind < 0 || bytes < 0 || !algo) continue;
      const int cls = int(perf::msg_class(std::size_t(bytes)));
      if (m.value >= 0 && m.value < coll_best[kind][cls]) {
        coll_best[kind][cls] = m.value;
        t.coll_algo[kind][cls] = int(*algo);
      }
    } else if (parts.size() == 4 && parts[0] == "chunk") {
      const long long chunk = numeric_token(parts[3], 'c');
      if (chunk <= 0) continue;
      if (m.value >= 0 && m.value < chunk_best) {
        chunk_best = m.value;
        t.chunk_bytes = chunk;
      }
    }
  }
  return t;
}

}  // namespace chase::tune
