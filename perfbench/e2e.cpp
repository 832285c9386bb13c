// End-to-end time-to-solution benchmark with a per-layer breakdown.
//
// One process runs one workload (README.md in this directory lists them and
// why each was chosen):
//
//   perfbench_e2e --workload suite-1x1|suite-2x2|dft-seq-2x2 --seed N
//                 --seconds S --trace 0|1 [--small] [--out DIR]
//
// Untraced (--trace 0) it sets the workload up several times, runs one
// untimed warm-up pass, then timed passes for about S seconds, and prints
// the end-to-end metrics. Traced
// (--trace 1) it spends half the time on untraced passes and half on passes
// with per-rank perf::Trackers installed, records benchmark-side spans around
// every public call, probes the la/coll/comm entry points at the workload's
// shapes with tune::measure, and prints the per-layer metrics. Every solve
// is checked against a reference outside every timed region; the last line
// of stdout is the result object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/direct.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/chase.hpp"
#include "core/sequence.hpp"
#include "dist/multivector.hpp"
#include "gen/suite.hpp"
#include "la/norms.hpp"
#include "perf/cost_model.hpp"
#include "perf/stage_report.hpp"
#include "tune/measure.hpp"
#include "tune/profile.hpp"

extern char** environ;

namespace {

using namespace chase;
using T = std::complex<double>;
using la::Index;

constexpr double kTol = 1e-10;
// A returned pair passes when its residual and its eigenvalue error are
// within this multiple of tol (relative to the spectral scale the solver
// itself normalizes by).
constexpr double kCheckFactor = 10;
constexpr double kOrthoLimit = 1e-10;
constexpr int kSequenceSteps = 8;
constexpr double kFirstEpsilon = 0.05;
constexpr double kEpsilonDecay = 0.3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

// ---------------------------------------------------------------- inputs --

struct Problem {
  std::string name;
  core::ChaseConfig cfg;
  la::Matrix<T> h;            // replicated global Hamiltonian
  std::vector<double> exact;  // reference lowest nev eigenvalues
};

struct Workload {
  int p = 1;              // p x p grid
  bool sequence = false;  // problems are the steps of one ChaseSequence
  std::vector<Problem> problems;
};

core::ChaseConfig make_config(Index nev, Index nex, std::uint64_t seed) {
  core::ChaseConfig cfg;
  cfg.nev = nev;
  cfg.nex = nex;
  cfg.tol = kTol;
  cfg.seed = Rng::mix(cfg.seed, seed);
  return cfg;
}

la::Matrix<T> random_hermitian(Index n, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix<T> g(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) g(i, j) = rng.gaussian<T>();
  }
  la::Matrix<T> a(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) a(i, j) = (g(i, j) + conjugate(g(j, i))) / 2.0;
  }
  return a;
}

/// Input generation: everything the workload solves, from the seed alone.
/// The seed picks each matrix's eigenvectors (the generator seed) and the
/// solver's start subspace; the prescribed Table-1 spectra stay fixed, so
/// every seed poses the same spectral problem and the MatVec count moves
/// little between seeds. The sequence's reference eigenvalues need a dense
/// solve per step; that is oracle work, done later outside the set-up and
/// solve timings.
Workload make_workload(const Options& o) {
  const auto& suite =
      o.small ? gen::table1_suite_small() : gen::table1_suite_medium();
  Workload w;
  if (o.workload == "suite-1x1" || o.workload == "suite-2x2") {
    w.p = o.workload == "suite-1x1" ? 1 : 2;
    for (const auto& sp : suite) {
      Problem pr;
      pr.name = sp.name;
      pr.cfg = make_config(sp.nev, sp.nex, o.seed);
      const auto eigs = gen::suite_spectrum<double>(sp);
      pr.h = gen::hermitian_with_spectrum<T>(eigs, Rng::mix(sp.seed + 1, o.seed));
      pr.exact.assign(eigs.begin(), eigs.begin() + sp.nev);
      w.problems.push_back(std::move(pr));
    }
  } else if (o.workload == "dft-seq-2x2") {
    w.p = 2;
    w.sequence = true;
    const gen::SuiteProblem& sp = suite.front();  // NaCl-9k
    const auto h0 = gen::hermitian_with_spectrum<T>(
        gen::suite_spectrum<double>(sp), Rng::mix(sp.seed + 1, o.seed));
    const auto pert = random_hermitian(sp.n, Rng::mix(sp.seed + 2, o.seed));
    double eps = kFirstEpsilon;
    for (int k = 0; k < kSequenceSteps; ++k, eps *= kEpsilonDecay) {
      Problem pr;
      pr.name = sp.name + "/step" + std::to_string(k);
      pr.cfg = make_config(sp.nev, sp.nex, o.seed);
      pr.h = la::clone(h0.cview());
      for (Index j = 0; j < sp.n; ++j) {
        for (Index i = 0; i < sp.n; ++i) pr.h(i, j) += T(eps) * pert(i, j);
      }
      w.problems.push_back(std::move(pr));
    }
  }
  return w;
}

// ----------------------------------------------------------------- spans --

struct Span {
  std::string name;
  int tid;
  double t0, t1;  // seconds since the process clock origin
  long id, parent;
};

WallTimer& process_clock() {
  static WallTimer t;
  return t;
}

/// Spans of one thread; each rank appends only to its own log, so no lock.
class SpanLog {
 public:
  explicit SpanLog(int tid) : tid_(tid) {}
  long next_id() { return long(tid_ + 1) * 100000000L + ++counter_; }
  void add(std::string name, double t0, double t1, long id, long parent) {
    spans_.push_back(Span{std::move(name), tid_, t0, t1, id, parent});
  }
  /// A top-level span from `t0` to now.
  void add(std::string name, double t0) {
    add(std::move(name), t0, process_clock().seconds(), next_id(), 0);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  long counter_ = 0;
  std::vector<Span> spans_;
};

/// Iteration spans from the solver's observer hooks: an iteration runs from
/// the end of the previous one (the solve start for the first, so it also
/// covers the Lanczos bounds pass) to after_iteration, and is split at
/// after_filter into its filter and post-filter parts.
class SpanObserver final : public core::ChaseObserver<T> {
 public:
  SpanObserver(SpanLog& log, long solve_id)
      : log_(log), solve_id_(solve_id), iter_id_(log.next_id()),
        iter_start_(process_clock().seconds()), filter_end_(iter_start_) {}

  void after_filter(int, int, la::ConstMatrixView<T>, double) override {
    filter_end_ = process_clock().seconds();
    log_.add("filter", iter_start_, filter_end_, log_.next_id(), iter_id_);
  }

  void after_iteration(const core::IterationStats& s) override {
    const double now = process_clock().seconds();
    log_.add("post_filter", filter_end_, now, log_.next_id(), iter_id_);
    log_.add("iteration " + std::to_string(s.iteration), iter_start_, now,
             iter_id_, solve_id_);
    iter_id_ = log_.next_id();
    iter_start_ = filter_end_ = now;
  }

 private:
  SpanLog& log_;
  long solve_id_;
  long iter_id_;
  double iter_start_;
  double filter_end_;
};

void write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& log : logs) {
    for (const auto& s : log.spans()) {
      char line[512];
      std::snprintf(line, sizeof line,
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                    "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %ld, \"parent\": %ld}}",
                    first ? "" : ",\n", s.name.c_str(), s.tid, s.t0 * 1e6,
                    (s.t1 - s.t0) * 1e6, s.id, s.parent);
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
}

// ------------------------------------------------------------ statistics --

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Benchmark-side work on a rank (accuracy checks, the oracle, loop-control
/// broadcasts, probes): the rank's tracker is detached for the scope, so the
/// work records no collectives or kernel counters. Its CPU time still lands
/// in a region bucket once the tracker is back; it is steered into the
/// Lanczos bucket, which no metric reads, so that the Other bucket keeps
/// showing the tracker's CPU-baseline defect exactly as the solver leaves it.
class OffTheBooks {
 public:
  OffTheBooks() : saved_(perf::thread_tracker()) {
    perf::set_thread_tracker(nullptr);
  }
  ~OffTheBooks() { perf::set_thread_tracker(saved_); }
  OffTheBooks(const OffTheBooks&) = delete;
  OffTheBooks& operator=(const OffTheBooks&) = delete;

 private:
  perf::RegionScope region_{perf::Region::kLanczos};  // set before detaching
  perf::Tracker* saved_;
};

// ------------------------------------------------------- accuracy check --

/// Eigenvalues against the reference, residuals ||H v - lambda v|| and
/// orthogonality of the gathered eigenvectors.
bool eigenpairs_ok(const Problem& pr, const core::ChaseResult<T>& r,
                   const la::Matrix<T>& v) {
  if (!r.converged || r.eigenvalues.size() != pr.exact.size()) return false;
  const Index n = pr.h.rows();
  const Index nev = v.cols();
  const double scale = std::max(std::abs(r.bounds.b_sup), std::abs(r.bounds.mu_1));
  const double limit = kCheckFactor * kTol * scale;
  la::Matrix<T> hv(n, nev);
  la::gemm(T(1), pr.h.cview(), v.cview(), T(0), hv.view());
  for (Index j = 0; j < nev; ++j) {
    const double lambda = r.eigenvalues[std::size_t(j)];
    if (!(std::abs(lambda - pr.exact[std::size_t(j)]) <= limit)) return false;
    double acc = 0;
    for (Index i = 0; i < n; ++i) {
      const T d = hv(i, j) - T(lambda) * v(i, j);
      acc += std::norm(d);
    }
    if (!(std::sqrt(acc) <= limit)) return false;
  }
  return la::orthogonality_error(v.cview()) <= kOrthoLimit;
}

// -------------------------------------------------------------- the run --

/// Per-rank accumulators over the timed passes of one phase.
struct RankTotals {
  double solve_wall = 0;  // this rank's own wall time inside solve calls
  double solve_cpu = 0;   // this rank's thread CPU time inside solve calls
  double fill = 0;        // wall time inside fill_from_global
};

/// Solver-side layer figures one rank derives from its tracker over the
/// timed traced passes (per pass).
struct RankLayer {
  double filter = 0, qr = 0, rr = 0, resid = 0;  // engine stage wall seconds
  double outside = 0;      // solve wall minus the sum of all stage seconds
  double wait = 0;         // solve wall minus CPU
  double filter_wait = 0;  // filter stage wall minus filter-region CPU
  double fill = 0;
  // Whole traced run (warm-up included), for the model comparison.
  double filter_all = 0, solve_all = 0;
  double model_filter = 0, model_total = 0;
  double hemm_gflops = 0, gemm_gflops = 0, peak_gflops = 0;
  double bulk_us = 0, small_us = 0;
  int negative_buckets = 0;
};

/// Everything one phase (an untraced or a traced team run) produces.
struct PhaseResult {
  std::vector<double> setup_s;     // one per set-up repetition
  std::vector<double> pass_solve;  // rank 0, barrier to barrier, summed
  std::vector<long> pass_matvecs;
  std::vector<long> pass_iterations;
  std::vector<long> step_matvecs;  // per problem, last timed pass
  long attempted = 0;
  long failed = 0;
  int timed_passes = 0;
  std::vector<RankLayer> layers;   // traced phase only
  std::vector<perf::Tracker> trackers;
  std::vector<perf::Tracker> snapshots;  // after the warm-up pass
  std::vector<SpanLog> spans;
};

/// Time to solve one pass: the interquartile mean of the timed passes (the
/// mean of the middle half; of all passes when there are fewer than four).
/// On a shared host a run of few long passes is steadier averaged, and a
/// run of many short ones loses the passes a burst of contention slowed.
double solve_seconds(const PhaseResult& r) {
  std::vector<double> v = r.pass_solve;
  std::sort(v.begin(), v.end());
  const std::size_t q = v.size() / 4;
  double sum = 0;
  for (std::size_t i = q; i < v.size() - q; ++i) sum += v[i];
  return sum / double(v.size() - 2 * q);
}

double stage_seconds(const perf::Tracker& t) {
  double s = 0;
  for (const auto& st : perf::engine_stage_timings(t)) s += st.seconds;
  return s;
}

double region_cpu(const perf::Tracker& t, perf::Region r) {
  return t.costs(r).compute_seconds + t.costs(r).comm_cpu_seconds;
}

int count_negative_buckets(const perf::Tracker& t) {
  int n = 0;
  for (int r = 0; r < perf::kRegionCount; ++r) {
    const auto& c = t.costs(perf::Region(r));
    n += c.compute_seconds < 0 ? 1 : 0;
    n += c.comm_cpu_seconds < 0 ? 1 : 0;
  }
  return n;
}

/// The problem whose filter does the most work (largest n^2 * subspace); its
/// local shapes are where the kernel and collective probes run.
const Problem& probe_problem(const Workload& w) {
  const Problem* best = &w.problems.front();
  auto work = [](const Problem& p) {
    return double(p.h.rows()) * double(p.h.rows()) * double(p.cfg.subspace());
  };
  for (const auto& p : w.problems) {
    if (work(p) > work(*best)) best = &p;
  }
  return *best;
}

double gemm_gflops_probe(Index m, Index n, Index k, bool hermitian) {
  la::Matrix<T> a(m, k), b(k, n), c(m, n);
  Rng rng(7);
  for (Index j = 0; j < k; ++j)
    for (Index i = 0; i < m; ++i) a(i, j) = rng.gaussian<T>();
  for (Index j = 0; j < n; ++j)
    for (Index i = 0; i < k; ++i) b(i, j) = rng.gaussian<T>();
  const double flops = la::detail::gemm_flop_count<T>(m, n, k);
  // About 0.2 s per probe at 10 Gflop/s, at least three timed runs.
  const int iters = std::clamp(int(2e9 / flops), 3, 50);
  auto fn = [&] {
    if (hermitian) {
      la::hemm(T(1), a.cview(), b.cview(), T(0), c.view());
    } else {
      la::gemm(T(1), la::Op::kNoTrans, a.cview(), la::Op::kNoTrans, b.cview(),
               T(0), c.view());
    }
  };
  return tune::measured_rate(flops, 1, iters, fn) / 1e9;
}

/// Conjugate-transposed RR product C^H W (ne x ne over the local rows).
double rr_gemm_gflops_probe(Index rows, Index ne) {
  la::Matrix<T> c(rows, ne), w(rows, ne), g(ne, ne);
  Rng rng(8);
  for (Index j = 0; j < ne; ++j) {
    for (Index i = 0; i < rows; ++i) {
      c(i, j) = rng.gaussian<T>();
      w(i, j) = rng.gaussian<T>();
    }
  }
  const double flops = la::detail::gemm_flop_count<T>(ne, ne, rows);
  auto fn = [&] {
    la::gemm(T(1), la::Op::kConjTrans, c.cview(), la::Op::kNoTrans, w.cview(),
             T(0), g.view());
  };
  return tune::measured_rate(flops, 2, 50, fn) / 1e9;
}

double allreduce_us(const comm::Communicator& comm, Index count) {
  std::vector<T> buf(std::size_t(std::max<Index>(count, 1)), T(1));
  const auto m = tune::measure(3, 30, [&] { comm.all_reduce(buf.data(), count); });
  return m.best * 1e6;
}

class WorkloadRun {
 public:
  WorkloadRun(const Options& o, bool traced) : o_(o), traced_(traced) {}

  /// Sets the workload up `setup_reps` times (generation, team start,
  /// distribution); the last set-up continues into the passes.
  PhaseResult run(int setup_reps, double seconds) {
    PhaseResult res;
    for (int rep = 0; rep < setup_reps; ++rep) {
      const bool last = rep == setup_reps - 1;
      WallTimer setup_timer;
      const double gen_t0 = process_clock().seconds();
      Workload w = make_workload(o_);
      const double gen_t1 = process_clock().seconds();
      const int nranks = w.p * w.p;
      if (last && traced_) {
        res.trackers.resize(std::size_t(nranks));
        res.snapshots.resize(std::size_t(nranks));
        res.layers.resize(std::size_t(nranks));
        for (int r = 0; r <= nranks; ++r) res.spans.emplace_back(r);
        // The main thread's log is the last one.
        res.spans.back().add("generate_inputs", gen_t0, gen_t1,
                             res.spans.back().next_id(), 0);
      }
      comm::Team team(nranks);
      team.run(
          [&](comm::Communicator& world) {
            body(world, w, setup_timer, last, seconds, res);
          },
          last && traced_ ? &res.trackers : nullptr);
    }
    return res;
  }

 private:
  void body(comm::Communicator& world, Workload& w, const WallTimer& setup_timer,
            bool solve, double seconds, PhaseResult& res) {
    const int rank = world.rank();
    SpanLog* spans = res.spans.empty() ? nullptr : &res.spans[std::size_t(rank)];
    comm::Grid2d grid(world, w.p, w.p);
    RankTotals timed;
    double all_solve_wall = 0;  // every pass, warm-up included

    // Distribution: one distributed matrix per suite problem, one fixed
    // layout for the whole sequence (refilled every step).
    std::vector<std::unique_ptr<dist::DistHermitianMatrix<T>>> mats;
    const std::size_t nmats = w.sequence ? 1 : w.problems.size();
    double setup_fill = 0;
    for (std::size_t i = 0; i < nmats; ++i) {
      const Index n = w.problems[i].h.rows();
      auto map = dist::IndexMap::block(n, w.p);
      mats.push_back(std::make_unique<dist::DistHermitianMatrix<T>>(grid, map, map));
      const double t0 = process_clock().seconds();
      mats.back()->fill_from_global(w.problems[i].h.cview());
      setup_fill += process_clock().seconds() - t0;
      if (spans != nullptr) spans->add("fill_from_global", t0);
    }
    world.barrier();
    if (rank == 0) res.setup_s.push_back(setup_timer.seconds());
    if (!solve) return;

    if (w.sequence) {
      // Oracle: a dense solve of every step, spread over the ranks.
      OffTheBooks off;
      for (std::size_t k = std::size_t(rank); k < w.problems.size();
           k += std::size_t(world.size())) {
        auto& pr = w.problems[k];
        auto direct = baseline::solve_lowest<T>(pr.h.cview(), pr.cfg.nev, 1);
        pr.exact.assign(direct.eigenvalues.begin(),
                        direct.eigenvalues.begin() + pr.cfg.nev);
      }
      world.barrier();
    }

    auto pass = [&](bool timed_pass) {
      double solve_s = 0;
      long matvecs = 0, iterations = 0;
      std::vector<long> step_mv;
      std::optional<core::ChaseSequence<T>> seq;
      if (w.sequence) seq.emplace(w.problems.front().cfg);
      for (std::size_t i = 0; i < w.problems.size(); ++i) {
        const Problem& pr = w.problems[i];
        auto& h = *mats[w.sequence ? 0 : i];
        if (w.sequence) {
          WallTimer ft;
          const double t0 = process_clock().seconds();
          h.fill_from_global(pr.h.cview());
          if (timed_pass) timed.fill += ft.seconds();
          if (spans != nullptr) spans->add("fill_from_global", t0);
        }
        world.barrier();
        WallTimer wall;
        CpuTimer cpu;
        const double t0 = process_clock().seconds();
        const long solve_id = spans != nullptr ? spans->next_id() : 0;
        std::optional<SpanObserver> obs;
        if (spans != nullptr) obs.emplace(*spans, solve_id);
        core::ChaseObserver<T>* obs_ptr = obs ? &*obs : nullptr;
        core::ChaseResult<T> r = w.sequence ? seq->solve_next(h, obs_ptr)
                                            : core::solve(h, pr.cfg, obs_ptr);
        // CPU interval read first, so it nests inside the wall interval.
        const double rank_cpu = cpu.seconds();
        const double rank_wall = wall.seconds();
        if (spans != nullptr) {
          spans->add(std::string(w.sequence ? "solve_next " : "solve ") + pr.name,
                     t0, process_clock().seconds(), solve_id, 0);
        }
        world.barrier();
        solve_s += wall.seconds();
        all_solve_wall += rank_wall;
        if (timed_pass) {
          timed.solve_wall += rank_wall;
          timed.solve_cpu += rank_cpu;
        }
        matvecs += r.matvecs;
        iterations += r.iterations;
        step_mv.push_back(r.matvecs);

        // Accuracy check, outside the timed region and the accounting.
        OffTheBooks off;
        la::Matrix<T> v(pr.h.rows(), pr.cfg.nev);
        dist::gather_rows(grid.col_comm(), h.row_map(),
                          r.eigenvectors.view().as_const(), v.view());
        if (rank == 0) {
          ++res.attempted;
          if (!eigenpairs_ok(pr, r, v)) ++res.failed;
        }
      }
      if (rank == 0 && timed_pass) {
        res.pass_solve.push_back(solve_s);
        res.pass_matvecs.push_back(matvecs);
        res.pass_iterations.push_back(iterations);
        res.step_matvecs = step_mv;
      }
    };

    pass(false);  // warm-up: lazy plans, arenas and page faults
    perf::Tracker* tracker = perf::thread_tracker();
    if (tracker != nullptr) {
      tracker->flush();
      res.snapshots[std::size_t(rank)] = *tracker;
    }
    // Timed passes while the next one is expected to end within `seconds`
    // (at least one), so a run measures for about `seconds`, not more.
    WallTimer clock;
    int passes = 0;
    int more = 1;
    while (more != 0) {
      const double start = clock.seconds();
      pass(true);
      ++passes;
      OffTheBooks off;
      if (rank == 0) {
        const double now = clock.seconds();
        more = now + (now - start) <= seconds ? 1 : 0;
      }
      world.broadcast(&more, 1, 0);
    }
    if (rank == 0) res.timed_passes = passes;
    if (tracker == nullptr) return;

    tracker->flush();
    layer_figures(*tracker, res.snapshots[std::size_t(rank)], timed,
                  all_solve_wall, passes, setup_fill, w.sequence,
                  res.layers[std::size_t(rank)]);
    OffTheBooks off;
    probes(grid, w, *tracker, res.snapshots[std::size_t(rank)],
           res.layers[std::size_t(rank)]);
  }

  void layer_figures(const perf::Tracker& t, const perf::Tracker& base,
                     const RankTotals& timed, double all_solve_wall, int passes,
                     double setup_fill, bool sequence, RankLayer& L) {
    auto d = [&](std::string_view name) {
      return (t.counter(name) - base.counter(name)) / passes;
    };
    L.filter = d("engine.stage.filter.seconds");
    L.qr = d("engine.stage.qr.seconds");
    L.rr = d("engine.stage.rayleigh_ritz.seconds");
    L.resid = d("engine.stage.residual.seconds");
    L.outside = (timed.solve_wall - (stage_seconds(t) - stage_seconds(base))) / passes;
    L.wait = (timed.solve_wall - timed.solve_cpu) / passes;
    L.filter_wait = L.filter - (region_cpu(t, perf::Region::kFilter) -
                                region_cpu(base, perf::Region::kFilter)) / passes;
    L.fill = sequence ? timed.fill / passes : setup_fill;
    L.filter_all = t.counter("engine.stage.filter.seconds");
    L.solve_all = all_solve_wall;
    L.negative_buckets = count_negative_buckets(t);
  }

  void probes(const comm::Grid2d& grid, const Workload& w, const perf::Tracker& t,
              const perf::Tracker& base, RankLayer& L) {
    const Problem& pr = probe_problem(w);
    const Index rows = dist::IndexMap::block(pr.h.rows(), w.p).local_size(grid.my_row());
    const Index ne = pr.cfg.subspace();
    L.hemm_gflops = gemm_gflops_probe(rows, ne, rows, /*hermitian=*/true);
    L.gemm_gflops = rr_gemm_gflops_probe(rows, ne);
    L.peak_gflops = gemm_gflops_probe(512, 512, 512, /*hermitian=*/false);

    // The filter's mean per-rank allreduce payload, as it ran.
    const auto& f = t.costs(perf::Region::kFilter);
    const auto& fb = base.costs(perf::Region::kFilter);
    const std::size_t count = f.coll_count - fb.coll_count;
    const Index bulk = count > 0 ? Index((f.coll_bytes - fb.coll_bytes) / count / sizeof(T))
                                 : rows * ne;
    L.bulk_us = allreduce_us(grid.col_comm(), bulk);
    L.small_us = allreduce_us(grid.col_comm(), ne * (ne + 1) / 2);

    // The model replays this rank's whole traced run (warm-up included) on
    // a machine calibrated from the same run's kernel counters.
    perf::MachineModel m;
    m.calibrate_gemm(t);
    m.calibrate_factor(t);
    const auto priced = perf::price_tracker(m, perf::Backend::kHostMpi, t);
    L.model_filter = priced[std::size_t(int(perf::Region::kFilter))].total();
    L.model_total = perf::sum_costs(priced).total();
  }

  const Options& o_;
  bool traced_;
};

/// 4 KiB round trip and 1 MiB one-way rate over the chunk channels of a
/// scratch two-rank team (the transport under src/coll).
void chunk_probe(double& rtt_us, double& gbps) {
  comm::Team team(2);
  team.run([&](comm::Communicator& c) {
    std::uint64_t tag = 1;
    auto ping_pong = [&](std::size_t bytes, int warm, int iters) {
      std::vector<unsigned char> buf(bytes, 1);
      auto fn = [&] {
        const std::uint64_t t = tag++;
        if (c.rank() == 0) {
          c.send_chunk(1, t, buf.data(), bytes);
          c.recv_chunk(1, t, buf.data(), bytes);
        } else {
          c.recv_chunk(0, t, buf.data(), bytes);
          c.send_chunk(0, t, buf.data(), bytes);
        }
      };
      return tune::measure(warm, iters, fn).best;
    };
    const double small = ping_pong(4096, 20, 400);
    const double big = ping_pong(1 << 20, 3, 40);
    if (c.rank() == 0) {
      rtt_us = small * 1e6;
      gbps = 2.0 * double(1 << 20) / big / 1e9;
    }
  });
}

// --------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::vector<Metric> end_to_end(const PhaseResult& r) {
  std::vector<double> mv(r.pass_matvecs.begin(), r.pass_matvecs.end());
  return {{"solve_s", solve_seconds(r), "s"},
          {"matvecs", median(mv), "count"},
          {"setup_s", median(r.setup_s), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"}};
}

std::vector<Metric> per_layer(bool sequence, const PhaseResult& un,
                              const PhaseResult& tr, double rtt_us, double gbps) {
  const auto& t0 = tr.trackers.front();
  const auto& b0 = tr.snapshots.front();
  const double passes = tr.timed_passes;
  auto d0 = [&](std::string_view name) {
    return (t0.counter(name) - b0.counter(name)) / passes;
  };
  auto max_of = [&](double RankLayer::*f) {
    double v = -1e300;
    for (const auto& L : tr.layers) v = std::max(v, L.*f);
    return v;
  };
  auto min_of = [&](double RankLayer::*f) {
    double v = 1e300;
    for (const auto& L : tr.layers) v = std::min(v, L.*f);
    return v;
  };
  std::vector<Metric> ms;
  auto add = [&](std::string name, double v, std::string unit) {
    ms.push_back(Metric{std::move(name), v, std::move(unit)});
  };

  // core
  add("core.filter_s", max_of(&RankLayer::filter), "s");
  add("core.qr_s", max_of(&RankLayer::qr), "s");
  add("core.rr_s", max_of(&RankLayer::rr), "s");
  add("core.resid_s", max_of(&RankLayer::resid), "s");
  add("core.outside_stages_s", max_of(&RankLayer::outside), "s");
  add("core.iterations", double(tr.pass_iterations.back()), "count");
  double warm_ratio = 1;  // every suite solve starts cold
  if (sequence && tr.step_matvecs.size() > 1) {
    std::vector<double> later(tr.step_matvecs.begin() + 1, tr.step_matvecs.end());
    warm_ratio = double(tr.step_matvecs.front()) / median(later);
  }
  add("core.warm_mv_ratio", warm_ratio, "ratio");

  // la
  const double hemm = min_of(&RankLayer::hemm_gflops);
  const double peak = min_of(&RankLayer::peak_gflops);
  add("la.hemm.gflops", hemm, "Gflop/s");
  add("la.gemm.gflops", min_of(&RankLayer::gemm_gflops), "Gflop/s");
  add("la.peak.gflops", peak, "Gflop/s");
  add("la.hemm.frac_peak", hemm / peak, "ratio");
  const double gsec = d0("la.gemm.seconds");
  add("la.solve.gflops", gsec > 0 ? d0("la.gemm.flops") / gsec / 1e9 : 0, "Gflop/s");
  double fflops = 0, fsec = 0;
  for (const char* fam : {"la.potrf", "la.herk", "la.trsm"}) {
    fflops += d0(std::string(fam) + ".flops");
    fsec += d0(std::string(fam) + ".seconds");
  }
  add("la.factor.gflops", fsec > 0 ? fflops / fsec / 1e9 : 0, "Gflop/s");

  // qr
  for (const char* v : {"CholQR1", "CholQR2", "sCholQR2", "HHQR", "TSQR"}) {
    add(std::string("qr.variant.") + v, d0(std::string("qr.variant.") + v), "count");
  }
  add("qr.potrf_breakdown", d0("qr.potrf_breakdown"), "count");
  add("qr.hhqr_fallback", d0("qr.hhqr_fallback"), "count");

  // coll
  const std::pair<const char*, perf::Region> regions[] = {
      {"filter", perf::Region::kFilter},
      {"qr", perf::Region::kQr},
      {"rr", perf::Region::kRayleighRitz},
      {"resid", perf::Region::kResidual}};
  for (const auto& [name, reg] : regions) {
    add(std::string("coll.") + name + ".count",
        double(t0.costs(reg).coll_count - b0.costs(reg).coll_count) / passes, "count");
    add(std::string("coll.") + name + ".bytes",
        double(t0.costs(reg).coll_bytes - b0.costs(reg).coll_bytes) / passes, "B");
  }
  add("coll.plan.builds", d0("coll.plan.builds"), "count");
  add("coll.plan.replays", d0("coll.plan.replays"), "count");
  add("coll.allreduce_bulk.us", max_of(&RankLayer::bulk_us), "us");
  add("coll.allreduce_small.us", max_of(&RankLayer::small_us), "us");

  // comm
  const double wait_max = max_of(&RankLayer::wait);
  add("comm.wait_s.max", wait_max, "s");
  add("comm.wait_s.skew", wait_max - min_of(&RankLayer::wait), "s");
  add("comm.filter_wait_s", max_of(&RankLayer::filter_wait), "s");
  add("comm.chunk_rtt.us", rtt_us, "us");
  add("comm.chunk.gbps", gbps, "GB/s");

  // dist
  add("dist.fill_s", max_of(&RankLayer::fill), "s");

  // perf
  add("perf.trace_overhead", solve_seconds(tr) / solve_seconds(un), "ratio");
  int negative = 0;
  for (const auto& L : tr.layers) negative += L.negative_buckets;
  add("perf.negative_buckets", negative, "count");

  // model
  add("model.filter.ratio", max_of(&RankLayer::filter_all) / max_of(&RankLayer::model_filter),
      "ratio");
  add("model.total.ratio", max_of(&RankLayer::solve_all) / max_of(&RankLayer::model_total),
      "ratio");

  // tune
  for (const char* s : {"env", "profile", "default"}) {
    add(std::string("tune.source.") + s, d0(std::string("tune.source.") + s), "count");
  }
  return ms;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--small") {
      o.small = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                a == "--trace" || a == "--out" || a == "--commit" ||
                a == "--source-digest") &&
               (v = next()) != nullptr) {
      if (a == "--workload") o.workload = v;
      if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
      if (a == "--seconds") o.seconds = std::atof(v);
      if (a == "--trace") o.trace = std::atoi(v) != 0;
      if (a == "--out") o.out_dir = v;
      if (a == "--commit") o.commit = v;
      if (a == "--source-digest") o.source_digest = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", a.c_str());
      return false;
    }
  }
  if (o.workload != "suite-1x1" && o.workload != "suite-2x2" &&
      o.workload != "dft-seq-2x2") {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return false;
  }
  return o.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return 2;
  // Parent and change must run under the same built-in policy defaults:
  // any CHASE_* variable could switch a kernel, collective or precision.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CHASE_", 6) == 0) {
      std::fprintf(stderr, "refusing to run with policy variable set: %s\n", *e);
      return 3;
    }
  }
  process_clock();

  const auto fp = tune::local_fingerprint();
  std::printf("# workload=%s seed=%llu trace=%d host=%s cpu=\"%s\" threads=%d "
              "commit=%s source=%s\n",
              o.workload.c_str(), (unsigned long long)o.seed, int(o.trace),
              fp.host.c_str(), fp.cpu.c_str(), fp.threads, o.commit.c_str(),
              o.source_digest.c_str());

  constexpr int kSetupReps = 7;
  std::vector<Metric> metrics;
  long attempted = 0, failed = 0;
  try {
    if (!o.trace) {
      PhaseResult r = WorkloadRun(o, false).run(kSetupReps, o.seconds);
      std::printf("# pass totals (s):");
      for (double s : r.pass_solve) std::printf(" %.4f", s);
      std::printf("\n");
      attempted = r.attempted;
      failed = r.failed;
      metrics = end_to_end(r);
    } else {
      PhaseResult un = WorkloadRun(o, false).run(1, o.seconds / 2);
      PhaseResult tr = WorkloadRun(o, true).run(1, o.seconds / 2);
      double rtt_us = 0, gbps = 0;
      chunk_probe(rtt_us, gbps);
      attempted = un.attempted + tr.attempted;
      failed = un.failed + tr.failed;
      metrics = per_layer(o.workload == "dft-seq-2x2", un, tr, rtt_us, gbps);
      std::filesystem::create_directories(o.out_dir);
      const std::string spans = o.out_dir + "/spans-" + o.workload + "-seed" +
                                std::to_string(o.seed) + ".json";
      write_spans(spans, tr.spans);
      std::printf("# spans: %s\n", spans.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
  return 0;
}
