// Microbenchmark of the CHASE_FACTOR_KERNEL policy engine (src/la/factor/):
// naive (seed scalar) vs blocked (panel + GEMM lowering) rates for the four
// factorization families — TRSM, POTRF, HERK, HETRD — over the sizes where
// the solver actually runs them, plus the end-to-end effect on the two
// consumers: a CholeskyQR2 orthonormalization and the Rayleigh-Ritz HEEVD.
//
// Writes results/bench_factor.json (first argument overrides the path);
// scripts/compare_bench.py enforces the engine's requirements: blocked must
// reach >= 2x naive on TRSM/POTRF/HERK at n=1024 for double and
// complex<double>, and the end-to-end consumers must not regress under the
// blocked policy.
#include <algorithm>
#include <chrono>
#include <complex>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/rng.hpp"
#include "la/factor/policy.hpp"
#include "la/gemm.hpp"
#include "la/heevd.hpp"
#include "la/potrf.hpp"
#include "la/trsm.hpp"
#include "qr/cholqr.hpp"

namespace {

using namespace chase;
using la::Index;

template <typename T>
la::Matrix<T> random_mat(Index m, Index n, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix<T> a(m, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) a(i, j) = rng.gaussian<T>();
  }
  return a;
}

template <typename T>
la::Matrix<T> random_herm(Index n, std::uint64_t seed) {
  auto g = random_mat<T>(n, n, seed);
  la::Matrix<T> h(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      h(i, j) = (g(i, j) + conjugate(g(j, i))) / RealType<T>(2);
    }
  }
  return h;
}

/// Well-conditioned positive definite matrix (Gram + diagonal boost), built
/// with the micro GEMM so setup stays cheap at n=1024.
template <typename T>
la::Matrix<T> random_posdef(Index n, std::uint64_t seed) {
  auto x = random_mat<T>(n + 16, n, seed);
  la::Matrix<T> g(n, n);
  la::gemm(T(1), la::Op::kConjTrans, x.cview(), la::Op::kNoTrans, x.cview(),
           T(0), g.view());
  for (Index j = 0; j < n; ++j) g(j, j) += T(RealType<T>(n));
  return g;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` seconds of one thunk (host noise is one-sided).
template <typename F>
double best_seconds(int reps, F&& run) {
  double best = 1e99;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    run();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

struct FactorRow {
  const char* op;
  const char* kernel;
  const char* type;
  Index n;
  double seconds;
  double gflops;
};

struct EndToEndRow {
  const char* name;
  const char* type;
  Index m;
  Index n;
  double naive_seconds;
  double blocked_seconds;
  double ratio;  // blocked / naive
};

constexpr la::FactorKernel kPolicies[] = {la::FactorKernel::kNaive,
                                          la::FactorKernel::kBlocked};

int reps_for(la::FactorKernel kern, Index n) {
  // The naive paths run seconds-per-call at n=1024; one repetition is plenty
  // at that duration, while the blocked kernels take best-of-5.
  if (kern == la::FactorKernel::kNaive) return n >= 1024 ? 1 : 2;
  return 5;
}

template <typename T>
void sweep_factor(const char* type_name, const std::vector<Index>& ns,
                  const std::vector<Index>& hetrd_ns,
                  std::vector<FactorRow>& out) {
  const double z = kIsComplex<T> ? 4.0 : 1.0;
  auto record = [&](const char* op, la::FactorKernel kern, Index n,
                    double flops, double secs) {
    out.push_back({op, la::factor_kernel_name(kern).data(), type_name, n,
                   secs, flops / secs / 1e9});
    std::printf("  %-6s %-7s %-15s n=%-5lld %10.4fs %9.2f Gflop/s\n", op,
                la::factor_kernel_name(kern).data(), type_name, (long long)n,
                secs, flops / secs / 1e9);
  };

  for (Index n : ns) {
    // TRSM: solve X R^{-1} with an n x n rhs block (the CholeskyQR shape).
    {
      auto r = random_posdef<T>(n, 1);
      {
        ScopedPolicy scoped(la::factor_kernel_policy,
                            la::FactorKernel::kBlocked);
        la::potrf_upper(r.view());
      }
      auto x = random_mat<T>(n, n, 2);
      const double flops = z * double(n) * double(n) * double(n);
      for (la::FactorKernel kern : kPolicies) {
        ScopedPolicy scoped(la::factor_kernel_policy, kern);
        const double s = best_seconds(reps_for(kern, n), [&] {
          auto work = la::clone(x.cview());
          la::trsm_right_upper(r.view().as_const(), work.view());
        });
        record("trsm", kern, n, flops, s);
      }
    }
    // POTRF.
    {
      auto a = random_posdef<T>(n, 3);
      const double flops = z * double(n) * double(n) * double(n) / 3.0;
      for (la::FactorKernel kern : kPolicies) {
        ScopedPolicy scoped(la::factor_kernel_policy, kern);
        const double s = best_seconds(reps_for(kern, n), [&] {
          auto work = la::clone(a.cview());
          const int info = la::potrf_upper(work.view());
          if (info != 0) std::abort();
        });
        record("potrf", kern, n, flops, s);
      }
    }
    // HERK: upper-triangle Gram of an n x n block.
    {
      auto x = random_mat<T>(n, n, 4);
      la::Matrix<T> c(n, n);
      const double flops = z * double(n) * double(n) * double(n);
      for (la::FactorKernel kern : kPolicies) {
        ScopedPolicy scoped(la::factor_kernel_policy, kern);
        const double s = best_seconds(reps_for(kern, n), [&] {
          la::herk_upper(T(1), x.cview(), T(0), c.view());
        });
        record("herk", kern, n, flops, s);
      }
    }
  }

  for (Index n : hetrd_ns) {
    auto a = random_herm<T>(n, 5);
    std::vector<RealType<T>> d, e;
    la::Matrix<T> q(n, n);
    const double flops = z * 8.0 / 3.0 * double(n) * double(n) * double(n);
    for (la::FactorKernel kern : kPolicies) {
      ScopedPolicy scoped(la::factor_kernel_policy, kern);
      const double s = best_seconds(reps_for(kern, n), [&] {
        auto work = la::clone(a.cview());
        la::hetrd_lower(work.view(), d, e, q.view());
      });
      record("hetrd", kern, n, flops, s);
    }
  }
}

template <typename T>
void end_to_end(const char* type_name, Index m, Index n, Index rr_n,
                int reps, std::vector<EndToEndRow>& out) {
  auto print_row = [&](const EndToEndRow& r) {
    std::printf("  %-9s %-15s m=%-6lld n=%-5lld naive %8.4fs  blocked "
                "%8.4fs  ratio %.3f\n",
                r.name, r.type, (long long)r.m, (long long)r.n,
                r.naive_seconds, r.blocked_seconds, r.ratio);
  };
  // CholeskyQR2 on a tall block — HERK + POTRF + TRSM end to end.
  {
    auto x = random_mat<T>(m, n, 6);
    double secs[2] = {0, 0};
    for (int p = 0; p < 2; ++p) {
      ScopedPolicy scoped(la::factor_kernel_policy, kPolicies[p]);
      secs[p] = best_seconds(reps, [&] {
        auto work = la::clone(x.cview());
        const int info = qr::cholqr(work.view(), nullptr, 2);
        if (info != 0) std::abort();
      });
    }
    out.push_back({"cholqr2", type_name, m, n, secs[0], secs[1],
                   secs[1] / secs[0]});
    print_row(out.back());
  }
  // Rayleigh-Ritz HEEVD on the subspace quotient — HETRD dominates.
  {
    auto a = random_herm<T>(rr_n, 7);
    std::vector<RealType<T>> w;
    la::Matrix<T> zv(rr_n, rr_n);
    double secs[2] = {0, 0};
    for (int p = 0; p < 2; ++p) {
      ScopedPolicy scoped(la::factor_kernel_policy, kPolicies[p]);
      secs[p] = best_seconds(reps, [&] {
        auto work = la::clone(a.cview());
        la::heevd(work.view(), w, zv.view());
      });
    }
    out.push_back({"rr_heevd", type_name, rr_n, rr_n, secs[0], secs[1],
                   secs[1] / secs[0]});
    print_row(out.back());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode();
  const char* path = argc > 1 ? argv[1] : "results/bench_factor.json";

  const std::vector<Index> ns =
      quick ? std::vector<Index>{64, 128} : std::vector<Index>{256, 512, 1024};
  // Naive HETRD is BLAS-2 bound and runs minutes at n=1024; the solver only
  // ever tridiagonalizes subspace-sized matrices, so the sweep stops at 512.
  const std::vector<Index> hetrd_ns =
      quick ? std::vector<Index>{64} : std::vector<Index>{256, 512};

  std::printf("factorization policy sweep (writes %s)\n", path);
  std::vector<FactorRow> rows;
  sweep_factor<double>("double", ns, hetrd_ns, rows);
  sweep_factor<std::complex<double>>("complex<double>", ns, hetrd_ns, rows);

  std::printf("end-to-end consumers (naive vs blocked policy)\n");
  std::vector<EndToEndRow> e2e;
  if (quick) {
    end_to_end<double>("double", 512, 64, 96, 3, e2e);
    end_to_end<std::complex<double>>("complex<double>", 512, 64, 96, 3, e2e);
  } else {
    end_to_end<double>("double", 4096, 256, 512, 3, e2e);
    end_to_end<std::complex<double>>("complex<double>", 4096, 256, 512, 3,
                                     e2e);
  }

  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"factor\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"kernel\": \"%s\", \"type\": \"%s\", "
                 "\"n\": %lld, \"seconds\": %.6f, \"gflops\": %.3f}%s\n",
                 r.op, r.kernel, r.type, (long long)r.n, r.seconds, r.gflops,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"end_to_end\": [\n");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const auto& r = e2e[i];
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"type\": \"%s\", \"m\": %lld, "
                 "\"n\": %lld, \"naive_seconds\": %.6f, "
                 "\"blocked_seconds\": %.6f, \"ratio\": %.4f}%s\n",
                 r.name, r.type, (long long)r.m, (long long)r.n,
                 r.naive_seconds, r.blocked_seconds, r.ratio,
                 i + 1 < e2e.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}
