// Distributed Hermitian matrix H on a 2D process grid, with the custom
// alternating HEMM scheme of Section 2.2/3.1.
//
// Rank (i, j) holds the local block H(rows owned by grid-row i, cols owned by
// grid-col j) under a pair of 1D index maps (block or block-cyclic). The two
// multivector layouts are:
//   C layout — rows split by the *row* map over the grid rows, i.e.
//     distributed within each column communicator (buffers C, C2);
//   B layout — rows split by the *col* map over the grid columns, i.e.
//     distributed within each row communicator (buffers B, B2).
//
// Because H is Hermitian, applying H in the C->B direction uses the local
// H_loc^H panels and reduces over the column communicator, while the B->C
// direction uses H_loc and reduces over the row communicator — the
// re-distribution between filter steps is thereby avoided entirely, which is
// why ChASE enforces even Chebyshev degrees (the filtered vectors always end
// in the C layout).
#pragma once

#include <vector>

#include "coll/abft.hpp"
#include "comm/communicator.hpp"
#include "dist/index_map.hpp"
#include "la/gemm.hpp"
#include "la/hemm.hpp"
#include "perf/tracker.hpp"

namespace chase::dist {

template <typename T>
class DistHermitianMatrix {
 public:
  using Scalar = T;

  DistHermitianMatrix(const comm::Grid2d& grid, IndexMap row_map,
                      IndexMap col_map)
      : grid_(&grid),
        row_map_(std::move(row_map)),
        col_map_(std::move(col_map)),
        local_(row_map_.local_size(grid.my_row()),
               col_map_.local_size(grid.my_col())) {
    CHASE_CHECK(row_map_.global_size() == col_map_.global_size());
    CHASE_CHECK(row_map_.parts() == grid.nprow());
    CHASE_CHECK(col_map_.parts() == grid.npcol());
    // A rank whose row share and column share cover the same global indices
    // (in the same local order) holds a diagonal block of H, which is itself
    // Hermitian — its local multiply can run through the symmetry-aware
    // la::hemm engine in both apply directions. On a 1x1 grid this is the
    // whole matrix; on square grids with matching maps it is every diagonal
    // rank of the grid.
    const auto rr = row_map_.runs(grid.my_row());
    const auto cr = col_map_.runs(grid.my_col());
    local_hermitian_ = rr.size() == cr.size();
    for (std::size_t i = 0; local_hermitian_ && i < rr.size(); ++i) {
      local_hermitian_ = rr[i].global_begin == cr[i].global_begin &&
                         rr[i].local_begin == cr[i].local_begin &&
                         rr[i].length == cr[i].length;
    }
  }

  Index global_size() const { return row_map_.global_size(); }
  Index local_rows() const { return local_.rows(); }
  Index local_cols() const { return local_.cols(); }
  const IndexMap& row_map() const { return row_map_; }
  const IndexMap& col_map() const { return col_map_; }
  const comm::Grid2d& grid() const { return *grid_; }

  la::MatrixView<T> local() { return local_.view(); }
  la::ConstMatrixView<T> local() const { return local_.view(); }

  /// Fill the local block from a global element functor f(i, j). The functor
  /// must describe a Hermitian matrix; this is not re-checked here.
  template <typename F>
  void fill(F&& f) {
    diag_base_.clear();  // re-capture the pristine diagonal on next shift
    shift_ = RealType<T>(0);
    const auto row_runs = row_map_.runs(grid_->my_row());
    const auto col_runs = col_map_.runs(grid_->my_col());
    for (const auto& cr : col_runs) {
      for (Index jc = 0; jc < cr.length; ++jc) {
        const Index gj = cr.global_begin + jc;
        const Index lj = cr.local_begin + jc;
        for (const auto& rr : row_runs) {
          for (Index ir = 0; ir < rr.length; ++ir) {
            local_(rr.local_begin + ir, lj) = f(rr.global_begin + ir, gj);
          }
        }
      }
    }
  }

  /// Extract the local block from a replicated global matrix.
  void fill_from_global(la::ConstMatrixView<T> global) {
    CHASE_CHECK(global.rows() == global_size() &&
                global.cols() == global_size());
    fill([&](Index i, Index j) { return global(i, j); });
  }

  /// H += s I on the locally held part of the global diagonal. The Chebyshev
  /// filter applies the center shift -c this way before filtering and undoes
  /// it afterwards (the cuBLAS build of ChASE shifts the device copy of H the
  /// same way).
  void shift_diagonal(RealType<T> s) {
    // The shift accumulates in a scalar and the diagonal is rewritten as
    // pristine + shift, so a paired shift(-c)/shift(+c) restores the exact
    // stored entries: naive `+= s` would leave ((d - c) + c) != d in the
    // last ulp, and that drift is what the checkpoint/restart bitwise-resume
    // guarantee (src/ckpt) cannot tolerate — a resumed solve refills H from
    // the source while an uninterrupted one would carry the drifted copy.
    if (diag_base_.empty()) {
      for_each_diag([&](T& d) { diag_base_.push_back(d); });
    }
    shift_ += s;
    std::size_t k = 0;
    if (shift_ == RealType<T>(0)) {
      for_each_diag([&](T& d) { d = diag_base_[k++]; });
    } else {
      for_each_diag([&](T& d) { d = diag_base_[k++] + T(shift_); });
    }
  }

  /// y_B = alpha * H^H x_C + beta * y_B over `ncols` columns.
  ///
  /// x is a C-layout block (local rows = row map part of my grid row), y is a
  /// B-layout block (local rows = col map part of my grid col); the partial
  /// products are summed with an allreduce over the *column* communicator.
  void apply_c2b(T alpha, la::ConstMatrixView<T> x, T beta,
                 la::MatrixView<T> y) {
    apply_impl(la::Op::kConjTrans, alpha, x, beta, y, grid_->col_comm());
  }

  /// y_C = alpha * H x_B + beta * y_C; reduction over the *row* communicator.
  void apply_b2c(T alpha, la::ConstMatrixView<T> x, T beta,
                 la::MatrixView<T> y) {
    apply_impl(la::Op::kNoTrans, alpha, x, beta, y, grid_->row_comm());
  }

 private:
  /// Visit the locally held entries of the global diagonal, in a fixed
  /// (row-run, offset) order shared by the capture and rewrite passes of
  /// shift_diagonal.
  template <typename Fn>
  void for_each_diag(Fn&& fn) {
    for (const auto& rr : row_map_.runs(grid_->my_row())) {
      for (Index k = 0; k < rr.length; ++k) {
        const Index g = rr.global_begin + k;
        if (col_map_.owner(g) != grid_->my_col()) continue;
        fn(local_(rr.local_begin + k, col_map_.local_index(g)));
      }
    }
  }

  void apply_impl(la::Op op, T alpha, la::ConstMatrixView<T> x, T beta,
                  la::MatrixView<T> y, const comm::Communicator& reduce_comm) {
    const Index ncols = x.cols();
    const Index out_rows = op == la::Op::kNoTrans ? local_.rows() : local_.cols();
    CHASE_CHECK_MSG(
        x.rows() == (op == la::Op::kNoTrans ? local_.cols() : local_.rows()),
        "apply: input rows do not match the local H panel");
    CHASE_CHECK_MSG(y.rows() == out_rows && y.cols() == ncols,
                    "apply: output shape mismatch");

    // The workspace must have ld == out_rows so the allreduce sees one
    // contiguous payload; keep one exact-height workspace per direction.
    la::Matrix<T>& ws = op == la::Op::kNoTrans ? ws_b2c_ : ws_c2b_;
    if (ws.rows() != out_rows || ws.cols() < ncols) {
      ws.resize(out_rows, std::max(ws.cols(), ncols));
    }
    auto partial = ws.block(0, 0, out_rows, ncols);
    const double flop_mul =
        (kIsComplex<T> ? 8.0 : 2.0) * double(local_.rows()) *
        double(local_.cols());
    // fp32 storage (the mixed-precision filter's shadow) is priced at the
    // machine model's single-precision rate.
    const perf::FlopClass flop_class = sizeof(RealType<T>) == 4
                                           ? perf::FlopClass::kGemmSingle
                                           : perf::FlopClass::kGemm;

    // Local multiply. Diagonal ranks dispatch to la::hemm — the local panel
    // is Hermitian, so H_loc^H == H_loc and both apply directions read only
    // one triangle; off-diagonal ranks run the plain gemm.
    if (local_hermitian_) {
      la::hemm(alpha, local_.view().as_const(), x, T(0), partial);
    } else {
      la::gemm(alpha, op, local_.view().as_const(), la::Op::kNoTrans, x, T(0),
               partial);
    }
    if (auto* t = perf::thread_tracker()) {
      t->add_flops(flop_class, flop_mul * double(ncols));
    }
    // One reduction per apply (the v1.4 scheme). ABFT checksums the payload
    // and replays a corrupted reduction locally.
    if (coll::abft_policy.get()) {
      coll::checked_block_reduce(reduce_comm, partial);
    } else {
      reduce_comm.all_reduce(partial.data(), out_rows * ncols);
    }
    for (Index j = 0; j < ncols; ++j) {
      T* yj = y.col(j);
      const T* pj = partial.col(j);
      if (beta == T(0)) {
        for (Index i = 0; i < out_rows; ++i) yj[i] = pj[i];
      } else {
        for (Index i = 0; i < out_rows; ++i) yj[i] = pj[i] + beta * yj[i];
      }
    }
  }

  const comm::Grid2d* grid_;
  IndexMap row_map_;
  IndexMap col_map_;
  bool local_hermitian_ = false;  // this rank holds a diagonal block of H
  la::Matrix<T> local_;
  std::vector<T> diag_base_;      // pristine owned diagonal (lazy capture)
  RealType<T> shift_ = RealType<T>(0);  // cumulative diagonal shift
  la::Matrix<T> ws_c2b_;  // partial-product workspaces, grown on demand
  la::Matrix<T> ws_b2c_;
};

}  // namespace chase::dist
