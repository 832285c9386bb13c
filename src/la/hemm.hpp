// Hermitian matrix-matrix multiply: C = alpha * A * B + beta * C with A
// Hermitian — the shape of the Chebyshev filter's hot loop (H times a block
// of vectors) and of every diagonal-rank panel in the distributed HEMM.
//
// Under the `micro` kernel policy this runs a symmetry-aware variant of the
// five-loop engine (gemm_micro.hpp): only the *upper* triangle of A's
// storage is read. The symmetric dimension is tiled into kc-deep k blocks;
// for k block q the stored upper blocks supply the direct products
// C_r += A_rq B_q (r < q0) straight, the diagonal block densified, and the
// mirrored products C_r += A_qr^H B_q (r > q0) conjugate-transposed while
// packing. Because every packed A panel derives from the one triangle, A is
// packed exactly once per call and the packed panels are replayed for every
// B column panel — gemm must re-pack op(A) per column panel, and that saved
// re-pack (plus needing only one triangle valid) is the Hermitian engine's
// advantage.
//
// Per output element the contributions arrive in ascending k order through
// the same macro-kernel as gemm, so results are bitwise independent of how
// B's columns are split. (Equality with gemm() on an exactly Hermitian
// operand holds to rounding, not bitwise: the compiler may contract the
// complex multiply-accumulates differently in the two inlined
// instantiations.)
//
// Under the `naive`/`blocked` policies hemm() simply forwards to gemm() so
// those oracles stay byte-for-byte the seed behaviour.
#pragma once

#include <algorithm>

#include "la/gemm.hpp"

namespace chase::la {

namespace detail {

/// Symmetric-dimension block size: the engine's k-panel depth for the type,
/// so each output row block sees exactly as many C-tile read-modify-write
/// sweeps as gemm() would use for the same k — any smaller block inflates C
/// traffic, any larger one pushes the packed pair blocks out of L2.
template <typename T>
inline constexpr Index kHemmBlock = MicroTile<T>::kc;

/// Pack the diagonal block [d0, d0+nd)^2 of Hermitian A into mr micro-panels,
/// reading only the upper triangle and mirroring conjugates below it.
template <typename T, Index MR>
inline void pack_a_herm_diag(ConstMatrixView<T> a, Index d0, Index nd,
                             T* buf) {
  for (Index p0 = 0; p0 < nd; p0 += MR) {
    const Index pr = std::min<Index>(MR, nd - p0);
    T* dst = buf + p0 * nd;
    for (Index l = 0; l < nd; ++l) {
      // Rows on/above the diagonal stream from column l; rows below it walk
      // row l of the upper triangle (stride ld) and conjugate.
      const Index up = std::clamp<Index>(l - p0 + 1, 0, pr);
      const T* src = a.col(d0 + l) + d0 + p0;
      for (Index i = 0; i < up; ++i) packed_a_store<T, MR>(dst, l, i, src[i]);
      const T* mirror = &a(d0 + l, d0 + p0 + up);
      const Index ld = a.ld();
      for (Index i = up; i < pr; ++i) {
        packed_a_store<T, MR>(dst, l, i, conjugate(mirror[(i - up) * ld]));
      }
      for (Index i = pr; i < MR; ++i) packed_a_store<T, MR>(dst, l, i, T(0));
    }
  }
}

template <typename T>
void hemm_micro(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
                MatrixView<T> c) {
  using Tile = MicroTile<T>;
  constexpr Index MR = Tile::mr;
  constexpr Index NR = Tile::nr;
  constexpr Index NB = kHemmBlock<T>;
  static_assert(NB % MR == 0, "hemm block must hold whole register tiles");
  const Index n = a.rows();
  const Index ncols = c.cols();
  const Index nblocks = (n + NB - 1) / NB;

  // With more than one B column panel, A's packed panels are cached across
  // panels: both packed layouts derive from the one stored triangle, so jc
  // panel 0 packs every panel once and later panels replay the identical
  // panel sequence straight out of the cache. gemm has to re-pack op(A) for
  // every column panel; skipping that re-pack is where the Hermitian
  // engine's measured advantage comes from (on top of needing only one
  // triangle of A to be valid). The replay only pays where the micro-kernel
  // does enough arithmetic per packed byte to hide the first jr sweep's
  // trip to the cache hierarchy — complex types run four times the flops of
  // real types per packed element, so they replay while real types (whose
  // macro-kernel would stall on the cold panel reads) re-pack through one
  // small L2-hot buffer exactly like gemm's. A single column panel never
  // replays either: streaming the cold cache pages costs more than it saves.
  const bool cache_packs = kIsComplexScalar<T> && ncols > Tile::nc;
  std::size_t cache_elems = std::size_t(NB) * NB;
  if (cache_packs) {
    // Per k block q: one micro-panel run (rows padded to mr) for every mc
    // row chunk of the direct region [0, q0), the diagonal block, and the
    // mirrored region [q0+nq, n). The chunk sequence is identical on every
    // jc panel, so the offsets assigned by next_panel line up exactly.
    cache_elems = 0;
    for (Index q = 0; q < nblocks; ++q) {
      const Index q0 = q * NB;
      const Index nq = std::min<Index>(NB, n - q0);
      for (Index r0 = 0; r0 < q0; r0 += Tile::mc) {
        const Index mc = std::min<Index>(Tile::mc, q0 - r0);
        cache_elems += std::size_t(round_up(mc, MR)) * nq;
      }
      cache_elems += std::size_t(round_up(nq, MR)) * nq;
      for (Index r0 = q0 + nq; r0 < n; r0 += Tile::mc) {
        const Index mc = std::min<Index>(Tile::mc, n - r0);
        cache_elems += std::size_t(round_up(mc, MR)) * nq;
      }
    }
  }

  auto& pool = pack_pool<T>();
  T* pcache = pool.buf_a(cache_elems);

  for (Index jc = 0; jc < ncols; jc += Tile::nc) {
    const Index nc = std::min<Index>(Tile::nc, ncols - jc);
    const Index nc_pad = round_up(nc, NR);
    T* pb = pool.buf_b(std::size_t(NB) * nc_pad);

    const bool pack_now = !cache_packs || jc == 0;
    std::size_t cache_off = 0;
    auto next_panel = [&](Index rows, Index kdim) {
      if (!cache_packs) return pcache;
      T* p = pcache + cache_off;
      cache_off += std::size_t(round_up(rows, MR)) * kdim;
      return p;
    };

    // Sweep k blocks: pack B block q once (it stays L2-hot for every macro
    // sweep that consumes it) and immediately apply every contribution with
    // k block q, all sourced from the upper triangle:
    //   rows r < q0        direct products  C_r += A_rq B_q   (stored block)
    //   rows in [q0,q0+nq) diagonal         C_q += A_qq B_q   (densified)
    //   rows r >= q0+nq    mirrored         C_r += A_qr^H B_q (conj-trans)
    // The row dimension runs in the engine's mc chunks, so the live packed
    // slice keeps gemm's L2 footprint. Per output row the contributions
    // arrive in ascending k order (mirrored side for q below the row's
    // block, then the diagonal, then direct sides), and the q == 0
    // contribution — diagonal for the first row block, mirrored otherwise —
    // folds the beta scaling into its tile store.
    for (Index q = 0; q < nblocks; ++q) {
      const Index q0 = q * NB;
      const Index nq = std::min<Index>(NB, n - q0);
      pack_b_micro<T, NR>(Op::kNoTrans, b, q0, jc, nq, nc, alpha, pb);
      for (Index r0 = 0; r0 < q0; r0 += Tile::mc) {
        const Index mc = std::min<Index>(Tile::mc, q0 - r0);
        T* pa = next_panel(mc, nq);
        if (pack_now) pack_a_micro<T, MR>(Op::kNoTrans, a, r0, q0, mc, nq, pa);
        macro_kernel<T>(mc, nc, nq, pa, pb, c.data() + r0 + jc * c.ld(),
                        c.ld(), T(1), /*first_panel=*/false);
      }
      {
        T* pa = next_panel(nq, nq);
        if (pack_now) pack_a_herm_diag<T, MR>(a, q0, nq, pa);
        for (Index ic = 0; ic < nq; ic += Tile::mc) {
          const Index mc = std::min<Index>(Tile::mc, nq - ic);
          macro_kernel<T>(mc, nc, nq, pa + ic * nq, pb,
                          c.data() + q0 + ic + jc * c.ld(), c.ld(), beta,
                          /*first_panel=*/q == 0);
        }
      }
      for (Index r0 = q0 + nq; r0 < n; r0 += Tile::mc) {
        const Index mc = std::min<Index>(Tile::mc, n - r0);
        T* pa = next_panel(mc, nq);
        if (pack_now) {
          pack_a_micro<T, MR>(Op::kConjTrans, a, r0, q0, mc, nq, pa);
        }
        macro_kernel<T>(mc, nc, nq, pa, pb, c.data() + r0 + jc * c.ld(),
                        c.ld(), beta, /*first_panel=*/q == 0);
      }
    }
  }
}

}  // namespace detail

/// C = alpha * A * B + beta * C with A Hermitian (full storage; under the
/// micro policy only the upper triangle is read — see the header comment).
template <typename T>
void hemm(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
          MatrixView<T> c) {
  const Index n = a.rows();
  CHASE_CHECK_MSG(a.cols() == n, "hemm: A must be square");
  CHASE_CHECK_MSG(b.rows() == n, "hemm: inner dimensions differ");
  CHASE_CHECK_MSG(c.rows() == n && c.cols() == b.cols(),
                  "hemm: output shape");
  if (n == 0 || c.cols() == 0) return;
  if (alpha == T(0)) {
    detail::scale_tile(beta, n, c.cols(), c.data(), c.ld());
    return;
  }
  if (gemm_kernel_for(scalar_tag<T>(), n, c.cols(), n) != GemmKernel::kMicro) {
    // Non-micro effective policies read the full storage through the plain
    // engine (shape-aware, so a tuned profile routes small products the same
    // way an explicit override would).
    gemm(alpha, Op::kNoTrans, a, Op::kNoTrans, b, beta, c);
    return;
  }
  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  detail::hemm_micro(alpha, a, b, beta, c);
  if (tracked) {
    detail::record_gemm_call("la.kernel.hemm.calls",
                             sizeof(RealType<T>) == 4,
                             detail::gemm_flop_count<T>(n, c.cols(), n),
                             timer.seconds());
  }
}

}  // namespace chase::la
