// The checkpoint engine: capture at iteration boundaries, restore before
// the first resumed iteration.
//
// Capture is collective (the basis is gathered over the column communicator
// into a replicated global V — the v1.2 collection primitive reused for a
// rare, off-hot-path operation); exactly one rank (world rank 0) encodes
// and stores the blob, so the CRC/serialization cost is not multiplied by
// the team size. Each rank constructs its own engine over a *shared* sink.
//
// Restore is the mirror image and deliberately skips the Lanczos bounds
// pass: the snapshot carries the original spectral bounds, and replaying
// them (rather than re-estimating) is what makes a resumed solve bitwise
// equal to the uninterrupted one.
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/policy.hpp"
#include "ckpt/sink.hpp"
#include "ckpt/snapshot.hpp"
#include "common/timer.hpp"
#include "core/dla.hpp"
#include "core/engine/pipeline.hpp"
#include "perf/tracker.hpp"

namespace chase::ckpt {

template <typename T>
class CheckpointEngine {
 public:
  using R = RealType<T>;

  /// `interval < 0` defers to the CHASE_CKPT_INTERVAL policy.
  explicit CheckpointEngine(SnapshotSink* sink, int interval = -1)
      : sink_(sink),
        interval_(interval >= 0 ? interval : interval_policy.get()) {}

  int interval() const { return interval_; }
  bool enabled() const { return sink_ != nullptr && interval_ > 0; }
  bool due(long iter) const { return enabled() && iter % interval_ == 0; }
  long captures() const { return captures_; }

  /// Sequence-driver stream counter carried into every snapshot (so a
  /// resumed ChaseSequence reseeds from the restored stream, not the global
  /// seed).
  void set_rng_stream(std::uint64_t stream) { rng_stream_ = stream; }

  /// Collective over the grid: gather the basis, encode on world rank 0,
  /// hand the blob to the sink.
  void capture(core::engine::SolveContext<T>& ctx, core::DlaBackend<T>& dla) {
    WallTimer timer;
    snap_.n = dla.global_size();
    snap_.ne = ctx.ne;
    snap_.iter = ctx.iter;
    snap_.locked = ctx.locked;
    snap_.nan_recoveries = ctx.nan_recoveries;
    snap_.matvecs = ctx.result.matvecs;
    snap_.seed = ctx.cfg.seed;
    snap_.rng_stream = rng_stream_;
    snap_.b_sup = double(ctx.result.bounds.b_sup);
    snap_.mu_1 = double(ctx.result.bounds.mu_1);
    snap_.mu_ne = double(ctx.result.bounds.mu_ne);
    snap_.ritz = ctx.ritz;
    snap_.resid = ctx.resid;
    snap_.degs = ctx.degs;
    snap_.v.resize(snap_.n, snap_.ne);
    dla.save_basis(ctx.ws, snap_.v.view());
    if (dla.grid().world().rank() == 0) {
      encode(snap_, blob_);
      sink_->store(blob_, ctx.iter);
      perf::bump_counter("ckpt.snapshot.bytes", double(blob_.size()));
    }
    ++captures_;
    perf::bump_counter("ckpt.capture.calls");
    perf::bump_counter("ckpt.capture.seconds", timer.seconds());
  }

 private:
  SnapshotSink* sink_;
  int interval_;
  long captures_ = 0;
  std::uint64_t rng_stream_ = 0;
  Snapshot<T> snap_;  // buffers reused across captures (no steady-state
  std::vector<unsigned char> blob_;  // allocation after the first one)
};

/// Pipeline stage placed after locking: captures when the cadence says so.
/// Runs only on iterations that continue (a converged iteration breaks the
/// stage loop at LockingStage — nothing left to protect).
template <typename T>
class CheckpointStage final : public core::engine::Stage<T> {
 public:
  explicit CheckpointStage(CheckpointEngine<T>* engine) : engine_(engine) {}

  std::string_view name() const override { return "checkpoint"; }

  core::engine::StageOutcome run(core::engine::SolveContext<T>& ctx,
                                 core::DlaBackend<T>& dla) override {
    if (engine_ != nullptr && engine_->due(ctx.iter)) {
      engine_->capture(ctx, dla);
    }
    return core::engine::StageOutcome::kContinue;
  }

 private:
  CheckpointEngine<T>* engine_;
};

/// Restore a decoded snapshot into a freshly set-up solve: bounds, Ritz
/// bookkeeping, locked count, recovery counter, and the distributed basis.
/// Collective-free (the snapshot is replicated), so every rank applies it
/// independently and consistently.
template <typename T>
void apply_resume(const Snapshot<T>& snap, core::engine::SolveContext<T>& ctx,
                  core::DlaBackend<T>& dla) {
  using R = RealType<T>;
  CHASE_CHECK_MSG(snap.n == dla.global_size() && snap.ne == ctx.cfg.subspace(),
                  "ckpt: snapshot shape does not match the problem");
  ctx.result.bounds = {R(snap.b_sup), R(snap.mu_1), R(snap.mu_ne)};
  ctx.init_from_bounds();
  ctx.ritz = snap.ritz;
  ctx.resid = snap.resid;
  ctx.degs = snap.degs;
  ctx.locked = snap.locked;
  ctx.nan_recoveries = snap.nan_recoveries;
  ctx.result.matvecs = snap.matvecs;
  dla.restore_basis(ctx.ws, snap.v.cview());
  perf::bump_counter("ckpt.resume.calls");
}

/// Checkpoint plumbing handed to the solve drivers; both fields optional.
template <typename T>
struct SolveCkpt {
  CheckpointEngine<T>* engine = nullptr;  // capture at iteration boundaries
  const Snapshot<T>* resume = nullptr;    // restore before the first iteration
};

/// Decode the newest snapshot in `sink` that passes validation (the
/// double-buffer fallback). Returns false if none survives.
template <typename T>
bool load_last_good(SnapshotSink& sink, Snapshot<T>& out) {
  for (const auto& blob : sink.load_all()) {
    if (decode(blob, out)) return true;
    perf::bump_counter("ckpt.load.rejected");
  }
  return false;
}

}  // namespace chase::ckpt
