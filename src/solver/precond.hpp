#pragma once
/// \file precond.hpp
/// Preconditioner interface and the two preconditioners of the paper:
/// one AMG V-cycle for the pressure-Poisson system, and the compact
/// two-stage symmetric Gauss-Seidel (SGS2) for momentum and scalar
/// transport ("two outer and two inner iterations often leads to rapid
/// convergence in less than five preconditioned GMRES iterations", §4.2).

#include <cstdint>
#include <memory>

#include "amg/cache.hpp"
#include "amg/hierarchy.hpp"
#include "amg/smoothers.hpp"
#include "linalg/parcsr.hpp"
#include "linalg/parvector.hpp"
#include "perf/purity.hpp"
#include "perf/tracer.hpp"

namespace exw::solver {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  /// z = M^-1 r, lane by lane (r and z carry the same lane count).
  virtual void apply(const linalg::ParVector& r, linalg::ParVector& z) = 0;
  /// Former name of apply, still called by perfbench/runner.
  void apply_multi(const linalg::ParVector& r, linalg::ParVector& z) {
    apply(r, z);
  }
};

/// No preconditioning (z = r).
class IdentityPrecond final : public Preconditioner {
 public:
  void apply(const linalg::ParVector& r, linalg::ParVector& z) override {
    z.copy_from(r);
  }
};

/// One AMG V-cycle from a zero initial guess. Owns its hierarchy when
/// built from a matrix, or borrows one managed elsewhere (the
/// amg::HierarchyCache kept across Picard solves by cfd::Simulation).
///
/// With a mixed-precision hierarchy (AmgConfig::precision == kF32) the
/// V-cycle is the precision boundary (amg::AmgHierarchy::vcycle_zero):
/// the FP64 residual demotes into level 0's FP32 right-hand side once
/// per application, the whole V-cycle runs on FP32 storage, and the
/// correction promotes back into the caller's FP64 vector. The outer
/// Krylov space never sees rounded storage. Work inside apply() lands
/// in a nested "precond" phase so benches can split preconditioner
/// traffic from the outer solve.
class AmgPrecond final : public Preconditioner {
 public:
  AmgPrecond(const linalg::ParCsr& a, const amg::AmgConfig& cfg)
      : owned_(std::make_unique<amg::AmgHierarchy>(a, cfg)),
        h_(owned_.get()) {}

  /// Borrow an externally owned hierarchy (must outlive the precond).
  explicit AmgPrecond(amg::AmgHierarchy& h) : h_(&h) {}

  void apply(const linalg::ParVector& r, linalg::ParVector& z) override {
    perf::PhaseScope ph(r.runtime().tracer(), "precond");
    h_->vcycle_zero(r, z);
  }

  const amg::AmgHierarchy& hierarchy() const { return *h_; }
  /// The FP32 boundary residual, level 0's right-hand side (null in the
  /// FP64 configuration).
  const linalg::ParVector* boundary_residual() const {
    return h_->config().precision == Precision::kF32 ? h_->level(0).b.get()
                                                     : nullptr;
  }

 private:
  std::unique_ptr<amg::AmgHierarchy> owned_;
  amg::AmgHierarchy* h_ = nullptr;
};

/// The pressure preconditioner kept across solves (cfd::Simulation keeps
/// one per mesh block): the hierarchy cache and one AmgPrecond borrowing
/// its hierarchy. update() makes a new AmgPrecond only when the cache
/// rebuilt — a rebuild replaces the hierarchy the old one borrows, and
/// with it the FP32 boundary vectors; a reuse keeps both.
class KeptAmgPrecond {
 public:
  /// HierarchyCache::update, then the rebind it calls for.
  amg::CacheAction update(const linalg::ParCsr& a, const amg::AmgConfig& cfg,
                          std::uint64_t generation, bool use_cache,
                          bool values_changed) {
    const amg::CacheAction action =
        cache_.update(a, cfg, generation, use_cache, values_changed);
    if (action == amg::CacheAction::kRebuild || !precond_) {
      precond_ = std::make_unique<AmgPrecond>(cache_.hierarchy());
    }
    return action;
  }

  amg::HierarchyCache& cache() { return cache_; }
  /// The preconditioner bound to the current hierarchy (null before the
  /// first update(), and after a rebuild that threw: the rebuild had
  /// already released the hierarchy the kept one borrows).
  AmgPrecond* get() const {
    return cache_.valid() ? precond_.get() : nullptr;
  }

 private:
  amg::HierarchyCache cache_;
  std::unique_ptr<AmgPrecond> precond_;
};

/// `outer` sweeps of a relaxation scheme from a zero initial guess
/// (SGS2 with outer=2 is the paper's momentum preconditioner).
///
/// Construction streams the matrix once to build the L/D/U scratch
/// state (charged as a setup kernel per rank); when a later solve
/// reuses the same sparsity with new values, refresh_values() rebinds
/// the split in place — one value-only streaming pass, roughly a third
/// of the setup traffic and no allocation — instead of rebuilding.
/// With `precision == kF32` the precond owns a demoted FP32 twin of the
/// matrix: the smoother is built on (and refreshed from) the twin, its
/// scratch streams price at 4 bytes/value, and its apply_zero
/// demotes/promotes at the boundary (amg::Smoother::apply_zero), as
/// AmgPrecond's V-cycle does. The caller's matrix stays FP64 — it is
/// still the operator of the outer Krylov solve.
class SmootherPrecond final : public Preconditioner {
 public:
  SmootherPrecond(const linalg::ParCsr& a, amg::SmootherType type,
                  int outer_sweeps, int inner_sweeps,
                  Precision precision = Precision::kF64)
      : a_(&a), prec_(precision), a32_(make_twin(a, precision)),
        smoother_(precision == Precision::kF32 ? a32_ : a, type, inner_sweeps),
        outer_(outer_sweeps) {
    charge(/*rebuild=*/true);
  }

  void apply(const linalg::ParVector& r, linalg::ParVector& z) override {
    perf::PhaseScope ph(a_->runtime().tracer(), "precond");
    smoother_.apply_zero(r, z, outer_);
  }

  /// Re-read the matrix's current values into the existing L/D/U split
  /// (structure must be unchanged — throws otherwise). In mixed mode the
  /// FP32 twin re-demotes from the refreshed FP64 matrix first.
  EXW_WARM_FN void refresh_values() {
    EXW_PURITY_REGION("smoother-precond-rebind");
    if (prec_ == Precision::kF32) {
      a32_.copy_demoted_values_from(*a_);
    }
    smoother_.refresh_values();
    charge(/*rebuild=*/false);
  }

 private:
  static linalg::ParCsr make_twin(const linalg::ParCsr& a, Precision p) {
    if (p != Precision::kF32) {
      return {};
    }
    linalg::ParCsr twin = a;
    twin.demote_values();
    return twin;
  }

  void charge(bool rebuild) {
    // Build streams structure (cols twice: classify + store) and values
    // into the split plus the inverse diagonal; a value rebind re-walks
    // the structure once but only rewrites values and the inverse
    // diagonal. Value streams price at the smoother matrix's storage
    // precision. The per-row terms (3 and 2 values) are uncalibrated
    // model constants, not a count of the passes made.
    auto& rt = a_->runtime();
    const Precision pr = prec_;
    const double vb = bytes_of(pr);
    rt.parallel_for_ranks([&](RankId r) {
      const auto& b = a_->block(r);
      const auto nnz = static_cast<double>(b.diag.nnz() + b.offd.nnz());
      const auto n = static_cast<double>(b.diag.nrows().value());
      double f64 = 0, f32 = 0;
      if (rebuild) {
        split_value_bytes(pr, 2.0 * vb * nnz + 3.0 * vb * n, f64, f32);
        rt.tracer().kernel_split_prec(r, nnz, f64, f32,
                                      2.0 * sizeof(LocalIndex) * nnz);
      } else {
        split_value_bytes(pr, 2.0 * vb * nnz + 2.0 * vb * n, f64, f32);
        rt.tracer().kernel_split_prec(r, nnz, f64, f32,
                                      sizeof(LocalIndex) * nnz);
      }
    });
  }

  const linalg::ParCsr* a_;
  Precision prec_ = Precision::kF64;
  /// Demoted twin (empty in the FP64 configuration); must be declared
  /// before the smoother, which may bind to it.
  linalg::ParCsr a32_;
  amg::Smoother smoother_;
  int outer_;
};

}  // namespace exw::solver
