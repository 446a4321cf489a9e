#pragma once
/// \file cache.hpp
/// AMG hierarchy cache: one hierarchy kept across solves, reused
/// untouched while the fine matrix's values stay bitwise the same and
/// rebuilt otherwise.
///
/// AMG setup — SoC, PMIS, interpolation, and the Galerkin SpGEMMs — is a
/// pure function of the fine matrix and the PMIS seed. The paper's meshes
/// move rigidly (the rotor turns inside the background mesh, §2), so a
/// mesh block's pressure-Poisson matrix keeps every coefficient after its
/// first assembly, and every later solve would rebuild the same
/// hierarchy. The cache builds it once per key and reuses it; a rebuild
/// at unchanged values would reproduce it bit for bit. This is the setup
/// half of the algorithmic-scalability program of "Alya towards
/// Exascale" (PAPERS.md) applied to our §4 pressure solve.
///
/// The key -> reuse -> rebuild order HierarchyCache::update follows is
/// documented in DESIGN.md §12.

#include <cstdint>
#include <memory>

#include "amg/config.hpp"
#include "amg/hierarchy.hpp"
#include "linalg/parcsr.hpp"

namespace exw::amg {

/// What HierarchyCache::update did to make the hierarchy fit the matrix.
enum class CacheAction { kRebuild, kReuse };

/// Pressure-preconditioner cache: one AmgHierarchy kept across Picard
/// solves and time steps, keyed on (equation-graph generation, AmgConfig).
/// update() is the one place that decides between rebuilding the
/// hierarchy and reusing it untouched.
class HierarchyCache {
 public:
  bool valid() const { return hierarchy_ != nullptr; }
  AmgHierarchy& hierarchy() { return *hierarchy_; }

  long rebuilds() const { return rebuilds_; }
  long reuses() const { return reuses_; }

  /// True when the key no longer matches (invalid cache, new graph
  /// generation, or changed AMG configuration).
  bool stale(std::uint64_t generation, const AmgConfig& cfg) const {
    return !valid() || generation_ != generation || !(cfg_ == cfg);
  }

  /// Make the hierarchy fit `a` for the next solve: reuse it, untouched,
  /// when `use_cache` is set, the key matches and `values_changed` is
  /// false (the caller's linalg::ValueCheck found a's values bitwise
  /// equal to those of the previous solve); rebuild it otherwise.
  CacheAction update(const linalg::ParCsr& a, const AmgConfig& cfg,
                     std::uint64_t generation, bool use_cache,
                     bool values_changed);

  /// Structural rebuild from `a`.
  void rebuild(const linalg::ParCsr& a, const AmgConfig& cfg,
               std::uint64_t generation);
  /// The rebuild perfbench/runner/layers.cpp times; the flag is ignored.
  void rebuild(const linalg::ParCsr& a, const AmgConfig& cfg,
               std::uint64_t generation, bool /*freeze*/) {
    rebuild(a, cfg, generation);
  }
  /// perfbench/runner/layers.cpp's amg.refresh_s: a rebuild at the key.
  void refresh(const linalg::ParCsr& a) { rebuild(a, cfg_, generation_); }

 private:
  std::unique_ptr<AmgHierarchy> hierarchy_;
  AmgConfig cfg_;
  std::uint64_t generation_ = 0;
  long rebuilds_ = 0;
  long reuses_ = 0;
};

}  // namespace exw::amg
