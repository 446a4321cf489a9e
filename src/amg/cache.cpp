#include "amg/cache.hpp"

namespace exw::amg {

CacheAction HierarchyCache::update(const linalg::ParCsr& a,
                                   const AmgConfig& cfg,
                                   std::uint64_t generation, bool use_cache,
                                   bool values_changed) {
  if (!use_cache || stale(generation, cfg) || values_changed) {
    rebuild(a, cfg, generation);
    return CacheAction::kRebuild;
  }
  ++reuses_;
  return CacheAction::kReuse;
}

void HierarchyCache::rebuild(const linalg::ParCsr& a, const AmgConfig& cfg,
                             std::uint64_t generation) {
  hierarchy_ = std::make_unique<AmgHierarchy>(a, cfg);
  cfg_ = cfg;
  generation_ = generation;
  ++rebuilds_;
}

}  // namespace exw::amg
