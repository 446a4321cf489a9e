#include "cfd/config.hpp"

namespace exw::cfd {

SimConfig SimConfig::optimized() { return SimConfig{}; }

SimConfig SimConfig::baseline() {
  // The paper's baseline GPU implementation (Fig. 3): fast GPU AMG setup
  // and two-stage GS already present, but before the second-order
  // optimizations — hypre's general assembly path, RCB decomposition,
  // a single inner GS sweep, and untuned BoomerAMG parameters.
  SimConfig cfg;
  cfg.precond_precision = Precision::kF64;  // mixed precision came later
  cfg.partition = assembly::PartitionMethod::kRcb;
  cfg.assembly_algo = assembly::GlobalAssemblyAlgo::kGeneral;
  cfg.use_amg_cache = false;  // baseline rebuilds AMG setup every solve
  cfg.pressure_projection_size = 0;  // every solve starts from p_old
  cfg.sgs_inner_sweeps = 1;
  cfg.pressure_amg.agg_levels = 0;
  cfg.pressure_amg.pmax = 0;
  cfg.pressure_amg.min_coarse_rows_per_rank = 0;  // every level on every rank
  // Before the MM-ext development (§4.1), direct interpolation was the
  // GPU-available option; the tuned configuration selects the MM-ext
  // family with aggressive coarsening and truncation.
  cfg.pressure_amg.interp = amg::InterpType::kDirect;
  cfg.use_fused_momentum = false;  // baseline solves u, v, w sequentially
  return cfg;
}

}  // namespace exw::cfd
