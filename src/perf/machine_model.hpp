#pragma once
/// \file machine_model.hpp
/// Analytic performance models of the platforms in the paper's evaluation.
///
/// The paper's headline results are strong-scaling curves on Summit
/// (6 NVIDIA V100 SXM2 + 42 Power9 cores per node, Spectrum MPI) and Eagle
/// (2 V100 PCIe + 36 x86 cores per node, HPE MPT). We cannot clock
/// thousands of GPUs, so the reproduction executes the *real* distributed
/// algorithms on partitioned data and converts counted work into modeled
/// time with these roofline-plus-overhead models:
///
///   kernel time   = max(flops / F, bytes / B) + kernel launch latency
///   message time  = alpha + bytes / beta            (charged to both ends)
///   allreduce     = ceil(log2(R)) * (alpha_coll + small-payload term)
///
/// The qualitative mechanisms the paper reports all live here:
///  * GPUs: enormous F and B but ~10 us per kernel launch and a large
///    per-message overhead for GPU-resident buffers -> strong scaling
///    flattens when DoFs/GPU drops below ~1e5 (paper Figs. 3, 7, 9).
///  * CPU cores: ~two orders of magnitude less bandwidth per rank but tiny
///    launch/message overheads -> near-ideal slope (paper Fig. 6).
///  * Eagle vs Summit: same GPU silicon, different MPI stack; the paper
///    finds 72 Eagle GPUs beat 144 Summit GPUs by ~40% almost entirely in
///    AMG setup+solve. We encode that as lower alpha (Fig. 11).

#include <string>

namespace exw::perf {

/// Per-rank machine parameters. One "rank" is one GPU or one CPU core.
struct MachineModel {
  std::string name;

  double flops_per_s = 1e9;       ///< peak FP64 throughput per rank
  double bytes_per_s = 1e9;       ///< sustained memory bandwidth per rank
  /// Achieved fraction of roofline for this application's irregular
  /// kernels (unstructured SpMV gathers, short Krylov vectors, sparse
  /// setup): GPUs reach ~10-15% here, CPUs ~35% (the paper notes the
  /// application is far from peak; §6 "not to say that Nalu-Wind is
  /// operating at peak performance").
  double efficiency = 1.0;
  double kernel_launch_s = 0.0;   ///< fixed cost per kernel invocation
  double msg_latency_s = 1e-6;    ///< point-to-point alpha
  double msg_bytes_per_s = 1e10;  ///< point-to-point beta
  double coll_hop_s = 1e-6;       ///< per-tree-hop latency in collectives
  int ranks_per_node = 1;         ///< for node-count axes in the figures

  /// Modeled time for one kernel moving `bytes` and doing `flops` work.
  double kernel_time(double flops, double bytes) const;

  /// Modeled time to send one message of `bytes`.
  double message_time(double bytes) const;

  /// Modeled time for an allreduce of `bytes` across `nranks` ranks.
  double allreduce_time(double bytes, int nranks) const;

  // --- The platforms of the paper's evaluation section -------------------

  /// Summit, rank = one V100 SXM2 (GPU runs of Figs. 3, 7, 8, 9, 11).
  static MachineModel summit_gpu();
  /// Summit, rank = one Power9 core (CPU runs of Figs. 3, 6, 8, 9).
  static MachineModel summit_cpu();
  /// Eagle, rank = one V100 PCIe (Fig. 11 comparison machine).
  static MachineModel eagle_gpu();
  /// The host this reproduction actually runs on (for sanity checks).
  static MachineModel host_cpu();
};

}  // namespace exw::perf
