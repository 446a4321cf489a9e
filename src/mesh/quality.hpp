#pragma once
/// \file quality.hpp
/// Mesh-quality metrics. The paper's §1 premise: "blade-resolved
/// simulations of wind turbines lead to unstructured grids with
/// challenging features ... mesh cells with high aspect ratio or mesh
/// cells that are vastly different in size. This leads to poorly
/// conditioned linear systems." These metrics quantify exactly that for
/// the generated meshes; tests/test_extensions.cpp checks them on the
/// turbine meshes.

#include "mesh/meshdb.hpp"

namespace exw::mesh {

struct QualityReport {
  Real max_aspect_ratio = 0;   ///< longest / shortest hex edge, worst cell
  Real mean_aspect_ratio = 0;
  Real volume_ratio = 0;       ///< largest / smallest cell volume
  Real min_volume = 0;
  Real max_volume = 0;
  /// Edge-coefficient anisotropy of the dual graph: max over nodes of
  /// (strongest incident coupling / weakest incident coupling) — the
  /// quantity that directly drives pressure-system conditioning.
  Real max_coupling_anisotropy = 0;
};

QualityReport measure_quality(const MeshDB& db);

}  // namespace exw::mesh
