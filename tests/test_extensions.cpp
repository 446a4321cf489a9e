// Tests for the extension features: VTK output and mesh-quality metrics.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "mesh/generators.hpp"
#include "mesh/quality.hpp"
#include "mesh/vtk_writer.hpp"
#include "test_util.hpp"

namespace exw {
namespace {

TEST(Vtk, WritesReadableFile) {
  mesh::MeshDB db;
  mesh::StructuredBlockBuilder block(GlobalIndex{2}, GlobalIndex{2}, GlobalIndex{2});
  block.emit(db, [](GlobalIndex i, GlobalIndex j, GlobalIndex k) {
    return Vec3{static_cast<Real>(i.value()), static_cast<Real>(j.value()),
                static_cast<Real>(k.value())};
  });
  db.coords = db.ref_coords;
  db.compute_dual_quantities();
  db.name = "unit";
  mesh::VtkFields fields;
  fields.scalars["pressure"] =
      RealVector(static_cast<std::size_t>(db.num_nodes()), 1.5);
  fields.vectors["velocity"] =
      RealVector(static_cast<std::size_t>(3 * db.num_nodes().value()), 0.25);
  const std::string path = "/tmp/exw_vtk_test.vtk";
  ASSERT_TRUE(mesh::write_vtk(db, fields, path));
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("DATASET UNSTRUCTURED_GRID"), std::string::npos);
  EXPECT_NE(content.find("POINTS 27 double"), std::string::npos);
  EXPECT_NE(content.find("CELL_TYPES 8"), std::string::npos);
  EXPECT_NE(content.find("SCALARS pressure double 1"), std::string::npos);
  EXPECT_NE(content.find("VECTORS velocity double"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Vtk, RejectsWrongFieldSizes) {
  mesh::MeshDB db;
  mesh::StructuredBlockBuilder block(GlobalIndex{1}, GlobalIndex{1}, GlobalIndex{1});
  block.emit(db, [](GlobalIndex i, GlobalIndex j, GlobalIndex k) {
    return Vec3{static_cast<Real>(i.value()), static_cast<Real>(j.value()),
                static_cast<Real>(k.value())};
  });
  db.coords = db.ref_coords;
  db.compute_dual_quantities();
  mesh::VtkFields fields;
  fields.scalars["bad"] = RealVector(3, 0.0);
  EXPECT_THROW(mesh::write_vtk(db, fields, "/tmp/exw_vtk_bad.vtk"), Error);
}

TEST(Quality, TurbineMeshesAreChallenging) {
  // The paper's premise quantified: the rotor mesh must show large
  // aspect ratios and coupling anisotropy; the background large volume
  // ratios (grading).
  const auto sys = mesh::make_turbine_case(mesh::TurbineCase::kSingle, 0.4);
  const auto bg = mesh::measure_quality(sys.meshes[0]);
  const auto rotor = mesh::measure_quality(sys.meshes[1]);
  EXPECT_GT(rotor.max_aspect_ratio, 50.0);
  EXPECT_GT(rotor.max_coupling_anisotropy, 100.0);
  EXPECT_GT(bg.volume_ratio, 10.0);
}

TEST(Quality, UniformBoxIsBenign) {
  mesh::MeshDB db;
  mesh::StructuredBlockBuilder block(GlobalIndex{4}, GlobalIndex{4}, GlobalIndex{4});
  block.emit(db, [](GlobalIndex i, GlobalIndex j, GlobalIndex k) {
    return Vec3{static_cast<Real>(i.value()), static_cast<Real>(j.value()),
                static_cast<Real>(k.value())};
  });
  db.coords = db.ref_coords;
  db.compute_dual_quantities();
  const auto q = mesh::measure_quality(db);
  EXPECT_NEAR(q.max_aspect_ratio, 1.0, 1e-9);
  EXPECT_NEAR(q.volume_ratio, 1.0, 1e-9);
  // Boundary nodes see half/quarter dual faces, so even the uniform box
  // has a small bounded spread; the turbine meshes are orders beyond it.
  EXPECT_LE(q.max_coupling_anisotropy, 4.0 + 1e-9);
}

}  // namespace
}  // namespace exw
