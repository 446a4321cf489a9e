#pragma once
/// \file multivector.hpp
/// Former name of the multi-lane vector: every distributed vector is now
/// a linalg::ParVector with `ncomp` lanes (parvector.hpp). perfbench/runner
/// still includes this header and uses the old name.

#include "linalg/parvector.hpp"

namespace exw::linalg {

using ParMultiVector = ParVector;

}  // namespace exw::linalg
