#include "linalg/parcsr.hpp"

#include <algorithm>
#include <type_traits>

#include "common/error.hpp"
#include "par/tags.hpp"
#include "perf/purity.hpp"
#include "sparse/prim.hpp"

namespace exw::linalg {

// Channel tags come from the central registry (par/tags.hpp); the
// former file-local 101-105 constants live there now, uniqueness
// compile-checked against every other subsystem.
namespace tags = par::tags;

ParCsr::ParCsr(par::Runtime& rt, par::RowPartition rows,
               par::RowPartition cols, std::vector<RankBlock> blocks)
    : rt_(&rt), rows_(std::move(rows)), cols_(std::move(cols)),
      blocks_(std::move(blocks)) {
  EXW_REQUIRE(checked_narrow<int>(blocks_.size()) == rows_.nranks(),
              "one block per rank required");
  EXW_REQUIRE(rows_.nranks() == cols_.nranks(),
              "row/col partitions must agree on rank count");
  for (RankId r{0}; r.value() < rows_.nranks(); ++r) {
    const auto& b = blocks_[static_cast<std::size_t>(r)];
    EXW_REQUIRE(b.diag.nrows() == rows_.local_size(r), "diag block rows");
    EXW_REQUIRE(b.offd.nrows() == rows_.local_size(r), "offd block rows");
    EXW_REQUIRE(b.offd.ncols() == checked_narrow<LocalIndex>(b.col_map.size()),
                "offd cols must match col_map");
    EXW_REQUIRE(std::is_sorted(b.col_map.begin(), b.col_map.end()),
                "col_map must be ascending");
  }
  build_comm_pkg();
}

void ParCsr::build_comm_pkg() {
  const int nranks = rows_.nranks();
  comm_.sends.assign(static_cast<std::size_t>(nranks), {});
  comm_.recvs.assign(static_cast<std::size_t>(nranks), {});
  // Group each rank's col_map by owner (ascending col_map => grouped runs),
  // then mirror the request onto the owner's send list.
  for (RankId r{0}; r.value() < nranks; ++r) {
    const auto& map = blocks_[static_cast<std::size_t>(r)].col_map;
    std::size_t i = 0;
    while (i < map.size()) {
      const RankId owner = cols_.rank_of(map[i]);
      EXW_REQUIRE(owner != r, "owned column found in offd col_map");
      std::size_t j = i;
      CommPkg::Send send;
      send.dst = r;
      send.offset = checked_narrow<LocalIndex>(i);
      send.slot = comm_.recvs[static_cast<std::size_t>(r)].size();
      while (j < map.size() && cols_.rank_of(map[j]) == owner) {
        send.idx.push_back(cols_.to_local(owner, map[j]));
        ++j;
      }
      comm_.recvs[static_cast<std::size_t>(r)].push_back(
          CommPkg::Recv{owner, checked_narrow<LocalIndex>(j - i)});
      comm_.sends[static_cast<std::size_t>(owner)].push_back(std::move(send));
      i = j;
    }
  }
}

void ParCsr::demote_values() {
  prec_ = Precision::kF32;
  rt_->parallel_for_ranks([&](RankId r) {
    RankBlock& blk = blocks_[static_cast<std::size_t>(r)];
    for (Real& v : blk.diag.vals_vec()) v = demote_value(v);
    for (Real& v : blk.offd.vals_vec()) v = demote_value(v);
    const auto nnz = static_cast<double>(blk.diag.nnz() + blk.offd.nnz());
    // One pass: read the fp64 value, write the fp32 storage.
    rt_->tracer().kernel_split_prec(r, nnz, sizeof(double) * nnz,
                                    sizeof(float) * nnz, 0.0);
  });
}

EXW_WARM_FN
void ParCsr::copy_demoted_values_from(const ParCsr& src) {
  EXW_PURITY_REGION("parcsr-demote-refresh");
  EXW_REQUIRE(prec_ == Precision::kF32,
              "demoted refresh targets an fp32-tagged matrix");
  EXW_REQUIRE(src.nranks() == nranks(), "demoted refresh rank mismatch");
  rt_->parallel_for_ranks([&](RankId r) {
    RankBlock& dst = blocks_[static_cast<std::size_t>(r)];
    const RankBlock& s = src.blocks_[static_cast<std::size_t>(r)];
    EXW_REQUIRE(s.diag.nnz() == dst.diag.nnz() &&
                    s.offd.nnz() == dst.offd.nnz(),
                "demoted refresh structure mismatch");
    auto dv = dst.diag.vals_mut();
    const auto sv = s.diag.vals();
    const auto dn = EntryOffset{static_cast<std::int64_t>(dst.diag.nnz())};
    for (EntryOffset k{0}; k < dn; ++k) {
      dv[k] = demote_value(sv[k]);
    }
    auto ov = dst.offd.vals_mut();
    const auto so = s.offd.vals();
    const auto on = EntryOffset{static_cast<std::int64_t>(dst.offd.nnz())};
    for (EntryOffset k{0}; k < on; ++k) {
      ov[k] = demote_value(so[k]);
    }
    const auto nnz = static_cast<double>(dst.diag.nnz() + dst.offd.nnz());
    rt_->tracer().kernel_split_prec(r, nnz, sizeof(double) * nnz,
                                    sizeof(float) * nnz, 0.0);
  });
}

EXW_WARM_FN
void ParCsr::set_values_from_plan(RankId r, const ValueFillPlan& plan,
                                  std::span<const Real> stacked) {
  EXW_PURITY_REGION("parcsr-value-fill");
  EXW_CONTRACT_CHECK_WRITE(r, "ParCsr::set_values_from_plan(r)");
  RankBlock& blk = blocks_[static_cast<std::size_t>(r)];
  EXW_REQUIRE(plan.seg_ptr.size() == plan.dest.size() + 1 &&
                  (plan.perm.empty() || plan.seg_ptr.back() == plan.perm.size()),
              "value-fill plan shape mismatch");
  EXW_REQUIRE(stacked.size() == plan.perm.size(),
              "stacked value stream does not match plan");
  EXW_REQUIRE(plan.dest.size() == blk.diag.nnz() + blk.offd.nnz(),
              "value-fill plan does not match block structure");
  auto& dvals = blk.diag.vals_vec();
  auto& ovals = blk.offd.vals_vec();
  sparse::prim::segmented_reduce<Real>(
      stacked, plan.perm, plan.seg_ptr, [&](std::size_t e, Real acc) {
        const std::int64_t d = plan.dest[e];
        if (d >= 0) {
          dvals[static_cast<std::size_t>(d)] = acc;
        } else {
          ovals[static_cast<std::size_t>(-d - 1)] = acc;
        }
      });
  // One streaming pass: gathered value + permutation index per stacked
  // slot, destination index + value store per assembled entry.
  const auto n_in = static_cast<double>(plan.perm.size());
  const auto n_out = static_cast<double>(plan.dest.size());
  rt_->tracer().kernel(r, n_in - n_out,
                       n_in * (sizeof(Real) + sizeof(std::size_t)) +
                           n_out * (sizeof(Real) + sizeof(std::int64_t)));
}

ParCsr ParCsr::from_serial(par::Runtime& rt, const sparse::Csr& global,
                           const par::RowPartition& rows,
                           const par::RowPartition& cols) {
  std::vector<RankBlock> blocks(static_cast<std::size_t>(rows.nranks()));
  for (RankId r{0}; r.value() < rows.nranks(); ++r) {
    RankBlock& b = blocks[static_cast<std::size_t>(r)];
    const GlobalIndex row0 = rows.first_row(r);
    const GlobalIndex row1 = rows.end_row(r);
    const GlobalIndex col0 = cols.first_row(r);
    const GlobalIndex col1 = cols.end_row(r);
    const auto nlocal = checked_narrow<LocalIndex>(row1 - row0);

    // Collect off-diagonal global columns for this rank.
    std::vector<GlobalIndex> offd_cols;
    for (GlobalIndex i = row0; i < row1; ++i) {
      // The serial matrix addresses all rows with local indices.
      const auto li = checked_narrow<LocalIndex>(i);
      for (EntryOffset k = global.row_begin(li); k < global.row_end(li); ++k) {
        const GlobalIndex c{global.cols()[k].value()};
        if (c < col0 || c >= col1) {
          offd_cols.push_back(c);
        }
      }
    }
    std::sort(offd_cols.begin(), offd_cols.end());
    offd_cols.erase(std::unique(offd_cols.begin(), offd_cols.end()),
                    offd_cols.end());
    b.col_map = offd_cols;

    b.diag = sparse::Csr(nlocal, checked_narrow<LocalIndex>(col1 - col0));
    b.offd = sparse::Csr(nlocal, checked_narrow<LocalIndex>(offd_cols.size()));
    auto& drp = b.diag.row_ptr_mut();
    auto& orp = b.offd.row_ptr_mut();
    for (GlobalIndex i = row0; i < row1; ++i) {
      const auto li = checked_narrow<LocalIndex>(i);
      for (EntryOffset k = global.row_begin(li); k < global.row_end(li); ++k) {
        const GlobalIndex c{global.cols()[k].value()};
        const Real v = global.vals()[k];
        if (c >= col0 && c < col1) {
          b.diag.cols_vec().push_back(checked_narrow<LocalIndex>(c - col0));
          b.diag.vals_vec().push_back(v);
        } else {
          const auto it =
              std::lower_bound(offd_cols.begin(), offd_cols.end(), c);
          b.offd.cols_vec().push_back(
              checked_narrow<LocalIndex>(it - offd_cols.begin()));
          b.offd.vals_vec().push_back(v);
        }
      }
      drp[static_cast<std::size_t>(i - row0) + 1] =
          EntryOffset{b.diag.cols_vec().size()};
      orp[static_cast<std::size_t>(i - row0) + 1] =
          EntryOffset{b.offd.cols_vec().size()};
    }
  }
  return ParCsr(rt, rows, cols, std::move(blocks));
}

GlobalIndex ParCsr::nnz_of_rank(RankId r) const {
  const auto& b = blocks_[static_cast<std::size_t>(r)];
  return checked_narrow<GlobalIndex>(b.diag.nnz() + b.offd.nnz());
}

GlobalIndex ParCsr::global_nnz() const {
  GlobalIndex n{0};
  for (RankId r{0}; r.value() < nranks(); ++r) n += nnz_of_rank(r);
  return n;
}

std::vector<double> ParCsr::nnz_per_rank() const {
  std::vector<double> out(static_cast<std::size_t>(nranks()));
  for (RankId r{0}; r.value() < nranks(); ++r) {
    out[static_cast<std::size_t>(r)] =
        static_cast<double>(nnz_of_rank(r).value());
  }
  return out;
}

void ParCsr::prime_channels(std::size_t lanes) const {
  if (!contrib_.empty() && (lanes == 0 || lanes == halo_lanes_)) return;
  // First use, or a new halo lane count: vectors only grow, so going
  // back to a smaller lane count later reuses the capacity.
  EXW_PURITY_ALLOW("first-use scratch priming");
  const auto nranks = static_cast<std::size_t>(rows_.nranks());
  if (contrib_.empty()) {
    halo_.resize(nranks);     // exw-warm-ok: first-use scratch priming
    contrib_.resize(nranks);  // exw-warm-ok: first-use scratch priming
    for (std::size_t r = 0; r < nranks; ++r) {
      contrib_[r].resize(  // exw-warm-ok: first-use scratch priming
          blocks_[r].col_map.size());
    }
  }
  if (lanes != 0) {
    for (std::size_t r = 0; r < nranks; ++r) {
      halo_[r].resize(  // exw-warm-ok: first-use scratch priming
          lanes * blocks_[r].col_map.size());
    }
    halo_lanes_ = lanes;
  }
}

void ParCsr::halo_begin(const ParVector& x) const {
  EXW_REQUIRE(x.global_size() == global_cols(), "halo x size mismatch");
  prime_channels(x.ncomp());
  stamp_ = rt_->tracer().stamp();
}

EXW_WARM_FN
void ParCsr::halo_pack(RankId r, const ParVector& x) const {
  EXW_PURITY_REGION("parcsr-halo-exchange");
  const std::size_t lanes = x.ncomp();
  EXW_ASSERT(lanes == halo_lanes_);
  // FP32-tagged vectors ship their halos as float: lossless (stores
  // round through float, so every held value is FP32-representable), and
  // the message charge is priced at the float payload.
  const bool f32 = x.value_precision() == Precision::kF32;
  const std::size_t wire = f32 ? sizeof(float) : sizeof(Real);
  // The owner packs every lane's requested values straight into the
  // receiver's halo buffer at its run's offset, one message per neighbor
  // pair for all lanes. The runs of all neighbors are one gather kernel,
  // as hypre packs its send_map_elmts in one launch.
  const auto& sends = comm_.sends[static_cast<std::size_t>(r)];
  perf::Tally tally;
  std::size_t packed = 0;
  for (const auto& send : sends) {
    const std::size_t count = send.idx.size();
    auto& halo = halo_[static_cast<std::size_t>(send.dst)];
    const std::size_t m =
        blocks_[static_cast<std::size_t>(send.dst)].col_map.size();
    const auto offset = static_cast<std::size_t>(send.offset);
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto xl = x.lane_span(r, l);
      Real* out = halo.data() + l * m + offset;
      for (std::size_t i = 0; i < count; ++i) {
        const Real v = xl[static_cast<std::size_t>(send.idx[i])];
        out[i] = f32 ? static_cast<Real>(static_cast<float>(v)) : v;
      }
    }
    packed += lanes * count;
    rt_->channel_sent(r, send.dst, tags::kHaloValues, lanes * count,
                      lanes * count * wire, tally, "ParCsr::halo_pack");
  }
  if (!sends.empty()) {
    const double pack_bytes = 2.0 * bytes_of(x.value_precision()) *
                              static_cast<double>(packed);
    tally.kernel(0.0, f32 ? 0.0 : pack_bytes, f32 ? pack_bytes : 0.0);
  }
  rt_->tracer().charge_sent(r, tally);
}

void ParCsr::halo_pack(const ParVector& x) const {
  halo_begin(x);
  rt_->parallel_for_ranks([&](RankId r) { halo_pack(r, x); });
}

const RealVector& ParCsr::halo_receive(RankId r, const ParVector& x) const {
  const std::size_t lanes = x.ncomp();
  EXW_ASSERT(lanes == halo_lanes_);
  const std::size_t wire =
      x.value_precision() == Precision::kF32 ? sizeof(float) : sizeof(Real);
  // Every pack finished at the packing region's barrier; the receiver
  // takes its messages in col_map order.
  perf::Tally tally;
  for (const auto& recv : comm_.recvs[static_cast<std::size_t>(r)]) {
    const auto count = lanes * static_cast<std::size_t>(recv.count);
    rt_->channel_received(r, recv.src, tags::kHaloValues, count,
                          count * wire, stamp_, tally, "ParCsr::halo_receive");
  }
  rt_->tracer().charge_received(r, tally, stamp_);
  return halo_[static_cast<std::size_t>(r)];
}

void ParCsr::matvec(const ParVector& x, ParVector& y, Real alpha,
                    Real beta) const {
  EXW_REQUIRE(y.global_size() == global_rows(), "matvec y size mismatch");
  EXW_REQUIRE(x.ncomp() == y.ncomp(), "matvec lane count mismatch");
  halo_pack(x);
  rt_->parallel_for_ranks([&](RankId r) { matvec(r, x, y, alpha, beta); });
}

void ParCsr::matvec(RankId r, const ParVector& x, ParVector& y, Real alpha,
                    Real beta) const {
  const std::size_t lanes = x.ncomp();
  const auto& ext = halo_receive(r, x);
  const auto& b = blocks_[static_cast<std::size_t>(r)];
  const std::size_t xs = static_cast<std::size_t>(cols_.local_size(r).value());
  const std::size_t ys = static_cast<std::size_t>(rows_.local_size(r).value());
  auto& yl = y.local(r);
  b.diag.spmv_multi(x.local(r), xs, yl, ys, lanes, alpha, beta);
  if (b.offd.nnz() > 0) {
    b.offd.spmv_multi(ext, b.col_map.size(), yl, ys, lanes, alpha, 1.0);
  }
  if (y.value_precision() == Precision::kF32) {
    // Fused diag+offd accumulation in fp64 registers, one rounded store
    // into the FP32-tagged result.
    for (Real& v : yl) v = demote_value(v);
  }
  // Matrix values, x gathers and y updates stream once per lane, the
  // column indices once for all lanes (the fused-lane saving); each value
  // stream is priced at its container's storage precision.
  const auto nnz = static_cast<double>(b.diag.nnz() + b.offd.nnz());
  const auto nl = static_cast<double>(lanes);
  double f64 = 0, f32 = 0;
  split_value_bytes(prec_, nl * nnz * bytes_of(prec_), f64, f32);
  split_value_bytes(y.value_precision(),
                    nl * 2.0 * bytes_of(y.value_precision()) *
                        static_cast<double>(ys),
                    f64, f32);
  rt_->tracer().kernel_split_prec(r, 2.0 * nnz * nl, f64, f32,
                                  nnz * sizeof(LocalIndex));
}

void ParCsr::residual(const ParVector& b, const ParVector& x,
                      ParVector& res) const {
  EXW_REQUIRE(res.global_size() == global_rows(), "residual size mismatch");
  EXW_REQUIRE(x.ncomp() == res.ncomp(), "residual lane count mismatch");
  halo_pack(x);
  rt_->parallel_for_ranks([&](RankId r) { residual(r, b, x, res); });
}

void ParCsr::residual(RankId r, const ParVector& b, const ParVector& x,
                      ParVector& res) const {
  res.copy_from(r, b);
  matvec(r, x, res, -1.0, 1.0);
}

void ParCsr::matvec_transpose(const ParVector& x, ParVector& y, Real alpha,
                              Real beta) const {
  transpose_send(x, y, alpha, beta);
  rt_->parallel_for_ranks([&](RankId r) { transpose_receive(r, y); });
}

void ParCsr::transpose_begin() const {
  prime_channels(0);
  stamp_ = rt_->tracer().stamp();
}

EXW_WARM_FN
void ParCsr::transpose_send(RankId r, const ParVector& x, ParVector& y,
                            Real alpha, Real beta) const {
  EXW_PURITY_REGION("parcsr-matvec-transpose");
  EXW_REQUIRE(x.global_size() == global_rows(), "matvec_T x size mismatch");
  EXW_REQUIRE(y.global_size() == global_cols(), "matvec_T y size mismatch");
  EXW_REQUIRE(x.ncomp() == 1 && y.ncomp() == 1, "matvec_T runs one lane");
  // An FP32-tagged operator (AMG restriction in the mixed hierarchy)
  // ships float contributions — the rounding a real FP32 MPI buffer
  // applies; deterministic because the partition is fixed.
  const bool f32_wire = prec_ == Precision::kF32;
  const std::size_t wire = f32_wire ? sizeof(float) : sizeof(Real);
  // Local transpose products: diag^T into the owned part of y; offd^T
  // into the rank's contribution buffer in col_map order, each recv run
  // of which is one message back to its source rank (the exact reverse
  // of the halo exchange, so the comm package is reused).
  const auto& b = blocks_[static_cast<std::size_t>(r)];
  auto& yl = y.local(r);
  b.diag.spmv_transpose(x.local(r), yl, alpha, beta);
  auto& buf = contrib_[static_cast<std::size_t>(r)];
  if (b.offd.nnz() > 0) {
    b.offd.spmv_transpose(x.local(r), buf, alpha, 0.0);
  } else {
    std::fill(buf.begin(), buf.end(), 0.0);
  }
  if (f32_wire) {
    for (Real& v : buf) v = static_cast<Real>(static_cast<float>(v));
  }
  const auto nnz = static_cast<double>(b.diag.nnz() + b.offd.nnz());
  double f64 = 0, f32 = 0;
  split_value_bytes(prec_, nnz * bytes_of(prec_), f64, f32);
  split_value_bytes(y.value_precision(),
                    2.0 * bytes_of(y.value_precision()) *
                        static_cast<double>(yl.size()),
                    f64, f32);
  perf::Tally tally;
  tally.kernel(2.0 * nnz, f64, f32, nnz * sizeof(LocalIndex));
  for (const auto& recv : comm_.recvs[static_cast<std::size_t>(r)]) {
    const auto count = static_cast<std::size_t>(recv.count);
    rt_->channel_sent(r, recv.src, tags::kHaloValues, count, count * wire,
                      tally, "ParCsr::transpose_send");
  }
  rt_->tracer().charge_sent(r, tally);
}

void ParCsr::transpose_send(const ParVector& x, ParVector& y, Real alpha,
                            Real beta) const {
  transpose_begin();
  rt_->parallel_for_ranks(
      [&](RankId r) { transpose_send(r, x, y, alpha, beta); });
}

void ParCsr::transpose_receive(RankId owner, ParVector& y) const {
  const std::size_t wire =
      prec_ == Precision::kF32 ? sizeof(float) : sizeof(Real);
  // Owners add the contributions in comm_.sends order, every
  // neighbor's in one scatter-add kernel.
  const auto& sends = comm_.sends[static_cast<std::size_t>(owner)];
  auto& yl = y.local(owner);
  perf::Tally tally;
  std::size_t added = 0;
  for (const auto& send : sends) {
    const std::size_t count = send.idx.size();
    rt_->channel_received(owner, send.dst, tags::kHaloValues, count,
                          count * wire, stamp_, tally,
                          "ParCsr::transpose_receive");
    const Real* in = contrib_[static_cast<std::size_t>(send.dst)].data() +
                     static_cast<std::size_t>(send.offset);
    for (std::size_t i = 0; i < count; ++i) {
      yl[static_cast<std::size_t>(send.idx[i])] += in[i];
    }
    added += count;
  }
  if (!sends.empty()) {
    double f64 = 0, f32 = 0;
    split_value_bytes(y.value_precision(),
                      3.0 * bytes_of(y.value_precision()) *
                          static_cast<double>(added),
                      f64, f32);
    tally.kernel(static_cast<double>(added), f64, f32);
  }
  if (y.value_precision() == Precision::kF32) {
    for (Real& v : yl) v = demote_value(v);
  }
  rt_->tracer().charge_received(owner, tally, stamp_);
}

sparse::Csr ParCsr::to_serial() const {
  std::vector<LocalIndex> ti, tj;
  std::vector<Real> tv;
  for (RankId r{0}; r.value() < nranks(); ++r) {
    const auto& b = blocks_[static_cast<std::size_t>(r)];
    const GlobalIndex row0 = rows_.first_row(r);
    const GlobalIndex col0 = cols_.first_row(r);
    for (LocalIndex i{0}; i < b.diag.nrows(); ++i) {
      for (EntryOffset k = b.diag.row_begin(i); k < b.diag.row_end(i); ++k) {
        ti.push_back(checked_narrow<LocalIndex>(row0 + i.value()));
        tj.push_back(checked_narrow<LocalIndex>(col0 + b.diag.cols()[k].value()));
        tv.push_back(b.diag.vals()[k]);
      }
      for (EntryOffset k = b.offd.row_begin(i); k < b.offd.row_end(i); ++k) {
        ti.push_back(checked_narrow<LocalIndex>(row0 + i.value()));
        tj.push_back(checked_narrow<LocalIndex>(
            b.col_map[static_cast<std::size_t>(b.offd.cols()[k])]));
        tv.push_back(b.offd.vals()[k]);
      }
    }
  }
  return sparse::Csr::from_triples(checked_narrow<LocalIndex>(global_rows()),
                                   checked_narrow<LocalIndex>(global_cols()),
                                   std::move(ti), std::move(tj), std::move(tv));
}

std::size_t ExtRows::find(GlobalIndex g) const {
  const auto it = std::lower_bound(row_ids.begin(), row_ids.end(), g);
  if (it == row_ids.end() || *it != g) {
    return static_cast<std::size_t>(-1);
  }
  return static_cast<std::size_t>(it - row_ids.begin());
}

std::vector<ExtRows> fetch_external_rows(
    const ParCsr& m, const std::vector<std::vector<GlobalIndex>>& needed) {
  par::Runtime& rt = m.runtime();
  auto& transport = rt.transport();
  const int nranks = m.nranks();
  EXW_REQUIRE(checked_narrow<int>(needed.size()) == nranks,
              "one request list per rank");

  // 1. Send row-id requests to owners.
  std::vector<std::vector<std::vector<GlobalIndex>>> reqs(
      static_cast<std::size_t>(nranks));  // [owner][requester] -> ids
  for (auto& v : reqs) v.resize(static_cast<std::size_t>(nranks));
  rt.parallel_for_ranks([&](RankId r) {
    std::vector<GlobalIndex> sorted = needed[static_cast<std::size_t>(r)];
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    std::size_t i = 0;
    while (i < sorted.size()) {
      const RankId owner = m.rows().rank_of(sorted[i]);
      EXW_REQUIRE(owner != r, "requested an owned row as external");
      std::size_t j = i;
      std::vector<GlobalIndex> ids;
      while (j < sorted.size() && m.rows().rank_of(sorted[j]) == owner) {
        ids.push_back(sorted[j]);
        ++j;
      }
      transport.send(r, owner, tags::kRowRequest, ids);
      reqs[static_cast<std::size_t>(owner)][static_cast<std::size_t>(r)] =
          std::move(ids);
      i = j;
    }
  });

  // 2. Owners reply with (row length header, global cols, values).
  rt.parallel_for_ranks([&](RankId owner) {
    const auto& b = m.block(owner);
    const GlobalIndex row0 = m.rows().first_row(owner);
    const GlobalIndex col0 = m.cols().first_row(owner);
    for (RankId r{0}; r.value() < nranks; ++r) {
      const auto& ids = reqs[static_cast<std::size_t>(owner)][static_cast<std::size_t>(r)];
      if (ids.empty()) continue;
      (void)transport.recv<GlobalIndex>(owner, r, tags::kRowRequest);
      std::vector<GlobalIndex> hdr;
      std::vector<GlobalIndex> cols;
      std::vector<Real> vals;
      for (GlobalIndex g : ids) {
        const auto li = checked_narrow<LocalIndex>(g - row0);
        GlobalIndex len{0};
        for (EntryOffset k = b.diag.row_begin(li); k < b.diag.row_end(li); ++k) {
          cols.push_back(col0 + b.diag.cols()[k].value());
          vals.push_back(b.diag.vals()[k]);
          ++len;
        }
        for (EntryOffset k = b.offd.row_begin(li); k < b.offd.row_end(li); ++k) {
          cols.push_back(
              b.col_map[static_cast<std::size_t>(
                  b.offd.cols()[k])]);
          vals.push_back(b.offd.vals()[k]);
          ++len;
        }
        hdr.push_back(len);
      }
      transport.send(owner, r, tags::kRowHeader, std::move(hdr));
      transport.send(owner, r, tags::kRowCols, std::move(cols));
      transport.send(owner, r, tags::kRowVals, std::move(vals));
    }
  });

  // 3. Requesters assemble ExtRows in ascending row order.
  std::vector<ExtRows> out(static_cast<std::size_t>(nranks));
  rt.parallel_for_ranks([&](RankId r) {
    ExtRows& e = out[static_cast<std::size_t>(r)];
    e.row_ptr.push_back(0);
    for (RankId owner{0}; owner.value() < nranks; ++owner) {
      const auto& ids = reqs[static_cast<std::size_t>(owner)][static_cast<std::size_t>(r)];
      if (ids.empty()) continue;
      auto hdr = transport.recv<GlobalIndex>(r, owner, tags::kRowHeader);
      auto cols = transport.recv<GlobalIndex>(r, owner, tags::kRowCols);
      auto vals = transport.recv<Real>(r, owner, tags::kRowVals);
      std::size_t cursor = 0;
      for (std::size_t i = 0; i < ids.size(); ++i) {
        e.row_ids.push_back(ids[i]);
        const auto len = static_cast<std::size_t>(hdr[i]);
        for (std::size_t k = 0; k < len; ++k) {
          e.cols.push_back(cols[cursor + k]);
          e.vals.push_back(vals[cursor + k]);
        }
        cursor += len;
        e.row_ptr.push_back(e.cols.size());
      }
    }
    EXW_ASSERT(std::is_sorted(e.row_ids.begin(), e.row_ids.end()));
  });
  return out;
}

}  // namespace exw::linalg
