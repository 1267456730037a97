#include "spatial/serialization.h"

#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

namespace privtree {

Result<SpatialHistogram> LoadSpatialHistogramText(std::istream& in,
                                                  const std::string& name) {
  std::string line;
  if (!std::getline(in, line) || line != "privtree-histogram v1") {
    return Status::InvalidArgument(name + ": bad magic line");
  }
  std::string keyword;
  std::size_t dim = 0, nodes = 0;
  if (!(in >> keyword >> dim) || keyword != "dim" || dim == 0 || dim > 8) {
    return Status::InvalidArgument(name + ": bad dim header");
  }
  if (!(in >> keyword >> nodes) || keyword != "nodes" || nodes == 0) {
    return Status::InvalidArgument(name + ": bad nodes header");
  }

  SpatialHistogram hist;
  hist.count.reserve(nodes);
  std::vector<double> lo(dim), hi(dim);
  for (std::size_t i = 0; i < nodes; ++i) {
    NodeId parent = kInvalidNode;
    double count = 0.0;
    if (!(in >> parent >> count)) {
      return Status::InvalidArgument(name + ": truncated node " +
                                     std::to_string(i));
    }
    for (std::size_t j = 0; j < dim; ++j) {
      if (!(in >> lo[j] >> hi[j]) || !(lo[j] <= hi[j])) {
        return Status::InvalidArgument(name + ": bad bounds at node " +
                                       std::to_string(i));
      }
    }
    SpatialCell cell;
    cell.box = Box(lo, hi);
    if (i == 0) {
      if (parent != kInvalidNode) {
        return Status::InvalidArgument(name + ": root must have parent -1");
      }
      hist.tree.AddRoot(std::move(cell));
    } else {
      if (parent < 0 || static_cast<std::size_t>(parent) >= i) {
        return Status::InvalidArgument(name + ": bad parent at node " +
                                       std::to_string(i));
      }
      hist.tree.AddChild(parent, std::move(cell));
    }
    hist.count.push_back(count);
  }
  return hist;
}

void WriteBox(ByteWriter& out, const Box& box) {
  for (std::size_t j = 0; j < box.dim(); ++j) {
    out.F64(box.lo(j));
    out.F64(box.hi(j));
  }
}

bool ReadBounds(ByteReader& in, double* lo, double* hi,
                std::string* error) {
  if (!in.F64(lo) || !in.F64(hi)) {
    *error = "truncated box";
    return false;
  }
  // Box's constructor aborts on these; a crafted file must get a Status.
  if (!std::isfinite(*lo) || !std::isfinite(*hi)) {
    *error = "non-finite box bound";
    return false;
  }
  if (!(*lo <= *hi)) {
    *error = "box with lo > hi";
    return false;
  }
  return true;
}

bool ReadBox(ByteReader& in, std::size_t dim, Box* out, std::string* error) {
  std::vector<double> lo(dim), hi(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    if (!ReadBounds(in, &lo[j], &hi[j], error)) return false;
  }
  *out = Box(std::move(lo), std::move(hi));
  return true;
}

}  // namespace privtree
