#include "seq/pst_serialization.h"

#include <istream>
#include <string>
#include <vector>

namespace privtree {

Result<PstModel> LoadPstModelStream(std::istream& in,
                                    const std::string& path) {
  std::string line;
  if (!std::getline(in, line) || line != kPstV1Magic) {
    return Status::InvalidArgument(path + ": bad magic line");
  }
  std::string keyword;
  std::size_t alphabet = 0, nodes = 0;
  if (!(in >> keyword >> alphabet) || keyword != "alphabet" ||
      alphabet == 0 || alphabet > kMaxAlphabetSize) {
    return Status::InvalidArgument(path + ": bad alphabet header");
  }
  // The node cap keeps a crafted header from forcing a huge up-front
  // allocation (the rows below would run out of input long before then).
  if (!(in >> keyword >> nodes) || keyword != "nodes" || nodes == 0 ||
      nodes > (std::size_t{1} << 22)) {
    return Status::InvalidArgument(path + ": bad nodes header");
  }
  const std::size_t beta = alphabet + 1;
  if ((nodes - 1) % beta != 0) {
    return Status::InvalidArgument(path +
                                   ": node count inconsistent with fanout");
  }

  PstModel model(alphabet);
  model.AddRoot();
  // First pass: read rows; split nodes in id order as parents appear.
  std::vector<std::vector<double>> hists(nodes);
  std::vector<NodeId> parents(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    if (!(in >> parents[i])) {
      return Status::InvalidArgument(path + ": truncated node " +
                                     std::to_string(i));
    }
    hists[i].resize(beta);
    for (double& h : hists[i]) {
      if (!(in >> h)) {
        return Status::InvalidArgument(path + ": truncated histogram at " +
                                       std::to_string(i));
      }
    }
    if (i == 0) {
      if (parents[0] != kInvalidNode) {
        return Status::InvalidArgument(path + ": root must have parent -1");
      }
    } else {
      if (parents[i] < 0 || static_cast<std::size_t>(parents[i]) >= i) {
        return Status::InvalidArgument(path + ": bad parent at node " +
                                       std::to_string(i));
      }
      // Children of one parent arrive consecutively in groups of β, and
      // the first of each group triggers the split.  A parent named by two
      // group starts is a crafted file — SplitNode would abort on it.
      if ((i - 1) % beta == 0) {
        if (!model.node(parents[i]).children.empty()) {
          return Status::InvalidArgument(
              path + ": parent split twice at node " + std::to_string(i));
        }
        if (model.SplitNode(parents[i]) != static_cast<NodeId>(i)) {
          return Status::InvalidArgument(
              path + ": children out of order at node " + std::to_string(i));
        }
      } else if (parents[i] != parents[i - 1]) {
        return Status::InvalidArgument(
            path + ": fractured sibling group at node " + std::to_string(i));
      }
    }
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    model.mutable_node(static_cast<NodeId>(i)).hist = std::move(hists[i]);
  }
  return model;
}

}  // namespace privtree
