#include "release/builtin_methods.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/byteio.h"
#include "core/codec.h"
#include "dp/check.h"
#include "hist/ag.h"
#include "hist/dawa.h"
#include "hist/grid.h"
#include "hist/grid_codec.h"
#include "hist/hierarchy.h"
#include "hist/kdtree.h"
#include "hist/ug.h"
#include "hist/wavelet.h"
#include "release/method.h"
#include "release/options.h"
#include "release/sequence_methods.h"
#include "release/serialization.h"
#include "release/tree_batch.h"
#include "release/tree_codec.h"
#include "spatial/morton_index.h"
#include "spatial/serialization.h"
#include "spatial/spatial_histogram.h"

namespace privtree::release {
namespace {

/// State every adapter tracks across Fit (or restores from an envelope).
struct FitState {
  bool fitted = false;
  std::size_t dim = 0;
  double epsilon_spent = 0.0;
};

/// Shared bookkeeping for the built-in adapters: the canonical options text
/// the method was created with (persisted in the envelope) and the fit
/// state — restored verbatim when a synopsis is loaded from disk.
class BuiltinMethod : public Method {
 protected:
  explicit BuiltinMethod(const MethodOptions& o)
      : options_text_(o.ToString()) {}
  explicit BuiltinMethod(const SynopsisEnvelope& env)
      : options_text_(env.options_text),
        state_{true, env.metadata.dim, env.metadata.epsilon_spent} {}

  /// Envelope + payload write shared by every Save override; callers have
  /// checked state_.fitted.
  Status SaveSynopsis(std::ostream& out, std::string_view payload) const {
    return WriteSynopsis(out, Metadata(), options_text_, payload);
  }

  Status NotFitted() const {
    return Status::InvalidArgument("Save requires a fitted method");
  }

  std::string options_text_;
  FitState state_;
};

/// The `count_quantum` knob of the tree-family methods: released counts are
/// snapped to multiples of the quantum as post-processing (DP-safe), which
/// lets the v3 payload store them as group-varint integers instead of raw
/// doubles.  0 (the default) disables quantization.
double ParseCountQuantum(const MethodOptions& o) {
  return o.GetDouble("count_quantum", 0.0);
}

/// The tree-family methods — PrivTree (Section 3.4), SimpleTree
/// (Algorithm 1) and the private kd-tree — share this one adapter over a
/// released tree in the flat layout (release/tree_batch.h).  Fit runs the
/// family's builder, quantizes the counts, flattens the tree and drops it;
/// a load decodes the flat tree directly (release/tree_codec.h).
class TreeMethod final : public BuiltinMethod {
 public:
  /// A family's builder over parsed options: the released tree and counts
  /// for `epsilon`.
  using FitFn =
      std::function<TreeParts(const Dataset& data, double epsilon, Rng& rng)>;
  /// Parses a family's options into its fit.
  using ParseFn = FitFn (*)(const MethodOptions& options);

  TreeMethod(std::string name, ParseFn parse, const MethodOptions& o)
      : BuiltinMethod(o),
        name_(std::move(name)),
        fit_(parse(o)),
        count_quantum_(ParseCountQuantum(o)) {}

  /// A loaded synopsis, fitted already.
  TreeMethod(const SynopsisEnvelope& env, TreeBatchIndex tree)
      : BuiltinMethod(env),
        name_(env.metadata.method),
        count_quantum_(
            ParseCountQuantum(MethodOptions::Parse(env.options_text))),
        tree_(std::move(tree)) {}

  void Fit(const Dataset& data, PrivacyBudget& budget, Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    state_ = {true, data.domain().dim(), budget.SpendRemaining()};
    TreeParts parts = fit_(data, state_.epsilon_spent, rng);
    for (double& c : parts.counts) c = QuantizeCount(c, count_quantum_);
    tree_ = TreeBatchIndex(std::move(parts));
  }

  void Fit(const PointSet& points, const Box& domain, PrivacyBudget& budget,
           Rng& rng) override {
    Fit(Dataset(points, domain), budget, rng);
  }

  double Query(const Box& q) const override {
    PRIVTREE_CHECK(state_.fitted);
    return tree_.Query(q);
  }

  std::vector<double> QueryBatch(std::span<const Box> queries) const override {
    PRIVTREE_CHECK(state_.fitted);
    return tree_.Query(queries);
  }

  MethodMetadata Metadata() const override {
    return {name_, state_.dim, state_.epsilon_spent, tree_.size(),
            tree_.Height()};
  }

  Status Save(std::ostream& out) const override {
    if (!state_.fitted) return NotFitted();
    std::string payload;
    ByteWriter w(&payload);
    WriteTreeBody(w, tree_, count_quantum_);
    return SaveSynopsis(out, payload);
  }

 private:
  std::string name_;
  FitFn fit_;  // Empty on a loaded synopsis.
  double count_quantum_ = 0.0;
  TreeBatchIndex tree_;
};

const Box& CellBox(const SpatialCell& cell) { return cell.box; }

/// PrivTree and SimpleTree count with the dataset's shared Morton index.
TreeMethod::FitFn PrivTreeFit(const MethodOptions& o) {
  return [options = ParsePrivTreeHistogramOptions(o)](
             const Dataset& data, double epsilon, Rng& rng) {
    SpatialHistogram hist = BuildPrivTreeHistogram(
        data.morton_index(), data.domain(), epsilon, options, rng);
    return TreeParts::Of(hist.tree, std::move(hist.count), CellBox);
  };
}

TreeMethod::FitFn SimpleTreeFit(const MethodOptions& o) {
  return [options = ParseSimpleTreeHistogramOptions(o)](
             const Dataset& data, double epsilon, Rng& rng) {
    SpatialHistogram hist = BuildSimpleTreeHistogram(
        data.morton_index(), data.domain(), epsilon, options, rng);
    return TreeParts::Of(hist.tree, std::move(hist.count), CellBox);
  };
}

TreeMethod::FitFn KdTreeFit(const MethodOptions& o) {
  RequireKnownKeys(o, {"height", "split_budget_fraction", "count_quantum"});
  KdTreeOptions options;
  options.height =
      static_cast<std::int32_t>(o.GetInt("height", options.height));
  options.split_budget_fraction =
      o.GetDouble("split_budget_fraction", options.split_budget_fraction);
  return [options](const Dataset& data, double epsilon, Rng& rng) {
    const KdTreeHistogram kd(data.points(), data.domain(), epsilon, options,
                             rng);
    return TreeParts::Of(kd.tree(), kd.counts(),
                         [](const Box& box) -> const Box& { return box; });
  };
}

/// Shared adapter for the builders that return a flat GridHistogram (UG,
/// DAWA, Privelet*); queries go through the O(4^d) prefix-sum lattice, and
/// QueryBatch through the grid's allocation-free one-pass batch path.  The
/// whole family shares one payload codec (hist/grid_codec.h).
class GridMethodBase : public BuiltinMethod {
 public:
  double Query(const Box& q) const override {
    PRIVTREE_CHECK(state_.fitted);
    return grid_->Query(q);
  }

  std::vector<double> QueryBatch(std::span<const Box> queries) const override {
    PRIVTREE_CHECK(state_.fitted);
    return grid_->QueryBatch(queries);
  }

  Status Save(std::ostream& out) const override {
    if (!state_.fitted) return NotFitted();
    std::string payload;
    ByteWriter w(&payload);
    WriteGridHistogram(w, *grid_);
    return SaveSynopsis(out, payload);
  }

 protected:
  explicit GridMethodBase(const MethodOptions& o) : BuiltinMethod(o) {}
  GridMethodBase(const SynopsisEnvelope& env, GridHistogram grid)
      : BuiltinMethod(env) {
    grid_.emplace(std::move(grid));
  }

  std::optional<GridHistogram> grid_;
};

class UniformGridMethod final : public GridMethodBase {
 public:
  explicit UniformGridMethod(const MethodOptions& o)
      : GridMethodBase(o), options_(ParseOptions(o)) {}

  UniformGridMethod(const SynopsisEnvelope& env, GridHistogram grid)
      : GridMethodBase(env, std::move(grid)),
        options_(ParseOptions(MethodOptions::Parse(env.options_text))) {}

  void Fit(const PointSet& points, const Box& domain, PrivacyBudget& budget,
           Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    state_ = {true, domain.dim(), budget.SpendRemaining()};
    grid_.emplace(BuildUniformGrid(points, domain, state_.epsilon_spent,
                                   options_, rng));
  }

  MethodMetadata Metadata() const override {
    return {"ug", state_.dim, state_.epsilon_spent,
            grid_ ? grid_->total_cells() : 0, 0};
  }

 private:
  static UniformGridOptions ParseOptions(const MethodOptions& o) {
    RequireKnownKeys(o, {"cell_scale", "c0"});
    UniformGridOptions out;
    out.cell_scale = o.GetDouble("cell_scale", out.cell_scale);
    out.c0 = o.GetDouble("c0", out.c0);
    return out;
  }

  UniformGridOptions options_;
};

class DawaMethod final : public GridMethodBase {
 public:
  explicit DawaMethod(const MethodOptions& o)
      : GridMethodBase(o), options_(ParseOptions(o)) {}

  DawaMethod(const SynopsisEnvelope& env, GridHistogram grid)
      : GridMethodBase(env, std::move(grid)),
        options_(ParseOptions(MethodOptions::Parse(env.options_text))) {}

  void Fit(const PointSet& points, const Box& domain, PrivacyBudget& budget,
           Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    state_ = {true, domain.dim(), budget.SpendRemaining()};
    grid_.emplace(BuildDawaHistogram(points, domain, state_.epsilon_spent,
                                     options_, rng));
  }

  MethodMetadata Metadata() const override {
    return {"dawa", state_.dim, state_.epsilon_spent,
            grid_ ? grid_->total_cells() : 0, 0};
  }

 private:
  static DawaOptions ParseOptions(const MethodOptions& o) {
    RequireKnownKeys(o, {"target_total_cells", "partition_budget_fraction",
                         "measure_branching"});
    DawaOptions out;
    out.target_total_cells =
        o.GetInt("target_total_cells", out.target_total_cells);
    out.partition_budget_fraction = o.GetDouble(
        "partition_budget_fraction", out.partition_budget_fraction);
    out.measure_branching =
        o.GetInt("measure_branching", out.measure_branching);
    return out;
  }

  DawaOptions options_;
};

class WaveletMethod final : public GridMethodBase {
 public:
  explicit WaveletMethod(const MethodOptions& o)
      : GridMethodBase(o), options_(ParseOptions(o)) {}

  WaveletMethod(const SynopsisEnvelope& env, GridHistogram grid)
      : GridMethodBase(env, std::move(grid)),
        options_(ParseOptions(MethodOptions::Parse(env.options_text))) {}

  void Fit(const PointSet& points, const Box& domain, PrivacyBudget& budget,
           Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    state_ = {true, domain.dim(), budget.SpendRemaining()};
    grid_.emplace(BuildPriveletHistogram(points, domain, state_.epsilon_spent,
                                         options_, rng));
  }

  MethodMetadata Metadata() const override {
    return {"wavelet", state_.dim, state_.epsilon_spent,
            grid_ ? grid_->total_cells() : 0, 0};
  }

 private:
  static PriveletOptions ParseOptions(const MethodOptions& o) {
    RequireKnownKeys(o, {"target_total_cells"});
    PriveletOptions out;
    out.target_total_cells =
        o.GetInt("target_total_cells", out.target_total_cells);
    return out;
  }

  PriveletOptions options_;
};

class AdaptiveGridMethod final : public BuiltinMethod {
 public:
  explicit AdaptiveGridMethod(const MethodOptions& o)
      : BuiltinMethod(o), options_(ParseOptions(o)) {}

  AdaptiveGridMethod(const SynopsisEnvelope& env, AdaptiveGrid grid)
      : BuiltinMethod(env),
        options_(ParseOptions(MethodOptions::Parse(env.options_text))) {
    grid_.emplace(std::move(grid));
  }

  void Fit(const PointSet& points, const Box& domain, PrivacyBudget& budget,
           Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    state_ = {true, domain.dim(), budget.SpendRemaining()};
    grid_.emplace(points, domain, state_.epsilon_spent, options_, rng);
  }

  double Query(const Box& q) const override {
    PRIVTREE_CHECK(state_.fitted);
    return grid_->Query(q);
  }

  std::vector<double> QueryBatch(std::span<const Box> queries) const override {
    PRIVTREE_CHECK(state_.fitted);
    return grid_->QueryBatch(queries);
  }

  MethodMetadata Metadata() const override {
    return {"ag", state_.dim, state_.epsilon_spent,
            grid_ ? grid_->TotalCells() : 0, 2};
  }

  Status Save(std::ostream& out) const override {
    if (!state_.fitted) return NotFitted();
    std::string payload;
    ByteWriter w(&payload);
    WriteAdaptiveGridBodyCompressed(w, *grid_);
    return SaveSynopsis(out, payload);
  }

 private:
  static AdaptiveGridOptions ParseOptions(const MethodOptions& o) {
    RequireKnownKeys(o, {"alpha", "c1", "c2", "cell_scale"});
    AdaptiveGridOptions out;
    out.alpha = o.GetDouble("alpha", out.alpha);
    out.c1 = o.GetDouble("c1", out.c1);
    out.c2 = o.GetDouble("c2", out.c2);
    out.cell_scale = o.GetDouble("cell_scale", out.cell_scale);
    return out;
  }

  AdaptiveGridOptions options_;
  std::optional<AdaptiveGrid> grid_;
};

class HierarchyMethod final : public BuiltinMethod {
 public:
  explicit HierarchyMethod(const MethodOptions& o)
      : BuiltinMethod(o), options_(ParseOptions(o)) {}

  HierarchyMethod(const SynopsisEnvelope& env, HierarchyHistogram hier)
      : BuiltinMethod(env),
        options_(ParseOptions(MethodOptions::Parse(env.options_text))) {
    hier_.emplace(std::move(hier));
  }

  void Fit(const PointSet& points, const Box& domain, PrivacyBudget& budget,
           Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    state_ = {true, domain.dim(), budget.SpendRemaining()};
    hier_.emplace(points, domain, state_.epsilon_spent, options_, rng);
  }

  double Query(const Box& q) const override {
    PRIVTREE_CHECK(state_.fitted);
    return hier_->Query(q);
  }

  std::vector<double> QueryBatch(std::span<const Box> queries) const override {
    PRIVTREE_CHECK(state_.fitted);
    return hier_->QueryBatch(queries);
  }

  MethodMetadata Metadata() const override {
    return {"hierarchy", state_.dim, state_.epsilon_spent,
            hier_ ? hier_->TotalCounts() : 0,
            hier_ ? hier_->height() - 1 : 0};
  }

  Status Save(std::ostream& out) const override {
    if (!state_.fitted) return NotFitted();
    std::string payload;
    ByteWriter w(&payload);
    WriteBox(w, hier_->domain());
    w.I32(hier_->height());
    w.I64(hier_->branching());
    w.U32(hier_->consistent() ? 1 : 0);
    const auto& levels = hier_->level_counts();
    for (std::int32_t l = 1; l < hier_->height(); ++l) {
      w.F64Span(levels[l]);
    }
    return SaveSynopsis(out, payload);
  }

 private:
  static HierarchyOptions ParseOptions(const MethodOptions& o) {
    RequireKnownKeys(o, {"height", "target_leaf_resolution",
                         "constrained_inference"});
    HierarchyOptions out;
    out.height = static_cast<std::int32_t>(o.GetInt("height", out.height));
    out.target_leaf_resolution =
        o.GetInt("target_leaf_resolution", out.target_leaf_resolution);
    out.constrained_inference =
        o.GetBool("constrained_inference", out.constrained_inference);
    return out;
  }

  HierarchyOptions options_;
  std::optional<HierarchyHistogram> hier_;
};

template <typename T>
MethodFactory FactoryFor() {
  return [](const MethodOptions& options) -> std::unique_ptr<Method> {
    return std::make_unique<T>(options);
  };
}

MethodFactory TreeFactory(std::string name, TreeMethod::ParseFn parse) {
  return [name, parse](
             const MethodOptions& options) -> std::unique_ptr<Method> {
    return std::make_unique<TreeMethod>(name, parse, options);
  };
}

/// The tree family's loader: v3 payloads carry the compressed tree body,
/// v2 the raw node array; both restore the same tree bit for bit.
Result<std::unique_ptr<Method>> LoadTree(const SynopsisEnvelope& env,
                                         ByteReader& payload) {
  auto tree = env.format_version >= kSynopsisFormatVersion
                  ? ReadTreeBodyV3(payload, env.metadata.dim)
                  : ReadTreeBodyV2(payload, env.metadata.dim);
  if (!tree.ok()) return tree.status();
  return std::unique_ptr<Method>(
      std::make_unique<TreeMethod>(env, std::move(tree).value()));
}

/// Loader for the flat-grid family (UG, DAWA, Privelet*).
template <typename T>
MethodLoader GridLoaderFor() {
  return [](const SynopsisEnvelope& env,
            ByteReader& payload) -> Result<std::unique_ptr<Method>> {
    auto grid = ReadGridHistogram(payload, env.metadata.dim);
    if (!grid.ok()) return grid.status();
    return std::unique_ptr<Method>(
        std::make_unique<T>(env, std::move(grid).value()));
  };
}

/// The v2 AG payload: one full WriteGridHistogram record per level-1 cell.
Result<std::unique_ptr<Method>> LoadAdaptiveGridV2(const SynopsisEnvelope& env,
                                                   ByteReader& payload) {
  std::int64_t m1 = 0;
  if (!payload.I64(&m1) || m1 < 1) {
    return Status::InvalidArgument("ag payload: bad level-1 granularity");
  }
  Box domain;
  std::string box_error;
  if (!ReadBox(payload, 2, &domain, &box_error)) {
    return Status::InvalidArgument("ag payload: " + box_error);
  }
  const std::uint64_t cells =
      static_cast<std::uint64_t>(m1) * static_cast<std::uint64_t>(m1);
  std::vector<double> level1;
  if (m1 > 1'000'000 || !payload.F64Vec(cells, &level1)) {
    return Status::InvalidArgument("ag payload: truncated level-1 counts");
  }
  std::vector<GridHistogram> level2;
  for (std::uint64_t i = 0; i < cells; ++i) {
    auto sub = ReadGridHistogram(payload, 2);
    if (!sub.ok()) return sub.status();
    level2.push_back(std::move(sub).value());
  }
  return std::unique_ptr<Method>(std::make_unique<AdaptiveGridMethod>(
      env, AdaptiveGrid(std::move(domain), m1, std::move(level1),
                        std::move(level2))));
}

Result<std::unique_ptr<Method>> LoadAdaptiveGrid(const SynopsisEnvelope& env,
                                                 ByteReader& payload) {
  if (env.format_version < kSynopsisFormatVersion) {
    return LoadAdaptiveGridV2(env, payload);
  }
  auto grid = ReadAdaptiveGridBodyCompressed(payload);
  if (!grid.ok()) return grid.status();
  return std::unique_ptr<Method>(
      std::make_unique<AdaptiveGridMethod>(env, std::move(grid).value()));
}

Result<std::unique_ptr<Method>> LoadHierarchy(const SynopsisEnvelope& env,
                                              ByteReader& payload) {
  Box domain;
  std::string box_error;
  if (!ReadBox(payload, env.metadata.dim, &domain, &box_error)) {
    return Status::InvalidArgument("hierarchy payload: " + box_error);
  }
  std::int32_t height = 0;
  std::int64_t branching = 0;
  std::uint32_t consistent = 0;
  if (!payload.I32(&height) || !payload.I64(&branching) ||
      !payload.U32(&consistent) || height < 2 || height > 64 ||
      branching < 2 || branching > (std::int64_t{1} << 20) ||
      consistent > 1) {
    return Status::InvalidArgument("hierarchy payload: bad header");
  }
  const std::size_t d = env.metadata.dim;
  std::vector<std::vector<double>> counts(height);
  std::uint64_t res = 1;
  for (std::int32_t l = 1; l < height; ++l) {
    // res^d cells must fit in the bytes actually present, checked with
    // overflow-safe arithmetic so a corrupted header can never force a huge
    // allocation.
    bool too_big =
        res > payload.remaining() / 8 / static_cast<std::uint64_t>(branching);
    if (!too_big) res *= static_cast<std::uint64_t>(branching);
    std::uint64_t cells = 1;
    for (std::size_t j = 0; !too_big && j < d; ++j) {
      if (cells > payload.remaining() / 8 / res) {
        too_big = true;
        break;
      }
      cells *= res;
    }
    if (too_big || !payload.F64Vec(cells, &counts[l])) {
      return Status::InvalidArgument("hierarchy payload: truncated level " +
                                     std::to_string(l));
    }
  }
  return std::unique_ptr<Method>(std::make_unique<HierarchyMethod>(
      env, HierarchyHistogram::Restore(std::move(domain), height, branching,
                                       std::move(counts), consistent == 1)));
}

}  // namespace

std::unique_ptr<Method> WrapSpatialHistogram(SpatialHistogram hist,
                                             double epsilon_spent) {
  PRIVTREE_CHECK(!hist.tree.empty());
  SynopsisEnvelope env;
  env.metadata.method = "privtree";
  env.metadata.dim = hist.tree.node(0).domain.box.dim();
  env.metadata.epsilon_spent = epsilon_spent;
  return std::make_unique<TreeMethod>(
      env, TreeBatchIndex(hist.tree, std::move(hist.count), CellBox));
}

PrivTreeHistogramOptions ParsePrivTreeHistogramOptions(
    const MethodOptions& options) {
  RequireKnownKeys(options, {"dims_per_split", "tree_budget_fraction",
                             "max_depth", "count_quantum"});
  PrivTreeHistogramOptions out;
  out.dims_per_split =
      static_cast<int>(options.GetInt("dims_per_split", out.dims_per_split));
  out.tree_budget_fraction =
      options.GetDouble("tree_budget_fraction", out.tree_budget_fraction);
  out.max_depth =
      static_cast<std::int32_t>(options.GetInt("max_depth", out.max_depth));
  return out;
}

SimpleTreeHistogramOptions ParseSimpleTreeHistogramOptions(
    const MethodOptions& options) {
  RequireKnownKeys(options,
                   {"dims_per_split", "height", "theta", "count_quantum"});
  SimpleTreeHistogramOptions out;
  out.dims_per_split =
      static_cast<int>(options.GetInt("dims_per_split", out.dims_per_split));
  out.height = static_cast<std::int32_t>(options.GetInt("height", out.height));
  out.theta = options.GetDouble("theta", out.theta);
  return out;
}

void RegisterBuiltinMethods(MethodRegistry& registry) {
  using enum OptionType;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The per-key ranges mirror the contract checks the fitters enforce
  // (fractions in (0,1), heights/branchings with hard minima) plus sanity
  // caps on size-driving knobs, so user-facing surfaces can reject an
  // out-of-range value with a clean error before an aborting
  // PRIVTREE_CHECK — a requirement once specs arrive over a socket.
  registry.Register(
      "privtree",
      {.description = "PrivTree decomposition + noisy leaf counts (Sec. 3.4)",
       .display = "PrivTree",
       // dims_per_split <= 0 means "use the default"; the upper bound is
       // the global dimensionality cap (ValidateSpec additionally checks
       // it against the served dataset's dim).
       .allowed_keys = {{"dims_per_split", kInt, 0, 8},
                        {"tree_budget_fraction", kDouble, 0, 1, true},
                        {"max_depth", kInt, 1, 4096},
                        {"count_quantum", kDouble, 0, kInf}},
       .max_dim = MortonIndex::kMaxDim,
       .factory = TreeFactory("privtree", PrivTreeFit),
       .loader = LoadTree});
  registry.Register(
      "simpletree",
      {.description = "fixed-height noisy quadtree baseline (Algorithm 1)",
       .display = "SimpleTree",
       .allowed_keys = {{"dims_per_split", kInt, 0, 8},
                        {"height", kInt, 1, 64},
                        {"theta", kDouble},
                        {"count_quantum", kDouble, 0, kInf}},
       .max_dim = MortonIndex::kMaxDim,
       .factory = TreeFactory("simpletree", SimpleTreeFit),
       .loader = LoadTree});
  registry.Register(
      "ug",
      {.description = "uniform grid (Qardaji et al., ICDE 2013)",
       .display = "UG",
       .allowed_keys = {{"cell_scale", kDouble, 0, 1024, true},
                        {"c0", kDouble, 0, kInf, true}},
       .factory = FactoryFor<UniformGridMethod>(),
       .loader = GridLoaderFor<UniformGridMethod>()});
  registry.Register(
      "ag",
      {.description = "two-level adaptive grid, 2-d only (ICDE 2013)",
       .display = "AG",
       .allowed_keys = {{"alpha", kDouble, 0, 1, true},
                        {"c1", kDouble, 0, kInf, true},
                        {"c2", kDouble, 0, kInf, true},
                        {"cell_scale", kDouble, 0, 1024, true}},
       .required_dim = 2,
       .factory = FactoryFor<AdaptiveGridMethod>(),
       .loader = LoadAdaptiveGrid});
  registry.Register(
      "kdtree",
      {.description = "private k-d tree with noisy-median splits ([51])",
       .display = "KD",
       .allowed_keys = {{"height", kInt, 1, 64},
                        {"split_budget_fraction", kDouble, 0, 1, true},
                        {"count_quantum", kDouble, 0, kInf}},
       .factory = TreeFactory("kdtree", KdTreeFit),
       .loader = LoadTree});
  registry.Register(
      "dawa",
      {.description = "data-aware partition + hierarchical measurement "
                      "(Li et al., PVLDB 2014)",
       .display = "DAWA",
       .allowed_keys = {{"target_total_cells", kInt, 1, 1 << 24},
                        {"partition_budget_fraction", kDouble, 0, 1, true},
                        {"measure_branching", kInt, 2, 1024}},
       .factory = FactoryFor<DawaMethod>(),
       .loader = GridLoaderFor<DawaMethod>()});
  registry.Register(
      "hierarchy",
      {.description = "complete noisy-count tree with constrained inference "
                      "(Qardaji et al., PVLDB 2013)",
       .display = "Hierarchy",
       .allowed_keys = {{"height", kInt, 2, 64},
                        {"target_leaf_resolution", kInt, 2, 1 << 20},
                        {"constrained_inference", kBool}},
       // The complete tree's leaf level grows as resolution^d; the paper
       // evaluates it on 2-d data only.
       .max_practical_dim = 2,
       .factory = FactoryFor<HierarchyMethod>(),
       .loader = LoadHierarchy});
  registry.Register(
      "wavelet",
      {.description = "Privelet*: noisy Haar coefficients (Xiao et al., "
                      "TKDE 2011)",
       .display = "Privelet*",
       .allowed_keys = {{"target_total_cells", kInt, 1, 1 << 24}},
       .factory = FactoryFor<WaveletMethod>(),
       .loader = GridLoaderFor<WaveletMethod>()});
  // The sequence pipeline of Sections 4–5 registers alongside the spatial
  // backends, so every registry-driven surface sees both kinds.
  RegisterSequenceMethods(registry);
}

}  // namespace privtree::release
