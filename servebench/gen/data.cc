// Seeded tenants, query batches and exact answers.
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "data/csv.h"
#include "data/seq_gen.h"
#include "data/spatial_gen.h"
#include "dp/rng.h"
#include "eval/metrics.h"
#include "eval/workload.h"
#include "release/dataset.h"

namespace servebench {

namespace {

/// Tenant sizes: road at a tenth of the paper's cardinality (a PrivTree fit
/// takes tens of milliseconds), the others at paper scale.
struct TenantShape {
  const char* name;
  bool sequence;
  std::size_t dim;
  std::size_t records;
};

constexpr TenantShape kShapes[] = {
    {"road", false, 2, privtree::kRoadCardinality / 10},
    {"gowalla", false, 2, privtree::kGowallaCardinality},
    {"nyc", false, 4, privtree::kNycCardinality},
    {"mooc", true, privtree::kMoocAlphabet, privtree::kMoocCardinality},
};

std::uint64_t NameStream(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h | 1;
}

}  // namespace

std::string Tenant::DataFlag() const {
  return "--data=" + name + ":" + csv_path + ":" +
         (sequence ? "seq:" + std::to_string(dim) : std::to_string(dim));
}

double Tenant::ExactCount(const privtree::Box& box) const {
  // Scan the copy sorted along the box's narrowest side, with the same
  // half-open test as Box::Contains.
  std::size_t axis = 0;
  for (std::size_t j = 1; j < dim; ++j) {
    if (box.Width(j) < box.Width(axis)) axis = j;
  }
  const std::vector<double>& rows = sorted[axis];
  const std::size_t n = rows.size() / dim;
  std::size_t lo = 0, hi = n;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (rows[mid * dim + axis] < box.lo(axis)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  std::size_t count = 0;
  for (std::size_t i = lo; i < n; ++i) {
    const double* p = &rows[i * dim];
    if (p[axis] >= box.hi(axis)) break;
    bool inside = true;
    for (std::size_t j = 0; j < dim; ++j) {
      inside &= p[j] >= box.lo(j) && p[j] < box.hi(j);
    }
    count += inside;
  }
  return static_cast<double>(count);
}

std::vector<Tenant> MakeTenants(const std::vector<std::string>& names,
                                std::uint64_t seed, const std::string& dir) {
  std::vector<Tenant> tenants;
  for (const std::string& name : names) {
    const TenantShape* shape = nullptr;
    for (const TenantShape& s : kShapes) {
      if (name == s.name) shape = &s;
    }
    if (shape == nullptr) Fail("unknown tenant " + name);
    Tenant t;
    t.name = name;
    t.sequence = shape->sequence;
    t.dim = shape->dim;
    t.csv_path = dir + "/" + name + ".csv";
    privtree::Rng rng(seed, NameStream(name));
    privtree::Status saved = privtree::Status::OK();
    if (t.sequence) {
      saved = privtree::SaveSequencesCsv(
          t.csv_path, privtree::GenerateMoocLike(shape->records, rng));
    } else if (name == "road") {
      saved = privtree::SavePointsCsv(
          t.csv_path, privtree::GenerateRoadLike(shape->records, rng));
    } else if (name == "gowalla") {
      saved = privtree::SavePointsCsv(
          t.csv_path, privtree::GenerateGowallaLike(shape->records, rng));
    } else {
      saved = privtree::SavePointsCsv(
          t.csv_path, privtree::GenerateNycLike(shape->records, rng));
    }
    if (!saved.ok()) Fail(t.csv_path + ": " + saved.ToString());
    // Read back what the server will read, so fingerprints and the oracle
    // match the served data bit for bit.
    if (t.sequence) {
      auto loaded = privtree::LoadSequencesCsv(t.csv_path, t.dim);
      if (!loaded.ok()) Fail(t.csv_path + ": " + loaded.status().ToString());
      t.sequences = std::make_unique<privtree::SequenceDataset>(
          std::move(loaded).value());
      t.fingerprint = privtree::release::Dataset(*t.sequences).Fingerprint();
    } else {
      auto loaded = privtree::LoadPointsCsv(t.csv_path, t.dim);
      if (!loaded.ok()) Fail(t.csv_path + ": " + loaded.status().ToString());
      t.points =
          std::make_unique<privtree::PointSet>(std::move(loaded).value());
      t.fingerprint = privtree::release::Dataset(
                          *t.points, privtree::Box::UnitCube(t.dim))
                          .Fingerprint();
      std::vector<std::uint32_t> order(t.points->size());
      for (std::size_t axis = 0; axis < t.dim; ++axis) {
        for (std::size_t i = 0; i < order.size(); ++i) {
          order[i] = static_cast<std::uint32_t>(i);
        }
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                    return t.points->point(a)[axis] <
                           t.points->point(b)[axis];
                  });
        std::vector<double> rows;
        rows.reserve(t.points->size() * t.dim);
        for (std::uint32_t i : order) {
          const auto p = t.points->point(i);
          rows.insert(rows.end(), p.begin(), p.end());
        }
        t.sorted.push_back(std::move(rows));
      }
    }
    tenants.push_back(std::move(t));
  }
  return tenants;
}

BatchPool MakeBatchPool(const Tenant& tenant, std::size_t batches,
                        std::size_t per_batch, std::uint64_t seed) {
  BatchPool pool;
  privtree::Rng rng(seed, NameStream(tenant.name + "/queries"));
  for (std::size_t b = 0; b < batches; ++b) {
    if (tenant.sequence) {
      std::vector<privtree::release::SequenceQuery> batch;
      for (std::size_t i = 0; i < per_batch; ++i) {
        std::vector<privtree::Symbol> symbols(1 + rng.NextBounded(3));
        for (auto& s : symbols) {
          s = static_cast<privtree::Symbol>(rng.NextBounded(tenant.dim));
        }
        batch.push_back(
            i % 2 == 0
                ? privtree::release::SequenceQuery::Frequency(symbols)
                : privtree::release::SequenceQuery::PrefixCount(symbols));
      }
      pool.seq.push_back(std::move(batch));
    } else {
      auto boxes = privtree::GenerateRangeQueries(
          privtree::Box::UnitCube(tenant.dim), per_batch,
          privtree::kMediumQueries, rng);
      std::vector<double> exact;
      exact.reserve(boxes.size());
      for (const auto& box : boxes) exact.push_back(tenant.ExactCount(box));
      pool.boxes.push_back(std::move(boxes));
      pool.exact.push_back(std::move(exact));
    }
  }
  return pool;
}

double MeanRelativeError(const std::vector<double>& answers,
                         const std::vector<double>& exact,
                         std::size_t cardinality) {
  const double smoothing = privtree::DefaultSmoothing(cardinality);
  double sum = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    sum += privtree::RelativeError(answers[i], exact[i], smoothing);
  }
  return answers.empty() ? 0 : sum / static_cast<double>(answers.size());
}

}  // namespace servebench
