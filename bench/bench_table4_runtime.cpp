// Table 4: running time of PrivTree (seconds) on all six datasets as a
// function of ε.  The paper's shape to check: road and msnbc are the
// slowest (largest cardinality), and the cost *increases* with ε because a
// smaller ε means a larger bias term and therefore earlier stopping.
//
// Also reports the mean output tree size per (dataset, ε) — the quantity
// Lemma 3.2 bounds by E[|T|] <= 2|T*| — the aggregate fit throughput of
// each sweep, and a per-method companion: fit time and synopsis size of
// every registered method of each kind at ε = 1.  The whole (ε × rep) fit
// sweep — spatial *and* sequence — is sharded through one
// serve::ParallelRunner over a release::Dataset, so there is no
// per-dataset special case anywhere: every name resolves through one
// descriptor table (unknown names fail loudly), every fit goes through the
// registry, and the released synopses are bit-for-bit independent of the
// thread count (each job carries its own pre-forked Rng).
//
//   bench_table4_runtime [--threads=N] [--json[=PATH]] [--datasets=a,b,...]
//
// --json writes machine-readable per-dataset and per-method fit times so
// successive PRs can track a BENCH_*.json trajectory; a bare --json
// defaults to BENCH_table4.json for the committed repo-root snapshot.
// Serving is measured end to end by servebench, chaos by chaos_test, and
// the batch-query kernels by bench_micro.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_seq_common.h"
#include "eval/table.h"
#include "release/dataset.h"
#include "serve/parallel_runner.h"
#include "serve/thread_pool.h"

namespace privtree {
namespace bench {
namespace {

double Seconds(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// One benchmarked dataset behind the uniform release::Dataset view: the
/// descriptor both sweeps work from, with no per-name branching outside
/// MakeDatasetHolder.
struct DatasetHolder {
  std::string name;
  release::DatasetKind kind = release::DatasetKind::kSpatial;
  std::optional<SpatialCase> spatial;
  std::optional<SequenceCase> sequence;

  release::Dataset View() const {
    return kind == release::DatasetKind::kSpatial
               ? release::Dataset(spatial->points, spatial->domain)
               : release::Dataset(sequence->truncated);
  }
  /// The Table-4 method for this kind: the paper's PrivTree, over points
  /// or over sequences.
  std::string FitMethod() const {
    return kind == release::DatasetKind::kSpatial ? "privtree"
                                                  : "pst_privtree";
  }
  release::MethodOptions FitOptions() const {
    release::MethodOptions options;
    if (kind == release::DatasetKind::kSequence) {
      options.Set("l_top", std::to_string(sequence->l_top));
    }
    return options;
  }
  /// Distinct master seeds per kind (0x7E57 spatial — unchanged from the
  /// pre-registry bench, so spatial rows stay comparable across the JSON
  /// trajectory — and 0x7E58 sequence).
  std::uint64_t FitSeed() const {
    return kind == release::DatasetKind::kSpatial ? 0x7E57 : 0x7E58;
  }
};

const std::vector<std::string>& SpatialNames() {
  static const std::vector<std::string> names = {"road", "gowalla", "nyc",
                                                 "beijing"};
  return names;
}

const std::vector<std::string>& SequenceNames() {
  static const std::vector<std::string> names = {"mooc", "msnbc"};
  return names;
}

/// Resolves a dataset name through the descriptor table; unknown names are
/// a usage error, reported loudly (never a silently skipped row).
DatasetHolder MakeDatasetHolder(const std::string& name) {
  DatasetHolder holder;
  holder.name = name;
  const auto& spatial = SpatialNames();
  const auto& sequences = SequenceNames();
  if (std::find(spatial.begin(), spatial.end(), name) != spatial.end()) {
    holder.kind = release::DatasetKind::kSpatial;
    holder.spatial.emplace(MakeSpatialCase(name, /*queries_per_band=*/0));
    return holder;
  }
  if (std::find(sequences.begin(), sequences.end(), name) !=
      sequences.end()) {
    holder.kind = release::DatasetKind::kSequence;
    holder.sequence.emplace(MakeSequenceCase(name));
    return holder;
  }
  std::fprintf(stderr,
               "error: unknown dataset \"%s\" (spatial: road, gowalla, "
               "nyc, beijing; sequence: mooc, msnbc)\n",
               name.c_str());
  std::exit(2);
}

/// Per-dataset sweep results, for the tables and the JSON trail.
struct DatasetPerf {
  std::string dataset;
  std::string kind;  // "spatial" or "sequence".
  std::vector<double> fit_seconds;     // Mean per ε, in PaperEpsilons order.
  std::vector<double> synopsis_sizes;  // Mean per ε.
  std::size_t jobs = 0;                // ε grid × reps.
  double wall_seconds = 0.0;           // Aggregate wall clock of the sweep.

  double FitsPerSecond() const {
    return wall_seconds > 0.0 ? static_cast<double>(jobs) / wall_seconds
                              : 0.0;
  }
};

/// Per-method fit results on one dataset at ε = 1.
struct MethodPerf {
  std::string method;
  double fit_seconds_mean = 0.0;
  double synopsis_size_mean = 0.0;
};

/// The Table-4 fit sweep — one code path for both kinds: per-(ε, rep) jobs
/// with pre-forked Rngs, sharded by the runner over the registry method.
DatasetPerf RunFitSweep(serve::ThreadPool& pool, const DatasetHolder& h) {
  const std::size_t reps = Repetitions(3);
  const serve::ParallelRunner runner(pool);  // Uncached: this bench times fits.

  std::vector<serve::FitJob> jobs;
  jobs.reserve(PaperEpsilons().size() * reps);
  for (double epsilon : PaperEpsilons()) {
    Rng master(h.FitSeed());
    for (std::size_t rep = 0; rep < reps; ++rep) {
      jobs.push_back({h.FitMethod(), h.FitOptions(), epsilon, master.Fork()});
    }
  }

  DatasetPerf perf;
  perf.dataset = h.name;
  perf.kind = std::string(release::DatasetKindName(h.kind));
  perf.jobs = jobs.size();
  std::vector<serve::FitResult> results;
  perf.wall_seconds = Seconds([&] {
    results = runner.FitAllTimed(h.View(), std::move(jobs));
  });

  for (std::size_t e = 0; e < PaperEpsilons().size(); ++e) {
    double total_time = 0.0, total_nodes = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const serve::FitResult& r = results[e * reps + rep];
      total_time += r.fit_seconds;
      total_nodes += static_cast<double>(r.method->Metadata().synopsis_size);
    }
    perf.fit_seconds.push_back(total_time / static_cast<double>(reps));
    perf.synopsis_sizes.push_back(total_nodes / static_cast<double>(reps));
  }
  return perf;
}

/// Companion sweep: fit time and synopsis size of every registered method
/// of the dataset's kind at ε = 1, one row per registry entry.
std::vector<MethodPerf> RunRegistrySweep(serve::ThreadPool& pool,
                                         const DatasetHolder& h) {
  const std::size_t reps = Repetitions(3);
  const double epsilon = 1.0;
  const serve::ParallelRunner runner(pool);  // Uncached: this bench times fits.

  const std::vector<MethodSpec> specs =
      h.kind == release::DatasetKind::kSpatial
          ? AllRegisteredSpecs(h.spatial->points.dim(), DiscretizationCells())
          : SequenceSpecs(h.sequence->l_top);

  std::vector<MethodPerf> out;
  for (const MethodSpec& spec : specs) {
    Rng master(0x7E59 ^ std::hash<std::string>{}(spec.name));
    std::vector<serve::FitJob> jobs;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      jobs.push_back({spec.name, spec.options, epsilon, master.Fork()});
    }
    MethodPerf perf;
    perf.method = spec.name;
    for (const serve::FitResult& r :
         runner.FitAllTimed(h.View(), std::move(jobs))) {
      perf.fit_seconds_mean += r.fit_seconds;
      perf.synopsis_size_mean +=
          static_cast<double>(r.method->Metadata().synopsis_size);
    }
    perf.fit_seconds_mean /= static_cast<double>(reps);
    perf.synopsis_size_mean /= static_cast<double>(reps);
    out.push_back(perf);
  }
  return out;
}

/// One `[a, b, ...]` JSON array of doubles.
void WriteArrayJson(std::FILE* f, const std::vector<double>& values,
                    const char* format) {
  std::fprintf(f, "[");
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) std::fprintf(f, ", ");
    std::fprintf(f, format, values[i]);
  }
  std::fprintf(f, "]");
}

void WriteSweepJson(std::FILE* f, const char* key, const std::string& dataset,
                    const std::vector<MethodPerf>& methods) {
  std::fprintf(f,
               "  \"%s\": {\"dataset\": \"%s\", \"epsilon\": 1, "
               "\"methods\": [\n",
               key, dataset.c_str());
  for (std::size_t i = 0; i < methods.size(); ++i) {
    const MethodPerf& m = methods[i];
    std::fprintf(f,
                 "    {\"method\": \"%s\", \"fit_seconds_mean\": %.6g, "
                 "\"synopsis_size_mean\": %.6g}%s\n",
                 m.method.c_str(), m.fit_seconds_mean, m.synopsis_size_mean,
                 i + 1 < methods.size() ? "," : "");
  }
  std::fprintf(f, "  ]}");
}

void WriteJson(const std::string& path, std::size_t threads, std::size_t reps,
               const std::vector<DatasetPerf>& datasets,
               const std::string& sweep_dataset,
               const std::vector<MethodPerf>& methods,
               const std::string& seq_sweep_dataset,
               const std::vector<MethodPerf>& seq_methods) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"threads\": %zu,\n  \"reps\": %zu,\n", threads, reps);
  std::fprintf(f, "  \"paper_scale\": %s,\n", PaperScale() ? "true" : "false");
  std::fprintf(f, "  \"table4\": [\n");
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    const DatasetPerf& d = datasets[i];
    std::fprintf(f, "    {\"dataset\": \"%s\", \"kind\": \"%s\",\n",
                 d.dataset.c_str(), d.kind.c_str());
    std::fprintf(f, "     \"epsilons\": ");
    WriteArrayJson(f, PaperEpsilons(), "%g");
    std::fprintf(f, ",\n     \"fit_seconds_mean\": ");
    WriteArrayJson(f, d.fit_seconds, "%.6g");
    std::fprintf(f, ",\n     \"synopsis_size_mean\": ");
    WriteArrayJson(f, d.synopsis_sizes, "%.6g");
    std::fprintf(f,
                 ",\n     \"fit_jobs\": %zu, \"fit_wall_seconds\": %.6g, "
                 "\"fits_per_second\": %.6g}%s\n",
                 d.jobs, d.wall_seconds, d.FitsPerSecond(),
                 i + 1 < datasets.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  WriteSweepJson(f, "registry_sweep", sweep_dataset, methods);
  std::fprintf(f, ",\n");
  WriteSweepJson(f, "sequence_sweep", seq_sweep_dataset, seq_methods);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace privtree

int main(int argc, char** argv) {
  using privtree::FormatCell;
  using privtree::TablePrinter;
  using privtree::bench::DatasetHolder;
  using privtree::bench::DatasetPerf;
  using privtree::bench::MethodPerf;

  std::size_t threads = privtree::serve::DefaultThreadCount();
  std::string json_path;
  std::vector<std::string> datasets = {"road", "gowalla", "nyc",
                                       "beijing", "mooc", "msnbc"};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<std::size_t>(
          std::atol(arg.c_str() + std::strlen("--threads=")));
    } else if (arg == "--json") {
      json_path = "BENCH_table4.json";  // The committed repo-root snapshot.
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json="));
    } else if (arg.rfind("--datasets=", 0) == 0) {
      datasets.clear();
      std::string rest = arg.substr(std::strlen("--datasets="));
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        datasets.push_back(rest.substr(0, comma));
        if (comma == std::string::npos) break;
        rest.erase(0, comma + 1);
      }
    } else {
      const bool help = arg == "--help";
      std::fprintf(help ? stdout : stderr,
                   "usage: %s [--threads=N] [--json[=PATH]] "
                   "[--datasets=a,b,...]\n",
                   argv[0]);
      return help ? 0 : 2;
    }
  }
  privtree::serve::SetDefaultThreadCount(threads);
  privtree::serve::ThreadPool pool(threads);

  std::printf(
      "Reproduction of Table 4 (PrivTree, SIGMOD 2016): PrivTree running\n"
      "time in seconds; larger epsilon => deeper trees => more time.\n"
      "Fit sweep sharded across %zu thread(s); every dataset — spatial and\n"
      "sequence — fits through the release registry.\n",
      pool.worker_count());

  std::vector<std::string> columns;
  for (double epsilon : privtree::PaperEpsilons()) {
    columns.push_back("eps=" + FormatCell(epsilon));
  }
  TablePrinter time_table("Table 4: PrivTree running time (seconds)",
                          "dataset", columns);
  TablePrinter size_table("Companion: mean output tree size (nodes)",
                          "dataset", columns);
  TablePrinter agg_table("Companion: aggregate fit throughput", "dataset",
                         {"jobs", "wall s", "fits/s"});

  std::vector<DatasetPerf> perfs;
  std::string sweep_dataset, seq_sweep_dataset;
  std::vector<MethodPerf> methods, seq_methods;
  for (const std::string& name : datasets) {
    const DatasetHolder holder = privtree::bench::MakeDatasetHolder(name);
    DatasetPerf perf = privtree::bench::RunFitSweep(pool, holder);
    time_table.AddRow(name, perf.fit_seconds);
    size_table.AddRow(name, perf.synopsis_sizes);
    agg_table.AddRow(name, {static_cast<double>(perf.jobs), perf.wall_seconds,
                            perf.FitsPerSecond()});
    // One registry sweep per kind, on the first dataset of that kind.
    const bool spatial =
        holder.kind == privtree::release::DatasetKind::kSpatial;
    if (spatial && sweep_dataset.empty()) {
      sweep_dataset = name;
      methods = privtree::bench::RunRegistrySweep(pool, holder);
    } else if (!spatial && seq_sweep_dataset.empty()) {
      seq_sweep_dataset = name;
      seq_methods = privtree::bench::RunRegistrySweep(pool, holder);
    }
    perfs.push_back(std::move(perf));
  }
  time_table.Print();
  size_table.Print();
  agg_table.Print();

  const auto print_sweep = [](const std::string& dataset,
                              const std::vector<MethodPerf>& rows) {
    if (dataset.empty()) return;
    TablePrinter sweep_table(
        "Companion: registry sweep on " + dataset + " (eps=1): fit time",
        "method", {"fit s", "synopsis"});
    for (const MethodPerf& m : rows) {
      sweep_table.AddRow(m.method, {m.fit_seconds_mean, m.synopsis_size_mean});
    }
    sweep_table.Print();
  };
  print_sweep(sweep_dataset, methods);
  print_sweep(seq_sweep_dataset, seq_methods);

  if (!json_path.empty()) {
    privtree::bench::WriteJson(json_path, pool.worker_count(),
                               privtree::Repetitions(3), perfs, sweep_dataset,
                               methods, seq_sweep_dataset, seq_methods);
  }
  return 0;
}
