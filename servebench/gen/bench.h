// Shared declarations of the serving load generator (servebench_gen).
//
// The generator drives one privtree_server process over its socket
// protocol and, in a traced run, replays the same seeded requests through
// the in-process layers below the socket.  It only calls public functions
// of the library; every span it records is taken around such a call.
#ifndef SERVEBENCH_GEN_BENCH_H_
#define SERVEBENCH_GEN_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dp/rng.h"
#include "release/method.h"
#include "release/sequence_query.h"
#include "seq/sequence.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/request.h"
#include "server/socket.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Prints "error: ..." to stderr and exits with status 2 (no result line).
[[noreturn]] void Fail(const std::string& message);

// ---------------------------------------------------------------- stats.cc

/// Nearest-rank quantile of `values` (copied, then sorted); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// The highest of p99.9, p99, p95, p90 and p50 that leaves at least ten
/// samples beyond it in `n` samples (0 when n < 20).
double TailLevel(std::size_t n);

/// Collects named metrics and prints them as the human-readable report
/// and as one JSON object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  /// One "metric <name> = <value> <unit> (n=<samples>)" line per metric.
  void Print() const;
  /// {"<name>": {"value": v, "unit": u, "n": samples}, ...}
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Entry> entries_;
};

/// Reads a number that follows `"key":` in a flat JSON text (first match
/// after `from`, which scopes the search to a sub-object); NaN when absent.
double JsonNumber(std::string_view json, std::string_view key,
                  std::string_view from = {});

// ----------------------------------------------------------------- data

/// One served dataset, generated from the run seed and written to CSV for
/// the server; `points`/`sequences` are read back from that CSV so the
/// in-process oracle sees exactly what the server loaded.
struct Tenant {
  std::string name;  ///< road, nyc, gowalla or mooc.
  bool sequence = false;
  std::size_t dim = 0;  ///< Spatial dim, or the alphabet size.
  std::string csv_path;
  std::unique_ptr<privtree::PointSet> points;
  std::unique_ptr<privtree::SequenceDataset> sequences;
  std::uint64_t fingerprint = 0;
  /// Per axis, every point's coordinates (row-major) sorted along that
  /// axis; exact range counts scan the narrowest side of a box.
  std::vector<std::vector<double>> sorted;

  std::string DataFlag() const;
  /// Exact number of points inside `box`.
  double ExactCount(const privtree::Box& box) const;
};

/// Generates the named tenants for `seed` into `dir`.
std::vector<Tenant> MakeTenants(const std::vector<std::string>& names,
                                std::uint64_t seed, const std::string& dir);

/// One release the workload serves: a FitSpec against one tenant.
struct Synopsis {
  std::string label;  ///< "<method>_<tenant>".
  std::size_t tenant = 0;
  privtree::server::FitSpec spec;
};

/// Query batches for one tenant: boxes for spatial tenants, sequence
/// queries for sequence tenants, plus the exact answers of box batches.
struct BatchPool {
  std::vector<std::vector<privtree::Box>> boxes;
  std::vector<std::vector<double>> exact;
  std::vector<std::vector<privtree::release::SequenceQuery>> seq;
};

BatchPool MakeBatchPool(const Tenant& tenant, std::size_t batches,
                        std::size_t per_batch, std::uint64_t seed);

/// Mean smoothed relative error (Δ = 0.1% of the cardinality, the paper's
/// metric) of `answers` against `exact`.
double MeanRelativeError(const std::vector<double>& answers,
                         const std::vector<double>& exact,
                         std::size_t cardinality);

// ----------------------------------------------------------------- wire.cc

/// A privtree_server child process.  Stop() shuts it down with a Shutdown
/// frame (SIGKILL after a grace period); the destructor kills it if it is
/// still running.  Either way the child is reaped.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, std::vector<std::string> args,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until the server logs its listening port (it loads every
  /// tenant first); fails the run when it exits or takes over 120 s.
  std::uint16_t WaitForPort();
  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMb() const;
  /// Sends Shutdown and reaps the process.
  void Stop();

 private:
  pid_t pid_ = -1;
  std::string log_path_;
  std::uint16_t port_ = 0;
};

/// Kills every server child still running (Fail calls it: std::exit runs
/// no destructors).
void KillServers();

/// Dials `port` with the client library (Hello handshake included).
privtree::server::Client ConnectClient(std::uint16_t port);
privtree::server::Connection DialRaw(std::uint16_t port);

/// Snapshot of the server's counters read through GetStats.
struct ServerCounters {
  double served_frames = 0, admitted = 0, shed = 0, expired = 0,
         coalesced = 0, hits = 0, misses = 0, evictions = 0,
         spill_writes = 0, spill_hits = 0, writeback_hits = 0,
         resident_bytes = 0, queue_wait_count = 0, queue_wait_sum_us = 0;
  ServerCounters operator-(const ServerCounters& base) const;
};
ServerCounters ReadCounters(privtree::server::Client& client);

/// One open-loop request: a prepared wire frame plus what to check.
struct PreparedFrame {
  std::string frame;     ///< u32 length + payload, ready to write.
  std::size_t key = 0;   ///< Index of the expected answers.
};

struct OpenLoopResult {
  std::vector<double> latency_ms;  ///< From intended send to reply.
  std::vector<double> late_ms;     ///< Generator's own send delay.
  std::size_t sent = 0;
  std::size_t failed = 0;     ///< ErrorReply or transport failures.
  std::size_t mismatched = 0; ///< Answers that differ from the oracle.
  bool backlog_exceeded = false;
  Clock::time_point start;  ///< Request i was due at start + i/rate.
};

/// Sends `frames[order[i]]` at `rate` per second on a fixed schedule
/// (request i is due at start + i/rate), round-robin over `conns`, and
/// receives replies on a second thread.  Stops sending when more than
/// `backlog_cap` requests are outstanding.  Every reply's answers are
/// compared bit for bit with `expected[frame.key]`.
OpenLoopResult RunOpenLoop(std::vector<privtree::server::Connection>& conns,
                           const std::vector<PreparedFrame>& frames,
                           const std::vector<std::size_t>& order,
                           double rate, std::size_t backlog_cap,
                           const std::vector<std::vector<double>>& expected);

/// Whole frame (u32 length prefix + payload) for a request payload.
std::string Frame(std::string_view payload);

// ------------------------------------------------------------ workloads.cc

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_binary;
  std::string workdir;
  std::string spans_path;
};

/// Runs the timed (untraced) workload; returns the process exit status.
int RunTimed(const Options& options);

/// Runs the layer-by-layer replay; returns the process exit status.
int RunTraced(const Options& options);

// The workload definitions both runs share.
struct WorkloadSpec {
  std::string name;
  bool open_loop = true;
  std::vector<std::string> tenants;
  std::vector<Synopsis> warm;   ///< Fitted during every set-up.
  std::vector<double> weights;  ///< Request share per warm synopsis.
  std::size_t boxes_per_request = 0;
  std::size_t seq_per_request = 0;
  std::size_t batches = 0;       ///< Distinct batches per tenant.
  double reference_rate = 0;     ///< Requests/s for p50/p99.
  std::vector<double> ladder;    ///< Rates for query_max_rps.
  double limit_ms = 0;           ///< p99 limit on the ladder.
  std::size_t connections = 4;  ///< Open loop only.
  std::size_t cache = 64;
  bool spill = false;
};

WorkloadSpec GetWorkload(const std::string& name);
std::vector<std::string> ServerArgs(const WorkloadSpec& spec,
                                    const std::vector<Tenant>& tenants,
                                    const std::string& workdir);
privtree::server::FitSpec Spec(const std::string& method, double epsilon,
                               std::uint64_t seed);
std::size_t TenantIndex(const std::vector<std::string>& tenants,
                        const std::string& name);

/// One server set-up: spawn, wait for the tenants to load, fit the warm
/// set one spec at a time; `seconds` ends at the last warm reply (or the
/// Hello reply when there is no warm set).
struct Setup {
  std::unique_ptr<ServerProcess> server;
  std::uint16_t port = 0;
  double seconds = 0;
  std::vector<double> fit_ms;  ///< Per warm synopsis, in warm order.
};
Setup SetUp(const Options& options, const WorkloadSpec& spec,
            const std::vector<Tenant>& tenants, int index);

/// The release an in-process ReleaseSession makes for `spec` — the oracle
/// every served answer must equal bit for bit.
std::unique_ptr<privtree::release::Method> OracleFit(
    const Tenant& tenant, const privtree::server::FitSpec& spec);

/// Everything a query workload sends: one prepared frame per (warm
/// synopsis, batch) pair and its expected answers.
struct QueryPlan {
  std::vector<PreparedFrame> frames;
  std::vector<std::vector<double>> expected;
  double rel_error = 0;                     ///< Request-weighted.
  std::size_t rel_error_samples = 0;
};
QueryPlan MakeQueryPlan(const WorkloadSpec& spec,
                        const std::vector<Tenant>& tenants,
                        const std::vector<BatchPool>& pools);
std::vector<BatchPool> MakePools(const WorkloadSpec& spec,
                                 const std::vector<Tenant>& tenants,
                                 std::uint64_t seed);
/// Offsets the warm specs' seeds by the run seed, so another run seed also
/// draws another noise stream.
void SeedWarmSpecs(WorkloadSpec& spec, std::uint64_t seed);
/// Draws `count` frame indices: synopsis by weight, batch uniformly.
std::vector<std::size_t> Schedule(const WorkloadSpec& spec, std::size_t count,
                                  privtree::Rng& rng);

void PrintCommon(const Options& options, const WorkloadSpec& spec,
                 const std::vector<Tenant>& tenants);
/// Prints the report and the RESULT line; returns the exit status.
int Finish(const Report& report, bool correct, std::size_t attempted,
           std::size_t failed);
/// The GetStats deltas must match the generator's own counts: every frame
/// it sent (plus the closing GetStats) and every engine request admitted.
bool CheckCounters(const ServerCounters& delta, std::size_t frames,
                   std::size_t engine_requests);

/// fit_churn's request kinds: (method, tenant) with a draw weight.
struct ChurnKind {
  const char* method;
  const char* tenant;
  double weight;
};
extern const ChurnKind kChurnKinds[4];

struct ChurnStep {
  std::size_t kind = 0;
  std::uint64_t seed = 0;
  std::size_t batch = 0;
  bool cold = false;  ///< First use of this key: misses cache and spill.
};

/// One analyst's seeded stream of (fit, query) steps.  About half of the
/// steps fit a key never seen before (a cold fit); the rest revisit an
/// earlier key, which is a cache hit or a rehydration from the spill
/// tier.  Analysts draw disjoint seeds, so no fit is shared between them.
class ChurnStream {
 public:
  ChurnStream(std::uint64_t run_seed, std::size_t analyst,
              std::size_t batches);
  ChurnStep Next();

 private:
  privtree::Rng rng_;
  std::uint64_t next_seed_;
  std::size_t batches_;
  std::vector<std::pair<std::size_t, std::uint64_t>> history_;
};

}  // namespace servebench

#endif  // SERVEBENCH_GEN_BENCH_H_
