// The three workloads and their timed (untraced) runs.
//
// Every timed run follows the same discipline: generate the tenants from
// the seed, set the server up several times (setup_s is the median), keep
// the last server, discard one warm-up interval, then measure.  Counts come
// from GetStats deltas taken around the measured interval.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "dp/rng.h"
#include "release/session.h"

namespace servebench {

namespace ps = privtree::server;
namespace rel = privtree::release;

ps::FitSpec Spec(const std::string& method, double epsilon,
                 std::uint64_t seed) {
  ps::FitSpec spec;
  spec.method = method;
  spec.epsilon = epsilon;
  spec.seed = seed;
  return spec;
}

std::size_t TenantIndex(const std::vector<std::string>& tenants,
                        const std::string& name) {
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i] == name) return i;
  }
  Fail("workload has no tenant " + name);
}

WorkloadSpec GetWorkload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "query_heavy" || name == "small_rpc") {
    // The same four warm synopses for both query workloads; only the batch
    // size and the rates differ, so one stresses the kernels and the other
    // the per-frame path.
    w.tenants = {"road", "nyc", "mooc"};
    w.warm = {{"privtree_road", 0, Spec("privtree", 1.0, 11)},
              {"privtree_nyc", 1, Spec("privtree", 1.0, 12)},
              {"ag_road", 0, Spec("ag", 1.0, 13)},
              {"pst_privtree_mooc", 2, Spec("pst_privtree", 1.0, 14)}};
    w.weights = {0.4, 0.3, 0.2, 0.1};
    w.connections = 4;
    w.cache = 64;
    if (name == "query_heavy") {
      w.boxes_per_request = 1024;
      w.seq_per_request = 256;
      w.batches = 8;
      w.reference_rate = 100;
      w.ladder = {150, 250, 350, 450, 550, 650, 750, 850};
      w.limit_ms = 50;
    } else {
      w.boxes_per_request = 8;
      w.seq_per_request = 8;
      w.batches = 1024;
      // At 2000/s the server's threads rarely sleep between frames; at
      // 500-1000/s every frame pays the wake-up of idle vCPUs, whose cost
      // swings from run to run on a shared host.
      w.reference_rate = 2000;
      w.ladder = {4000, 8000, 12000, 16000, 20000, 24000, 28000, 32000};
      w.limit_ms = 10;
    }
  } else if (name == "fit_churn") {
    // One warm synopsis per churn kind, with seeds outside the churn key
    // space, so set-up fits as much as the query workloads' does.
    w.open_loop = false;
    w.tenants = {"road", "gowalla", "mooc"};
    w.warm = {{"privtree_road", 0, Spec("privtree", 1.0, 21)},
              {"privtree_gowalla", 1, Spec("privtree", 1.0, 22)},
              {"pst_privtree_mooc", 2, Spec("pst_privtree", 1.0, 23)},
              {"ngram_mooc", 2, Spec("ngram", 1.0, 24)}};
    w.boxes_per_request = 256;
    w.seq_per_request = 64;
    w.batches = 4;
    w.cache = 8;
    w.spill = true;
  } else {
    Fail("unknown workload '" + name +
         "' (query_heavy, small_rpc or fit_churn)");
  }
  return w;
}

std::vector<std::string> ServerArgs(const WorkloadSpec& spec,
                                    const std::vector<Tenant>& tenants,
                                    const std::string& workdir) {
  // The control connection that reads GetStats idles through the whole
  // measured interval, so the idle reaper's timeout must outlast a run.
  std::vector<std::string> args = {"--port=0", "--threads=2",
                                   "--cache=" + std::to_string(spec.cache),
                                   "--max-queue=256",
                                   "--idle-timeout-ms=600000"};
  if (spec.spill) args.push_back("--spill-dir=" + workdir + "/spill");
  for (const Tenant& t : tenants) args.push_back(t.DataFlag());
  return args;
}

Setup SetUp(const Options& options, const WorkloadSpec& spec,
            const std::vector<Tenant>& tenants, int index) {
  const std::string spill = options.workdir + "/spill";
  if (spec.spill) {
    // Every set-up starts from an empty spill tier (no warm restart).
    std::error_code error;
    std::filesystem::remove_all(spill, error);
    if (error) Fail("cannot clear " + spill + ": " + error.message());
  }
  Setup s;
  const auto start = Clock::now();
  s.server = std::make_unique<ServerProcess>(
      options.server_binary, ServerArgs(spec, tenants, options.workdir),
      options.workdir + "/server-" + std::to_string(index) + ".log");
  s.port = s.server->WaitForPort();
  ps::Client client = ConnectClient(s.port);
  for (std::size_t i = 0; i < client.info().datasets.size(); ++i) {
    const auto& info = client.info().datasets[i];
    if (info.fingerprint != tenants[i].fingerprint) {
      Fail("server fingerprint of " + info.name + " differs from the CSV");
    }
  }
  for (const Synopsis& syn : spec.warm) {
    client.SelectDataset(tenants[syn.tenant].fingerprint);
    const auto t0 = Clock::now();
    auto fit = client.Fit(syn.spec);
    if (!fit.ok()) Fail("warm fit: " + fit.status().ToString());
    if (fit.value().cache_hit) Fail("warm fit was a cache hit");
    s.fit_ms.push_back(Millis(Clock::now() - t0));
  }
  s.seconds = Millis(Clock::now() - start) / 1000.0;
  return s;
}

std::unique_ptr<rel::Method> OracleFit(const Tenant& t,
                                       const ps::FitSpec& spec) {
  if (t.sequence) {
    rel::ReleaseSession session(*t.sequences, spec.epsilon, spec.seed);
    return session.ReleaseRemaining(spec.method, spec.options);
  }
  rel::ReleaseSession session(*t.points, privtree::Box::UnitCube(t.dim),
                              spec.epsilon, spec.seed);
  return session.ReleaseRemaining(spec.method, spec.options);
}

std::vector<std::size_t> Schedule(const WorkloadSpec& spec, std::size_t count,
                                  privtree::Rng& rng) {
  std::vector<std::size_t> order(count);
  for (std::size_t& o : order) {
    double u = rng.NextDouble();
    std::size_t syn = 0;
    while (syn + 1 < spec.weights.size() && u >= spec.weights[syn]) {
      u -= spec.weights[syn];
      ++syn;
    }
    o = syn * spec.batches + rng.NextBounded(spec.batches);
  }
  return order;
}

QueryPlan MakeQueryPlan(const WorkloadSpec& spec,
                        const std::vector<Tenant>& tenants,
                        const std::vector<BatchPool>& pools) {
  QueryPlan plan;
  double weighted = 0, weight = 0;
  for (std::size_t w = 0; w < spec.warm.size(); ++w) {
    const Synopsis& syn = spec.warm[w];
    const Tenant& t = tenants[syn.tenant];
    const BatchPool& pool = pools[syn.tenant];
    const auto method = OracleFit(t, syn.spec);
    double err = 0;
    for (std::size_t b = 0; b < spec.batches; ++b) {
      std::string payload;
      std::vector<double> answers;
      if (t.sequence) {
        ps::SeqQueryBatchRequest req{syn.spec, 0, t.fingerprint,
                                     pool.seq[b]};
        payload = ps::EncodeSeqQueryBatch(req);
        answers = method->QueryBatch(std::span(pool.seq[b]));
      } else {
        ps::QueryBatchRequest req{syn.spec, 0, t.fingerprint, pool.boxes[b]};
        payload = ps::EncodeQueryBatch(req);
        answers = method->QueryBatch(std::span(pool.boxes[b]));
        err += MeanRelativeError(answers, pool.exact[b], t.points->size());
        plan.rel_error_samples += answers.size();
      }
      plan.frames.push_back({Frame(payload), plan.expected.size()});
      plan.expected.push_back(std::move(answers));
    }
    if (!t.sequence) {
      weighted += spec.weights[w] * err / static_cast<double>(spec.batches);
      weight += spec.weights[w];
    }
  }
  plan.rel_error = weight > 0 ? weighted / weight : 0;
  return plan;
}

std::vector<BatchPool> MakePools(const WorkloadSpec& spec,
                                 const std::vector<Tenant>& tenants,
                                 std::uint64_t seed) {
  std::vector<BatchPool> pools;
  for (const Tenant& t : tenants) {
    // A 4-d box costs the tree sweep about four 2-d boxes, so 4-d batches
    // carry a quarter as many boxes.
    const std::size_t boxes =
        t.dim > 2 ? spec.boxes_per_request / 4 : spec.boxes_per_request;
    pools.push_back(MakeBatchPool(
        t, spec.batches, t.sequence ? spec.seq_per_request : boxes, seed));
  }
  return pools;
}

void SeedWarmSpecs(WorkloadSpec& spec, std::uint64_t seed) {
  for (Synopsis& syn : spec.warm) syn.spec.seed += seed * 1000;
}

void PrintCommon(const Options& o, const WorkloadSpec& spec,
                 const std::vector<Tenant>& tenants) {
  std::printf("workload %s seed %llu seconds %.0f trace %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::string flags;
  for (const std::string& a : ServerArgs(spec, tenants, "<run>")) {
    if (a.rfind("--data=", 0) == 0) continue;
    flags += (flags.empty() ? "" : " ") + a;
  }
  std::printf("server_flags %s\n", flags.c_str());
  for (const Tenant& t : tenants) {
    std::printf("tenant %-8s %s records=%zu dim=%zu\n", t.name.c_str(),
                t.sequence ? "sequence" : "spatial",
                t.sequence ? t.sequences->size() : t.points->size(), t.dim);
  }
}

int Finish(const Report& report, bool correct, std::size_t attempted,
           std::size_t failed) {
  report.Print();
  std::printf("RESULT {\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              report.Json().c_str());
  std::fflush(stdout);
  return 0;
}

bool CheckCounters(const ServerCounters& d, std::size_t frames,
                   std::size_t engine_requests) {
  // The closing GetStats frame is itself counted before it answers.
  const bool frames_ok = d.served_frames == static_cast<double>(frames + 1);
  const bool admitted_ok = d.admitted == static_cast<double>(engine_requests);
  std::printf("check served_frames delta %.0f want %zu: %s\n",
              d.served_frames, frames + 1, frames_ok ? "ok" : "MISMATCH");
  std::printf("check admitted delta %.0f want %zu: %s\n", d.admitted,
              engine_requests, admitted_ok ? "ok" : "MISMATCH");
  return frames_ok && admitted_ok;
}

namespace {

/// Adds "query_p<level>_ms"; fails the run when fewer than ten samples lie
/// beyond that percentile.
void AddQueryTail(Report& r, double level, const std::vector<double>& ms) {
  if (static_cast<double>(ms.size()) * (1 - level) < 10) {
    Fail("too few query samples for the tail");
  }
  char name[32];
  std::snprintf(name, sizeof(name), "query_p%g_ms", level * 100);
  r.Add(name, Quantile(ms, level), "ms", ms.size());
}

/// Set-up samples of one run.  Set-ups are spread over the run: most come
/// before the measured interval (the last of those is kept and measured),
/// the rest after it, so the medians see the host over the whole run.
struct SetupSamples {
  std::vector<double> seconds, fit_ms, seq_fit_ms;

  void Add(const Setup& s, const WorkloadSpec& spec,
           const std::vector<Tenant>& tenants) {
    seconds.push_back(s.seconds);
    for (std::size_t w = 0; w < spec.warm.size(); ++w) {
      (tenants[spec.warm[w].tenant].sequence ? seq_fit_ms : fit_ms)
          .push_back(s.fit_ms[w]);
    }
  }
};

/// Server set-ups per timed run, and how many of them follow the measured
/// interval.
constexpr int kSetups = 7;
constexpr int kSetupsAfter = 3;

Setup SetUpBefore(const Options& o, const WorkloadSpec& spec,
                  const std::vector<Tenant>& tenants, SetupSamples& samples) {
  Setup kept;
  for (int i = 0; i < kSetups - kSetupsAfter; ++i) {
    if (kept.server) kept.server->Stop();
    kept = SetUp(o, spec, tenants, i);
    samples.Add(kept, spec, tenants);
  }
  return kept;
}

void SetUpAfter(const Options& o, const WorkloadSpec& spec,
                const std::vector<Tenant>& tenants, SetupSamples& samples) {
  for (int i = kSetups - kSetupsAfter; i < kSetups; ++i) {
    Setup s = SetUp(o, spec, tenants, i);
    samples.Add(s, spec, tenants);
    s.server->Stop();
  }
}

int RunQueryWorkload(const Options& o, WorkloadSpec spec) {
  SeedWarmSpecs(spec, o.seed);
  const auto tenants = MakeTenants(spec.tenants, o.seed, o.workdir);
  PrintCommon(o, spec, tenants);
  const auto pools = MakePools(spec, tenants, o.seed);
  const QueryPlan plan = MakeQueryPlan(spec, tenants, pools);

  SetupSamples setups;
  Setup kept = SetUpBefore(o, spec, tenants, setups);
  ps::Client control = ConnectClient(kept.port);
  std::vector<ps::Connection> conns;
  for (std::size_t i = 0; i < spec.connections; ++i) {
    conns.push_back(DialRaw(kept.port));
  }

  privtree::Rng rng(o.seed, 0x5eed);
  const auto run = [&](double rate, double seconds) {
    const auto order = Schedule(
        spec, static_cast<std::size_t>(std::max(1.0, rate * seconds)), rng);
    // The backlog cap stops a rung far above the knee before the server's
    // admission queue (256 per tenant) would start shedding.
    return RunOpenLoop(conns, plan.frames, order, rate, 128, plan.expected);
  };

  run(spec.reference_rate, 1.0);  // Warm-up interval, discarded.
  const ServerCounters before = ReadCounters(control);

  std::size_t attempted = 0, failed = 0, mismatched = 0;
  const OpenLoopResult ref = run(spec.reference_rate, o.seconds * 0.6);
  attempted += ref.sent;
  failed += ref.failed;
  mismatched += ref.mismatched;

  double max_rps = 0;
  const double rung_seconds =
      o.seconds * 0.4 / static_cast<double>(spec.ladder.size());
  for (double rate : spec.ladder) {
    const OpenLoopResult rung = run(rate, rung_seconds);
    attempted += rung.sent;
    failed += rung.failed;
    mismatched += rung.mismatched;
    const double p99 = Quantile(rung.latency_ms, 0.99);
    const bool pass =
        rung.failed == 0 && !rung.backlog_exceeded && p99 <= spec.limit_ms;
    std::printf("ladder rate %6.0f/s sent %5zu p50 %8.3f ms p99 %8.3f ms "
                "late_p99 %6.3f ms backlog %s: %s\n",
                rate, rung.sent, Quantile(rung.latency_ms, 0.5), p99,
                Quantile(rung.late_ms, 0.99),
                rung.backlog_exceeded ? "grew" : "ok",
                pass ? "pass" : "fail");
    if (!pass) break;
    max_rps = rate;
  }
  const ServerCounters delta = ReadCounters(control) - before;
  const double rss = kept.server->PeakRssMb();
  const bool counters_ok = CheckCounters(delta, attempted, attempted);
  for (auto& c : conns) c.Close();
  kept.server->Stop();
  SetUpAfter(o, spec, tenants, setups);
  const auto& setup_s = setups.seconds;
  const auto& fit_ms = setups.fit_ms;
  const auto& seq_fit_ms = setups.seq_fit_ms;

  const double late_p99 = Quantile(ref.late_ms, 0.99);
  std::printf("check answers: %zu of %zu replies differ from the in-process "
              "ReleaseSession\n", mismatched, attempted);
  std::printf("generator late_p99 %.3f ms at the reference rate\n", late_p99);
  if (late_p99 > spec.limit_ms) {
    Fail("the generator fell behind its schedule; the run is not scored");
  }

  Report r;
  r.Add("setup_s", Quantile(setup_s, 0.5), "s", setup_s.size());
  r.Add("query_p50_ms", Quantile(ref.latency_ms, 0.5), "ms",
        ref.latency_ms.size());
  AddQueryTail(r, 0.99, ref.latency_ms);
  r.Add("fit_p50_ms", Quantile(fit_ms, 0.5), "ms", fit_ms.size());
  r.Add("seq_fit_p50_ms", Quantile(seq_fit_ms, 0.5), "ms", seq_fit_ms.size());
  r.Add("rel_error", plan.rel_error, "ratio", plan.rel_error_samples);
  r.Add("rss_mb", rss, "MiB", 1);
  r.Add("query_max_rps", max_rps, "1/s", spec.ladder.size());
  r.Add("error_rate",
        (static_cast<double>(failed) + delta.shed + delta.expired) /
            static_cast<double>(std::max<std::size_t>(1, attempted)),
        "ratio", attempted);
  r.Add("reference_rate", spec.reference_rate, "1/s", 1);
  r.Add("gen_late_p99_ms", late_p99, "ms", ref.late_ms.size());
  const bool correct = mismatched == 0 && failed == 0 && counters_ok &&
                       delta.shed == 0 && delta.expired == 0;
  return Finish(r, correct, attempted, failed + mismatched);
}

}  // namespace

// ------------------------------------------------------------- fit_churn

// One method-tenant pair takes most fits of each kind, so the fit medians
// fall inside one fit-time mode rather than between two.
const ChurnKind kChurnKinds[4] = {{"privtree", "road", 0.55},
                                  {"privtree", "gowalla", 0.15},
                                  {"pst_privtree", "mooc", 0.25},
                                  {"ngram", "mooc", 0.05}};

ChurnStream::ChurnStream(std::uint64_t run_seed, std::size_t analyst,
                         std::size_t batches)
    : rng_(run_seed, 0xc4a5 + analyst),
      next_seed_((run_seed + 1) * 1000000 + analyst * 100000 + 1),
      batches_(batches) {}

ChurnStep ChurnStream::Next() {
    ChurnStep s;
    if (history_.empty() || rng_.NextDouble() < 0.5) {
      double u = rng_.NextDouble();
      while (s.kind + 1 < std::size(kChurnKinds) &&
             u >= kChurnKinds[s.kind].weight) {
        u -= kChurnKinds[s.kind].weight;
        ++s.kind;
      }
      s.seed = next_seed_++;
      s.cold = true;
      history_.push_back({s.kind, s.seed});
    } else {
      const auto& h = history_[rng_.NextBounded(history_.size())];
      s.kind = h.first;
      s.seed = h.second;
    }
    s.batch = rng_.NextBounded(batches_);
    return s;
}

namespace {

struct ChurnSample {
  ps::FitSpec spec;
  std::size_t tenant = 0;
  std::size_t batch = 0;
  std::vector<double> answers;
};

struct AnalystResult {
  std::vector<double> fit_ms, seq_fit_ms, revisit_ms, query_ms;
  double rel_error_sum = 0;
  std::size_t rel_error_batches = 0, rel_error_samples = 0;
  std::size_t steps = 0, cold_spatial = 0, failed = 0;
  std::vector<ChurnSample> samples;
};

void RunAnalyst(ps::Client& client, ChurnStream& stream,
                const std::vector<Tenant>& tenants,
                const std::vector<std::string>& names,
                const std::vector<BatchPool>& pools, Clock::time_point until,
                bool keep_samples, AnalystResult* out) {
  while (Clock::now() < until) {
    const ChurnStep step = stream.Next();
    const ChurnKind& kind = kChurnKinds[step.kind];
    const std::size_t ti = TenantIndex(names, kind.tenant);
    const Tenant& t = tenants[ti];
    const ps::FitSpec spec = Spec(kind.method, 1.0, step.seed);
    client.SelectDataset(t.fingerprint);
    auto t0 = Clock::now();
    auto fit = client.Fit(spec);
    const double fit_ms = Millis(Clock::now() - t0);
    if (!fit.ok()) {
      ++out->failed;
      continue;
    }
    if (step.cold) {
      (t.sequence ? out->seq_fit_ms : out->fit_ms).push_back(fit_ms);
      if (!t.sequence) ++out->cold_spatial;
    } else {
      out->revisit_ms.push_back(fit_ms);
    }
    t0 = Clock::now();
    auto answers =
        t.sequence
            ? client.SeqQueryBatch(spec, std::span(pools[ti].seq[step.batch]))
            : client.QueryBatch(spec, std::span(pools[ti].boxes[step.batch]));
    out->query_ms.push_back(Millis(Clock::now() - t0));
    ++out->steps;
    if (!answers.ok()) {
      ++out->failed;
      continue;
    }
    if (!t.sequence) {
      out->rel_error_sum += MeanRelativeError(
          answers.value(), pools[ti].exact[step.batch], t.points->size());
      ++out->rel_error_batches;
      out->rel_error_samples += answers.value().size();
    }
    if (keep_samples && step.cold && out->steps % 8 == 1) {
      out->samples.push_back({spec, ti, step.batch, answers.value()});
    }
  }
}

int RunFitChurn(const Options& o, WorkloadSpec spec) {
  SeedWarmSpecs(spec, o.seed);
  const auto tenants = MakeTenants(spec.tenants, o.seed, o.workdir);
  PrintCommon(o, spec, tenants);
  const auto pools = MakePools(spec, tenants, o.seed);

  SetupSamples setups;
  Setup kept = SetUpBefore(o, spec, tenants, setups);
  ps::Client control = ConnectClient(kept.port);
  std::vector<ps::Client> clients;
  for (std::size_t a = 0; a < 2; ++a) clients.push_back(ConnectClient(kept.port));
  std::vector<ChurnStream> streams;
  for (std::size_t a = 0; a < 2; ++a) {
    streams.emplace_back(o.seed, a, spec.batches);
  }

  // Two analysts: this thread and one more.
  const auto phase = [&](double seconds, bool keep) {
    std::vector<AnalystResult> results(2);
    const auto until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    std::thread second([&] {
      RunAnalyst(clients[1], streams[1], tenants, spec.tenants, pools, until,
                 keep, &results[1]);
    });
    RunAnalyst(clients[0], streams[0], tenants, spec.tenants, pools, until,
               keep, &results[0]);
    second.join();
    return results;
  };

  phase(1.0, false);  // Warm-up interval, discarded.
  const ServerCounters before = ReadCounters(control);
  const auto start = Clock::now();
  const auto results = phase(o.seconds, true);
  const double elapsed = Millis(Clock::now() - start) / 1000.0;
  const ServerCounters delta = ReadCounters(control) - before;
  const double rss = kept.server->PeakRssMb();

  AnalystResult all;
  for (const AnalystResult& r : results) {
    using Series = std::vector<double> AnalystResult::*;
    for (Series v : {&AnalystResult::fit_ms, &AnalystResult::seq_fit_ms,
                     &AnalystResult::revisit_ms, &AnalystResult::query_ms}) {
      (all.*v).insert((all.*v).end(), (r.*v).begin(), (r.*v).end());
    }
    all.rel_error_sum += r.rel_error_sum;
    all.rel_error_batches += r.rel_error_batches;
    all.rel_error_samples += r.rel_error_samples;
    all.steps += r.steps;
    all.cold_spatial += r.cold_spatial;
    all.failed += r.failed;
    all.samples.insert(all.samples.end(), r.samples.begin(), r.samples.end());
  }
  const std::size_t attempted = 2 * all.steps;
  const bool counters_ok = CheckCounters(delta, attempted, attempted);
  kept.server->Stop();
  SetUpAfter(o, spec, tenants, setups);
  const auto& setup_s = setups.seconds;

  // Bit-for-bit check of sampled cold fits against in-process sessions.
  std::size_t mismatched = 0;
  for (const ChurnSample& s : all.samples) {
    const Tenant& t = tenants[s.tenant];
    const auto method = OracleFit(t, s.spec);
    const auto want =
        t.sequence ? method->QueryBatch(std::span(pools[s.tenant].seq[s.batch]))
                   : method->QueryBatch(
                         std::span(pools[s.tenant].boxes[s.batch]));
    if (want.size() != s.answers.size() ||
        std::memcmp(want.data(), s.answers.data(),
                    want.size() * sizeof(double)) != 0) {
      ++mismatched;
    }
  }
  std::printf("check answers: %zu of %zu sampled cold fits differ from the "
              "in-process ReleaseSession\n", mismatched, all.samples.size());
  std::printf("churn steps %zu cold_spatial %zu cold_seq %zu revisits %zu "
              "misses %.0f spill_hits %.0f writeback_hits %.0f evictions "
              "%.0f\n",
              all.steps, all.fit_ms.size(), all.seq_fit_ms.size(),
              all.revisit_ms.size(), delta.misses, delta.spill_hits,
              delta.writeback_hits, delta.evictions);
  if (all.fit_ms.size() < 20 || all.seq_fit_ms.size() < 5) {
    Fail("too few cold fits in the measured interval");
  }

  Report r;
  r.Add("setup_s", Quantile(setup_s, 0.5), "s", setup_s.size());
  r.Add("query_p50_ms", Quantile(all.query_ms, 0.5), "ms",
        all.query_ms.size());
  // About 1000 queries per run: p95 keeps ten samples beyond it in every
  // run, where p99 would not.
  AddQueryTail(r, 0.95, all.query_ms);
  r.Add("fit_p50_ms", Quantile(all.fit_ms, 0.5), "ms", all.fit_ms.size());
  r.Add("seq_fit_p50_ms", Quantile(all.seq_fit_ms, 0.5), "ms",
        all.seq_fit_ms.size());
  r.Add("rel_error",
        all.rel_error_sum / static_cast<double>(all.rel_error_batches),
        "ratio", all.rel_error_samples);
  r.Add("rss_mb", rss, "MiB", 1);
  r.Add("fit_p90_ms", Quantile(all.fit_ms, 0.9), "ms", all.fit_ms.size());
  r.Add("fits_per_s", static_cast<double>(all.cold_spatial) / elapsed, "1/s",
        all.cold_spatial);
  r.Add("revisit_p50_ms", Quantile(all.revisit_ms, 0.5), "ms",
        all.revisit_ms.size());
  r.Add("error_rate",
        (static_cast<double>(all.failed) + delta.shed + delta.expired) /
            static_cast<double>(std::max<std::size_t>(1, attempted)),
        "ratio", attempted);
  const bool correct = mismatched == 0 && all.failed == 0 && counters_ok &&
                       delta.shed == 0 && delta.expired == 0;
  return Finish(r, correct, attempted, all.failed + mismatched);
}

}  // namespace

int RunTimed(const Options& options) {
  const WorkloadSpec spec = GetWorkload(options.workload);
  return spec.open_loop ? RunQueryWorkload(options, spec)
                        : RunFitChurn(options, spec);
}

}  // namespace servebench
