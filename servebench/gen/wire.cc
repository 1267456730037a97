// The server child process, GetStats counters, and the open-loop sender
// and receiver.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/byteio.h"

extern char** environ;

namespace servebench {

namespace ps = privtree::server;

namespace {

/// Live server children; only the main thread spawns and reaps them.
std::vector<pid_t>& LiveServers() {
  static std::vector<pid_t> live;
  return live;
}

void Reaped(pid_t pid) {
  auto& live = LiveServers();
  live.erase(std::remove(live.begin(), live.end(), pid), live.end());
}

}  // namespace

void KillServers() {
  for (pid_t pid : LiveServers()) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  LiveServers().clear();
}

ServerProcess::ServerProcess(const std::string& binary,
                             std::vector<std::string> args,
                             const std::string& log_path)
    : log_path_(log_path) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) Fail("spawn " + binary + ": " + std::strerror(rc));
  LiveServers().push_back(pid_);
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    Reaped(pid_);
  }
}

std::uint16_t ServerProcess::WaitForPort() {
  const std::string marker = "listening on 127.0.0.1:";
  const auto give_up = Clock::now() + std::chrono::seconds(120);
  while (Clock::now() < give_up) {
    std::ifstream in(log_path_);
    std::stringstream text;
    text << in.rdbuf();
    const std::string log = text.str();
    const std::size_t at = log.find(marker);
    if (at != std::string::npos) {
      port_ = static_cast<std::uint16_t>(
          std::atoi(log.c_str() + at + marker.size()));
      return port_;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      Reaped(pid_);
      pid_ = -1;
      Fail("privtree_server exited during start-up; log: " + log);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Fail("privtree_server did not start within 120 s");
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  Fail("no VmHWM for the server process");
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  if (port_ != 0) {
    auto client = ps::Client::Connect("127.0.0.1", port_);
    // A failed Shutdown falls through to SIGKILL below.
    if (client.ok()) (void)client.value().Shutdown();
  }
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < give_up) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      Reaped(pid_);
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  Reaped(pid_);
  pid_ = -1;
}

ps::Client ConnectClient(std::uint16_t port) {
  auto client = ps::Client::Connect("127.0.0.1", port);
  if (!client.ok()) Fail("connect: " + client.status().ToString());
  return std::move(client).value();
}

ps::Connection DialRaw(std::uint16_t port) {
  auto conn = ps::Connection::Dial("127.0.0.1", port, 5000);
  if (!conn.ok()) Fail("dial: " + conn.status().ToString());
  return std::move(conn).value();
}

ServerCounters ServerCounters::operator-(const ServerCounters& b) const {
  ServerCounters d;
  d.served_frames = served_frames - b.served_frames;
  d.admitted = admitted - b.admitted;
  d.shed = shed - b.shed;
  d.expired = expired - b.expired;
  d.coalesced = coalesced - b.coalesced;
  d.hits = hits - b.hits;
  d.misses = misses - b.misses;
  d.evictions = evictions - b.evictions;
  d.spill_writes = spill_writes - b.spill_writes;
  d.spill_hits = spill_hits - b.spill_hits;
  d.writeback_hits = writeback_hits - b.writeback_hits;
  d.resident_bytes = resident_bytes;  // A gauge: the later value.
  d.queue_wait_count = queue_wait_count - b.queue_wait_count;
  d.queue_wait_sum_us = queue_wait_sum_us - b.queue_wait_sum_us;
  return d;
}

ServerCounters ReadCounters(ps::Client& client) {
  auto json = client.GetStatsJson();
  if (!json.ok()) Fail("GetStats: " + json.status().ToString());
  const std::string& j = json.value();
  // Counters that were never touched are absent from the registry; they
  // read as zero.
  const auto num = [&](const char* key, std::string_view from = {}) {
    const double v = JsonNumber(j, key, from);
    return std::isnan(v) ? 0.0 : v;
  };
  ServerCounters c;
  c.served_frames = num("event.served_frames");
  c.admitted = num("admission.admitted");
  c.shed = num("admission.shed_queue_full") +
           num("admission.shed_cache_saturated");
  c.expired = num("admission.expired");
  c.coalesced = num("admission.coalesced_fits");
  c.hits = num("cache.hits");
  c.misses = num("cache.misses");
  c.evictions = num("cache.evictions");
  c.spill_writes = num("cache.spill_writes");
  c.spill_hits = num("cache.spill_hits");
  c.writeback_hits = num("cache.writeback_hits");
  c.resident_bytes = num("cache.resident_bytes");
  c.queue_wait_count = num("count", "\"engine.queue_wait_us\":");
  c.queue_wait_sum_us = num("sum_us", "\"engine.queue_wait_us\":");
  return c;
}

std::string Frame(std::string_view payload) {
  std::string frame;
  privtree::ByteWriter w(&frame);
  w.U32(static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  return frame;
}

namespace {

bool WriteAll(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

OpenLoopResult RunOpenLoop(std::vector<ps::Connection>& conns,
                           const std::vector<PreparedFrame>& frames,
                           const std::vector<std::size_t>& order,
                           double rate, std::size_t backlog_cap,
                           const std::vector<std::vector<double>>& expected) {
  const std::size_t n = order.size();
  const std::size_t c = conns.size();
  OpenLoopResult result;
  std::vector<Clock::time_point> done_at(n);
  std::atomic<std::size_t> received{0};
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> sender_done{false};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> mismatched{0};

  // Receiver: replies come back in request order per connection, so the
  // k-th reply on connection j answers request j + k·c.
  std::thread receiver([&] {
    std::vector<std::size_t> next(c, 0);
    std::vector<pollfd> fds(c);
    for (std::size_t j = 0; j < c; ++j) fds[j] = {conns[j].fd(), POLLIN, 0};
    auto progress = Clock::now();
    while (true) {
      const std::size_t got = received.load();
      if (sender_done.load() && got == sent.load()) break;
      // Replies that never come (a dead connection) end the wait after
      // 30 s of silence; they count as failed below.
      if (Clock::now() - progress > std::chrono::seconds(30)) break;
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      progress = Clock::now();
      for (std::size_t j = 0; j < c; ++j) {
        if ((fds[j].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        auto reply = conns[j].RecvFrame();
        const auto now = Clock::now();
        const std::size_t i = j + next[j] * c;
        ++next[j];
        if (i >= n) {
          failed.fetch_add(1);
          received.fetch_add(1);
          continue;
        }
        done_at[i] = now;
        ps::QueryBatchReply decoded;
        if (!reply.ok() ||
            !ps::DecodeQueryBatchReply(reply.value(), &decoded).ok()) {
          failed.fetch_add(1);
          if (!reply.ok()) {
            // A dead connection would never answer; count what is left.
            fds[j].fd = -1;
          }
        } else {
          const auto& want = expected[frames[order[i]].key];
          if (decoded.answers.size() != want.size() ||
              std::memcmp(decoded.answers.data(), want.data(),
                          want.size() * sizeof(double)) != 0) {
            mismatched.fetch_add(1);
          }
        }
        received.fetch_add(1);
      }
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       static_cast<double>(i) * 1e9 / rate));
  };
  result.late_ms.reserve(n);
  // Lateness counts only the generator's own delay: from when a request
  // was due (or the previous send returned, if that was later — a send
  // blocked by the server is the server's queueing) until it went out.
  auto ready = start;
  std::size_t i = 0;
  for (; i < n; ++i) {
    const auto when = due(i);
    if (Clock::now() < when) std::this_thread::sleep_until(when);
    if (i - received.load() > backlog_cap) {
      result.backlog_exceeded = true;
      break;
    }
    const auto now = Clock::now();
    result.late_ms.push_back(Millis(now - std::max(when, ready)));
    if (!WriteAll(conns[i % c].fd(), frames[order[i]].frame)) {
      Fail("send failed during the open-loop run");
    }
    ready = Clock::now();
    sent.fetch_add(1);
  }
  sender_done.store(true);
  receiver.join();
  result.sent = i;
  result.failed = failed.load();
  result.mismatched = mismatched.load();
  result.start = start;
  result.latency_ms.reserve(i);
  for (std::size_t k = 0; k < i; ++k) {
    if (done_at[k] == Clock::time_point{}) {
      ++result.failed;  // Never answered.
      continue;
    }
    result.latency_ms.push_back(Millis(done_at[k] - due(k)));
  }
  return result;
}

}  // namespace servebench
