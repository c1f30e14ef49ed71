#include "daemon_ops.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace fcad;
using namespace fcad::serving;

constexpr int kUsers = 1024;

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends as much of `out` as the socket takes without blocking.
bool flush(int fd, std::string& out) {
  while (!out.empty()) {
    const ssize_t n =
        ::send(fd, out.data(), out.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return true;
    }
    return false;
  }
  return true;
}

}  // namespace

ServeSpec daemon_spec(ClockKind clock) {
  ServeSpec spec;
  spec.clock = clock;
  spec.fleet.instances = kDaemonInstances;
  spec.fleet.shards = 1;
  spec.fleet.policy = DispatchPolicy::kLeastLoaded;
  spec.fleet.batch_timeout_us = kDaemonBatchTimeoutUs;
  return spec;
}

std::vector<Request> poisson_arrivals(double rate_rps, double duration_s,
                                      std::uint64_t seed, int branches) {
  // A Poisson process conditioned on its count: rate x duration arrival
  // times drawn uniformly over the step and sorted. The fixed count keeps
  // a step's work and memory the same for every seed.
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(std::llround(rate_rps * duration_s));
  std::vector<double> times(n);
  for (double& t : times) t = rng.next_double() * duration_s * 1e6;
  std::sort(times.begin(), times.end());
  std::vector<Request> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].id = static_cast<std::int64_t>(i);
    out[i].user = static_cast<int>(rng.next_int(0, kUsers - 1));
    out[i].branch = static_cast<int>(rng.next_int(0, branches - 1));
    out[i].arrival_us = times[i];
  }
  return out;
}

std::vector<Request> burst_arrivals(std::int64_t count, std::uint64_t seed,
                                    int branches) {
  std::vector<Request> out =
      poisson_arrivals(static_cast<double>(count), 1.0, seed, branches);
  for (Request& r : out) r.arrival_us = 0;
  return out;
}

std::vector<double> window_percentiles(const StepResult& step,
                                       double duration_s, double pct) {
  const int count =
      std::max(1, static_cast<int>(std::lround(duration_s / kDaemonWindowS)));
  std::vector<std::vector<double>> windows(static_cast<std::size_t>(count));
  const double width_ms = duration_s * 1e3 / count;
  for (std::size_t i = 0; i < step.latency_ms.size(); ++i) {
    const auto w = static_cast<std::size_t>(
        std::clamp(step.due_ms[i] / width_ms, 0.0, count - 1.0));
    windows[w].push_back(step.latency_ms[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) per_window.push_back(percentile(window, pct));
  }
  return per_window;
}

StatusOr<std::unique_ptr<LiveDaemon>> LiveDaemon::start(
    const ServiceModel& service, const std::string& socket_path,
    std::int64_t expected_requests) {
  std::unique_ptr<LiveDaemon> live(new LiveDaemon());
  ::unlink(socket_path.c_str());
  const SteadyTime t0 = now();
  DaemonOptions options;
  options.socket_path = socket_path;
  options.expected_requests = expected_requests;
  live->daemon_ = std::make_unique<Daemon>(
      service, daemon_spec(ClockKind::kSteady), options);
  LiveDaemon* raw = live.get();
  live->thread_ = std::thread([raw] { raw->result_ = raw->daemon_->serve(); });
  // serve() binds on its own thread: poll-connect until it listens (or
  // returns early with an error).
  while (true) {
    live->fd_ = connect_unix(socket_path);
    if (live->fd_ >= 0) break;
    if (ms_between(t0, now()) > 5000) {
      return Status::internal("daemon did not start listening on " +
                              socket_path);
    }
    ::usleep(100);
  }
  live->bind_ms_ = ms_between(t0, now());
  return live;
}

LiveDaemon::~LiveDaemon() {
  if (thread_.joinable()) {
    daemon_->request_shutdown();
    thread_.join();
  }
  if (fd_ >= 0) ::close(fd_);
}

StepResult LiveDaemon::run_step(const std::vector<Request>& arrivals,
                                double duration_s, double grace_ms) {
  StepResult step;
  step.rate_rps = duration_s > 0
                      ? static_cast<double>(arrivals.size()) / duration_s
                      : 0;
  const std::size_t n = arrivals.size();
  const std::int64_t first_id = next_id_;
  std::vector<double> due_ms(n);
  std::vector<char> answered(n, 0);
  std::vector<double> lag_ms;
  lag_ms.reserve(n);
  step.latency_ms.reserve(n);
  step.due_ms.reserve(n);

  const SteadyTime base = now();
  const double end_ms = duration_s * 1e3;
  bool backlog_taken = false;
  double last_reply_ms = 0;
  std::size_t next = 0;
  std::int64_t resolved = 0;
  std::string out;
  char buf[1 << 16];
  bool io_ok = true;
  while (io_ok) {
    double t_ms = ms_between(base, now());
    while (next < n && arrivals[next].arrival_us * 1e-3 <= t_ms) {
      const Request& r = arrivals[next];
      out += "req " + std::to_string(r.user) + " " + std::to_string(r.branch) +
             "\n";
      due_ms[next] = r.arrival_us * 1e-3;
      lag_ms.push_back(t_ms - due_ms[next]);
      ++next;
    }
    io_ok = flush(fd_, out);
    while (io_ok) {
      const ssize_t got = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        io_ok = false;
        break;
      }
      const double recv_ms = ms_between(base, now());
      inbuf_.append(buf, static_cast<std::size_t>(got));
      std::size_t start = 0;
      for (std::size_t nl = inbuf_.find('\n'); nl != std::string::npos;
           nl = inbuf_.find('\n', start)) {
        const std::string line = inbuf_.substr(start, nl - start);
        start = nl + 1;
        long long id = -1;
        int branch = -1;
        int instance = -1;
        double modelled_us = 0;
        const bool is_ok = std::sscanf(line.c_str(), "ok %lld %d %d %lf", &id,
                                       &branch, &instance, &modelled_us) == 4;
        if (!is_ok) {
          std::sscanf(line.c_str(), "%*s %lld", &id);
        }
        const std::int64_t index = id - first_id;
        if (index < 0 || index >= static_cast<std::int64_t>(next) ||
            answered[static_cast<std::size_t>(index)] != 0) {
          ++step.refused;  // unknown, duplicate, or unparseable reply
          continue;
        }
        const auto i = static_cast<std::size_t>(index);
        answered[i] = 1;
        ++resolved;
        if (is_ok && branch == arrivals[i].branch && modelled_us > 0) {
          ++step.ok;
          step.latency_ms.push_back(recv_ms - due_ms[i]);
          step.due_ms.push_back(due_ms[i]);
          last_reply_ms = recv_ms;
        } else {
          ++step.refused;
        }
      }
      inbuf_.erase(0, start);
    }
    t_ms = ms_between(base, now());
    if (!backlog_taken && next == n && t_ms >= end_ms) {
      step.backlog = static_cast<std::int64_t>(n) - resolved;
      backlog_taken = true;
    }
    if (next == n && resolved == static_cast<std::int64_t>(n) &&
        t_ms >= end_ms) {
      break;
    }
    if (t_ms > end_ms + grace_ms) break;
    // A paced step busy-polls, so the client's own wake-up latency never
    // adds to a measured reply time. Once a burst is sent, the client
    // sleeps until the socket is ready instead of spinning on it.
    if (duration_s == 0 && next == n) {
      pollfd pfd{fd_, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
                 0};
      ::poll(&pfd, 1, static_cast<int>(end_ms + grace_ms - t_ms) + 1);
    }
  }
  next_id_ = first_id + static_cast<std::int64_t>(next);
  step.sent = static_cast<std::int64_t>(next);
  step.missing = static_cast<std::int64_t>(n) - resolved;
  step.lag_p99_ms = percentile(lag_ms, 99);
  step.lag_max_ms = percentile(lag_ms, 100);
  step.active_s = last_reply_ms * 1e-3;
  return step;
}

StatusOr<DaemonResult> LiveDaemon::stop() {
  std::string line = "shutdown\n";
  if (!flush(fd_, line) || !line.empty()) daemon_->request_shutdown();
  thread_.join();
  ::close(fd_);
  fd_ = -1;
  if (!result_) return Status::internal("daemon returned no result");
  return std::move(*result_);
}

}  // namespace perfbench
