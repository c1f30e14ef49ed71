#include "serving/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/metrics.hpp"
#include "serving/driver.hpp"
#include "util/log.hpp"

namespace fcad::serving {
namespace {

/// One parsed unit of receiver -> serving-loop traffic.
struct Incoming {
  int fd = -1;
  std::int64_t id = 0;
  int user = 0;
  int branch = 0;
  bool disconnect = false;
  bool malformed = false;
};

/// Splits complete lines out of a connection buffer and appends the parsed
/// events. Returns true when a line asked for shutdown.
bool parse_lines(int fd, std::string& buffer, std::int64_t& next_id,
                 std::vector<Incoming>& events) {
  bool shutdown = false;
  std::size_t start = 0;
  for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
       nl = buffer.find('\n', start)) {
    std::string line = buffer.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line == "shutdown") {
      shutdown = true;
      continue;
    }
    std::istringstream fields(line);
    std::string verb;
    Incoming in;
    in.fd = fd;
    fields >> verb >> in.user >> in.branch;
    if (verb != "req" || fields.fail()) {
      in.malformed = true;
    } else {
      in.id = next_id++;
    }
    events.push_back(in);
  }
  buffer.erase(0, start);
  return shutdown;
}

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

/// The live feed behind serve(). The receiver thread delivers parsed
/// lines; the serving loop collects them once per iteration (poll), stamps
/// each request at the clock reading, and answers every line itself —
/// "err" for malformed or out-of-range lines and for requests arriving
/// while draining, "shed" for admission rejections, "ok" on dispatch. The
/// feed ends only once shutdown was requested; until then an empty queue
/// just means the loop sleeps until the receiver's wake().
class LiveSource final : public RequestSource {
 public:
  LiveSource(Clock& clock, int num_branches, std::int64_t expected_requests)
      : clock_(clock),
        num_branches_(num_branches),
        expected_requests_(expected_requests),
        shed_counter_(obs::MetricsRegistry::global().counter(
            "serving.daemon.shed_requests")) {}

  /// Receiver side (any thread): queues `events` — and the shutdown
  /// request when `stop` — then wakes the serving loop.
  void deliver(const std::vector<Incoming>& events, bool stop) {
    if (events.empty() && !stop) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.insert(queue_.end(), events.begin(), events.end());
      stopping_ = stopping_ || stop;
    }
    clock_.wake();
  }

  void poll() override {
    // Requests that arrive once the previous iteration closed the engine
    // are answered "err draining".
    draining_ = ended_;
    batch_.clear();
    next_ = 0;
    const std::lock_guard<std::mutex> lock(mutex_);
    batch_.swap(queue_);
    ended_ = stopping_;
  }

  const Request* peek() override {
    for (; !current_ && next_ < batch_.size(); ++next_) {
      const Incoming& in = batch_[next_];
      if (in.disconnect) {
        dead_fds_.insert(in.fd);
      } else if (in.malformed) {
        reply(in.fd, "err expected 'req <user> <branch>'\n");
      } else if (draining_) {
        reply(in.fd, "err draining\n");
      } else if (in.branch < 0 || in.branch >= num_branches_) {
        reply(in.fd, "err branch out of range\n");
      } else {
        Request r;
        r.id = in.id;
        r.user = in.user;
        r.branch = in.branch;
        r.arrival_us = clock_.now_us();
        reply_fd_[r.id] = in.fd;
        current_ = r;
        return &*current_;
      }
    }
    return current_ ? &*current_ : nullptr;
  }

  void pop() override {
    current_.reset();
    ++next_;
  }

  std::int64_t expected_requests() const override {
    return expected_requests_;
  }
  bool ended() const override { return ended_; }

  void on_dispatch(const Batch& batch, int instance,
                   double finish_us) override {
    for (const Request& r : batch.requests) {
      const auto it = reply_fd_.find(r.id);
      if (it == reply_fd_.end()) continue;
      reply(it->second, "ok " + std::to_string(r.id) + " " +
                            std::to_string(r.branch) + " " +
                            std::to_string(instance) + " " +
                            std::to_string(finish_us - r.arrival_us) + "\n");
      reply_fd_.erase(it);
    }
  }

  void on_shed(const Request& r) override {
    shed_counter_.add(1);
    const auto it = reply_fd_.find(r.id);
    reply(it->second, "shed " + std::to_string(r.id) + "\n");
    reply_fd_.erase(it);
  }

 private:
  void reply(int fd, const std::string& line) {
    // Disconnected fds stay open (and unused) until the drain finishes, so
    // a late reply can never hit a recycled descriptor number.
    if (fd < 0 || dead_fds_.count(fd) != 0) return;
    // Best-effort: a peer that vanished mid-reply only loses its answer.
    (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
  }

  Clock& clock_;
  int num_branches_;
  std::int64_t expected_requests_;
  obs::Counter& shed_counter_;
  std::mutex mutex_;
  std::vector<Incoming> queue_;  // guarded by mutex_
  bool stopping_ = false;        // guarded by mutex_
  // Serving-loop side.
  std::vector<Incoming> batch_;
  std::size_t next_ = 0;
  std::optional<Request> current_;
  bool ended_ = false;
  bool draining_ = false;
  std::unordered_map<std::int64_t, int> reply_fd_;
  std::unordered_set<int> dead_fds_;
};

/// The shard hooks carrying this daemon's admission settings.
ShardHooks admission_hooks(const DaemonOptions& options, double sla_bound_us) {
  ShardHooks hooks;
  if (options.admission_enabled) {
    hooks.admission_window = options.admission_window;
    hooks.admission_bound_us = options.admission_headroom * sla_bound_us;
  }
  return hooks;
}

}  // namespace

Daemon::Daemon(ServiceModel service, ServeSpec spec, DaemonOptions options)
    : service_(std::move(service)),
      spec_(std::move(spec)),
      options_(std::move(options)) {
  // The shutdown pipe exists for the daemon's whole lifetime so a signal
  // handler may call request_shutdown() at any point relative to serve().
  if (::pipe2(shutdown_pipe_, O_CLOEXEC) != 0) {
    shutdown_pipe_[0] = shutdown_pipe_[1] = -1;
    FCAD_LOG(kWarn) << "daemon: shutdown pipe unavailable: "
                    << std::strerror(errno);
  }
}

Daemon::~Daemon() {
  close_fd(shutdown_pipe_[0]);
  close_fd(shutdown_pipe_[1]);
}

void Daemon::request_shutdown() {
  if (shutdown_pipe_[1] < 0) return;
  const char byte = 's';
  // Single async-signal-safe syscall; a full pipe already means a shutdown
  // is pending, so a failed write is still a delivered request.
  [[maybe_unused]] const ssize_t n =
      ::write(shutdown_pipe_[1], &byte, 1);
}

StatusOr<DaemonResult> Daemon::run_trace(const std::vector<Request>& trace,
                                         const util::RunScope* scope) const {
  auto options = resolved_fleet_options(spec_, &service_);
  if (!options.is_ok()) return options.status();
  // Shed decisions are not part of a checkpoint, so a resumed daemon replay
  // could not be exact; process sharding is the streaming replay's.
  if (!options->checkpoint_path.empty()) {
    return Status::invalid_argument(
        "daemon: run_trace does not checkpoint — clear checkpoint_path");
  }
  if (options->process_count != 1 || options->process_index != 0) {
    return Status::invalid_argument(
        "daemon: process sharding requires the streaming replay "
        "(simulate_fleet_stream)");
  }
  DaemonResult result;
  auto stats =
      replay_trace(service_, trace, spec_, *options,
                   admission_hooks(options_, options->sla_bound_us), scope,
                   &result.shed);
  if (!stats.is_ok()) return stats.status();
  result.stats = std::move(stats).value();
  obs::MetricsRegistry::global()
      .counter("serving.daemon.shed_requests")
      .add(result.shed);
  return result;
}

StatusOr<DaemonResult> Daemon::serve() {
  auto resolved = resolved_fleet_options(spec_, &service_);
  if (!resolved.is_ok()) return resolved.status();
  const FleetOptions& options = *resolved;
  if (options.clock != ClockKind::kSteady) {
    return Status::invalid_argument(
        "daemon: serve() requires ClockKind::kSteady (a virtual clock has "
        "no time source to pace an idle socket on); run_trace replays "
        "virtual time");
  }
  if (options.shards != 1) {
    return Status::invalid_argument(
        "daemon: serve() runs one shard per process; deploy one daemon per "
        "shard instead of shards=" +
        std::to_string(options.shards));
  }
  // Arrival shaping is meaningless live (the daemon serves whatever
  // arrives); the scenario's *fault schedule* does apply, in steady-clock
  // microseconds since serve() started.
  auto plan = plan_replay(spec_, options);
  if (!plan.is_ok()) return plan.status();
  if (options_.socket_path.empty()) {
    return Status::invalid_argument("daemon: serve() needs a socket_path");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::invalid_argument("daemon: socket path too long: " +
                                    options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (shutdown_pipe_[0] < 0) {
    return Status::internal("daemon: shutdown pipe unavailable");
  }

  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    return Status::internal(std::string("daemon: socket(): ") +
                            std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 16) != 0) {
    const Status status = Status::internal(
        "daemon: cannot listen on " + options_.socket_path + ": " +
        std::strerror(errno));
    close_fd(listen_fd);
    return status;
  }

  SteadyClock clock(0);
  LiveSource source(clock, service_.num_branches(),
                    options_.expected_requests);

  // Receiver thread: owns poll() over the listen socket, the shutdown pipe,
  // and every connection; parses lines into the live source and wakes the
  // serving loop. It never writes to or closes a client fd — the serving
  // loop is the sole writer, and fds stay open until the drain finishes so
  // a late reply can never race a recycled descriptor.
  std::vector<int> accepted_fds;  // read only after the join; closed at exit
  const auto receive = [&] {
    std::vector<pollfd> pfds;
    pfds.push_back({shutdown_pipe_[0], POLLIN, 0});
    pfds.push_back({listen_fd, POLLIN, 0});
    std::unordered_map<int, std::string> buffers;
    std::int64_t next_id = 0;
    bool stop = false;
    while (!stop) {
      if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      std::vector<Incoming> events;
      if ((pfds[0].revents & POLLIN) != 0) stop = true;
      if ((pfds[1].revents & POLLIN) != 0) {
        const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd >= 0) {
          pfds.push_back({fd, POLLIN, 0});
          buffers.emplace(fd, std::string());
          accepted_fds.push_back(fd);
        }
      }
      for (std::size_t i = pfds.size(); i-- > 2;) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const int fd = pfds[i].fd;
        char buf[4096];
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
          std::string& buffer = buffers[fd];
          buffer.append(buf, static_cast<std::size_t>(n));
          stop = parse_lines(fd, buffer, next_id, events) || stop;
        } else if (n == 0 || errno != EINTR) {
          Incoming gone;
          gone.fd = fd;
          gone.disconnect = true;
          events.push_back(gone);
          buffers.erase(fd);
          pfds.erase(pfds.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      source.deliver(events, stop);
    }
    source.deliver({}, true);
  };

  // The serving loop: the shared shard driver on the steady clock. It ends
  // after shutdown, once every admitted request has been answered. The
  // receiver starts once the engine is built — building it after the
  // thread start held up a connecting client for the whole build. A
  // failure in the loop still stops and joins the receiver before leaving.
  std::thread receiver;
  ShardHooks hooks = admission_hooks(options_, options.sla_bound_us);
  hooks.on_start = [&] { receiver = std::thread(receive); };
  StatusOr<ShardRun> run = Status::internal("daemon: serving loop failed");
  std::exception_ptr failure;
  try {
    run = run_shard(service_, options, spec_.elastic, plan->plans.front(), 0,
                    0, clock, source, hooks);
  } catch (...) {
    failure = std::current_exception();
    if (receiver.joinable()) request_shutdown();
  }

  if (receiver.joinable()) receiver.join();
  for (int fd : accepted_fds) ::close(fd);
  close_fd(listen_fd);
  ::unlink(options_.socket_path.c_str());
  if (failure) std::rethrow_exception(failure);
  if (!run.is_ok()) return run.status();

  DaemonResult result;
  std::vector<ShardStats> shards;
  shards.push_back(std::move(run->stats));
  result.stats = merge_shard_stats(std::move(shards), service_,
                                   options.sla_bound_us,
                                   plan->provisioned_total, 0);
  result.shed = run->shed;
  return result;
}

}  // namespace fcad::serving
