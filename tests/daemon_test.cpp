#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serving/clock.hpp"
#include "serving/daemon.hpp"
#include "serving/fleet.hpp"
#include "serving/service.hpp"
#include "serving/stats.hpp"
#include "serving/workload.hpp"

namespace fcad::serving {
namespace {

Request make_request(std::int64_t id, int user, int branch, double arrival_us) {
  Request r;
  r.id = id;
  r.user = user;
  r.branch = branch;
  r.arrival_us = arrival_us;
  return r;
}

ServiceModel make_service(std::vector<BranchService> branches) {
  ServiceModel m;
  m.branches = std::move(branches);
  return m;
}

/// A mixed-user trace with two branches, moderately loaded.
std::vector<Request> make_trace(int n, double spacing_us = 400.0) {
  std::vector<Request> trace;
  trace.reserve(n);
  for (int i = 0; i < n; ++i) {
    trace.push_back(make_request(i, i % 5, i % 2, i * spacing_us));
  }
  return trace;
}

// ------------------------------------------------------------------ parity --
TEST(DaemonTest, RunTraceMatchesSimulateFleetBitExactly) {
  // The headline contract: the same trace through the daemon's online
  // submit path (admission off) and through simulate_fleet must produce
  // identical per-request decisions and latencies — across shard counts
  // and dispatch policies.
  const ServiceModel service = make_service({{2, 3000.0}, {2, 5000.0}});
  const std::vector<Request> trace = make_trace(200);

  for (int shards : {1, 2, 4}) {
    for (DispatchPolicy policy :
         {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastLoaded,
          DispatchPolicy::kBranchAffinity}) {
      ServeSpec spec;
      spec.fleet.instances = 4;
      spec.fleet.shards = shards;
      spec.fleet.policy = policy;
      spec.fleet.keep_records = true;

      auto reference = simulate_fleet(service, trace, spec);
      ASSERT_TRUE(reference.is_ok());

      const Daemon daemon(service, spec);
      auto live = daemon.run_trace(trace);
      ASSERT_TRUE(live.is_ok());
      EXPECT_EQ(live->shed, 0);

      EXPECT_EQ(serving_csv_row({}, *reference),
                serving_csv_row({}, live->stats));
      ASSERT_EQ(reference->records.size(), live->stats.records.size());
      for (std::size_t i = 0; i < reference->records.size(); ++i) {
        const RequestRecord& a = reference->records[i];
        const RequestRecord& b = live->stats.records[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.user, b.user);
        EXPECT_EQ(a.branch, b.branch);
        EXPECT_EQ(a.instance, b.instance);
        EXPECT_EQ(a.arrival_us, b.arrival_us);
        EXPECT_EQ(a.start_us, b.start_us);    // bit-identical doubles
        EXPECT_EQ(a.finish_us, b.finish_us);  // bit-identical doubles
      }
    }
  }
}

TEST(DaemonTest, RunTraceIsDeterministicAcrossThreadCounts) {
  const ServiceModel service = make_service({{2, 3000.0}, {1, 4000.0}});
  const std::vector<Request> trace = make_trace(300);

  ServeSpec spec;
  spec.fleet.instances = 4;
  spec.fleet.shards = 4;
  spec.fleet.keep_records = true;

  const Daemon daemon(service, spec, {.admission_enabled = true});
  spec.fleet.threads = 1;
  const Daemon single(service, spec, {.admission_enabled = true});
  auto a = single.run_trace(trace);
  spec.fleet.threads = 4;
  const Daemon pooled(service, spec, {.admission_enabled = true});
  auto b = pooled.run_trace(trace);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->shed, b->shed);
  EXPECT_EQ(serving_csv_row({}, a->stats), serving_csv_row({}, b->stats));
}

// --------------------------------------------------------------- admission --
TEST(DaemonTest, AdmissionShedsUnderOverloadAndBalancesTheBooks) {
  // One slow instance (8 ms per pass), arrivals every 2 ms: the backlog —
  // and with it every completion latency — grows without bound. Shedding
  // starts only once `admission_window` completions have landed, so the
  // arrival rate must stay close enough to the service rate for the window
  // to fill mid-trace; after that the rolling p99 is far above the bound
  // and the daemon refuses the rest of the trace.
  const ServiceModel service = make_service({{1, 8000.0}});
  std::vector<Request> trace;
  for (int i = 0; i < 400; ++i) {
    trace.push_back(make_request(i, 0, 0, i * 2000.0));
  }

  ServeSpec spec;
  spec.fleet.instances = 1;
  spec.sla.p99_bound_us = 10000;

  DaemonOptions options;
  options.admission_enabled = true;
  options.admission_window = 8;

  const Daemon daemon(service, spec, options);
  auto result = daemon.run_trace(trace);
  ASSERT_TRUE(result.is_ok());
  EXPECT_GT(result->shed, 0);
  // Shed requests never enter the engine: admitted + shed must cover the
  // trace exactly, and stats are over admitted requests only.
  EXPECT_EQ(result->stats.completed + result->shed,
            static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(result->stats.offered, result->stats.completed);
}

TEST(DaemonTest, AdmissionOffNeverSheds) {
  const ServiceModel service = make_service({{1, 8000.0}});
  std::vector<Request> trace;
  for (int i = 0; i < 100; ++i) {
    trace.push_back(make_request(i, 0, 0, i * 100.0));
  }
  ServeSpec spec;
  spec.fleet.instances = 1;
  spec.sla.p99_bound_us = 10000;
  const Daemon daemon(service, spec);  // admission disabled by default
  auto result = daemon.run_trace(trace);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->shed, 0);
  EXPECT_EQ(result->stats.completed, static_cast<std::int64_t>(trace.size()));
}

// -------------------------------------------------------------- validation --
TEST(DaemonTest, ServeRequiresSteadyClockAndSocketPath) {
  const ServiceModel service = make_service({{1, 2000.0}});
  {
    ServeSpec spec;  // kVirtual by default
    DaemonOptions options;
    options.socket_path = "/tmp/fcad_daemon_invalid.sock";
    Daemon daemon(service, spec, options);
    auto result = daemon.serve();
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ServeSpec spec;
    spec.clock = ClockKind::kSteady;
    Daemon daemon(service, spec);  // no socket path
    auto result = daemon.serve();
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

// --------------------------------------------- one validator, one builder --
// run_trace and serve() share simulate_fleet's spec validator and engine
// builder, so a spec means the same thing on every entry point.
TEST(DaemonTest, RunTraceOnASketchSpecMatchesSimulateFleet) {
  const ServiceModel service = make_service({{2, 3000.0}, {2, 5000.0}});
  const std::vector<Request> trace = make_trace(400);
  for (int shards : {1, 2, 4}) {
    ServeSpec spec;
    spec.fleet.instances = 4;
    spec.fleet.shards = shards;
    spec.fleet.latency_mode = LatencyMode::kSketch;

    auto reference = simulate_fleet(service, trace, spec);
    ASSERT_TRUE(reference.is_ok());
    const Daemon daemon(service, spec);
    auto live = daemon.run_trace(trace);
    ASSERT_TRUE(live.is_ok());
    EXPECT_EQ(live->stats.latency_mode, LatencyMode::kSketch);
    EXPECT_EQ(live->stats.latency_mode, reference->latency_mode);
    EXPECT_EQ(serving_csv_row({}, live->stats),
              serving_csv_row({}, *reference));
  }
}

TEST(DaemonTest, OutOfRangeProgressTailIsInvalidArgumentNotACrash) {
  const ServiceModel service = make_service({{1, 2000.0}, {1, 3000.0}});
  ServeSpec spec;
  spec.fleet.progress_tail_pct = 250;
  auto trace_result = Daemon(service, spec).run_trace(make_trace(10));
  ASSERT_FALSE(trace_result.is_ok());
  EXPECT_EQ(trace_result.status().code(), StatusCode::kInvalidArgument);

  spec.clock = ClockKind::kSteady;
  DaemonOptions options;
  options.socket_path = "/tmp/fcad_daemon_tail_pct_test.sock";
  Daemon live(service, spec, options);
  auto serve_result = live.serve();
  ASSERT_FALSE(serve_result.is_ok());
  EXPECT_EQ(serve_result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DaemonTest, RunTraceRejectsWhatSimulateFleetRejects) {
  const ServiceModel service = make_service({{1, 2000.0}, {1, 3000.0}});
  const std::vector<Request> trace = make_trace(10);
  ServeSpec spec;
  spec.fleet.latency_mode = LatencyMode::kSketch;
  spec.fleet.keep_records = true;  // sketch mode keeps no per-request records
  EXPECT_EQ(simulate_fleet(service, trace, spec).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Daemon(service, spec).run_trace(trace).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DaemonTest, RunTraceRejectsCheckpointsAndProcessSharding) {
  // Shed decisions are not checkpointed, so a resumed daemon replay could
  // not be exact; the options are refused instead of silently ignored.
  const ServiceModel service = make_service({{1, 2000.0}, {1, 3000.0}});
  const std::vector<Request> trace = make_trace(10);
  ServeSpec checkpointed;
  checkpointed.fleet.checkpoint_path = "unused.ckpt";
  auto resumable = Daemon(service, checkpointed).run_trace(trace);
  EXPECT_EQ(resumable.status().code(), StatusCode::kInvalidArgument);
  ServeSpec process_sharded;
  process_sharded.fleet.instances = 2;
  process_sharded.fleet.shards = 2;
  process_sharded.fleet.process_count = 2;
  auto sharded = Daemon(service, process_sharded).run_trace(trace);
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------- live socket --
/// Connects to the daemon's socket, retrying while it boots.
int connect_with_retry(const std::string& path) {
  SteadyClock clock(0.0);
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    clock.sleep_until_us(clock.now_us() + 10000.0);  // 10 ms
  }
  return -1;
}

/// Sends `text` fully.
bool send_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::write(fd, text.data() + sent, text.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads until `lines` newline-terminated replies arrived or EOF.
std::vector<std::string> read_lines(int fd, int lines) {
  std::string buffer;
  int seen = 0;
  char chunk[512];
  while (seen < lines) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) {
      if (chunk[i] == '\n') ++seen;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  std::vector<std::string> out;
  std::istringstream stream(buffer);
  std::string line;
  while (std::getline(stream, line)) out.push_back(line);
  return out;
}

TEST(DaemonTest, ServeAnswersRequestsAndDrainsOnShutdown) {
  const ServiceModel service = make_service({{2, 1000.0}, {2, 1500.0}});
  const std::string socket_path = "/tmp/fcad_daemon_test.sock";

  ServeSpec spec;
  spec.clock = ClockKind::kSteady;
  spec.fleet.instances = 2;
  spec.fleet.batch_timeout_us = 1000;

  DaemonOptions options;
  options.socket_path = socket_path;

  Daemon daemon(service, spec, options);
  StatusOr<DaemonResult> result = Status::internal("serve never ran");
  std::thread server([&] { result = daemon.serve(); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0) << "could not connect to " << socket_path;

  constexpr int kRequests = 20;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += "req " + std::to_string(i % 3) + " " + std::to_string(i % 2) +
             "\n";
  }
  ASSERT_TRUE(send_all(fd, burst));

  const std::vector<std::string> replies = read_lines(fd, kRequests);
  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kRequests));
  for (const std::string& line : replies) {
    // Every admitted request gets "ok <id> <branch> <instance> <latency>".
    std::istringstream fields(line);
    std::string verb;
    std::int64_t id = -1;
    int branch = -1, instance = -1;
    double latency = -1;
    fields >> verb >> id >> branch >> instance >> latency;
    EXPECT_EQ(verb, "ok") << line;
    EXPECT_GE(id, 0);
    EXPECT_TRUE(branch == 0 || branch == 1) << line;
    EXPECT_TRUE(instance == 0 || instance == 1) << line;
    EXPECT_GT(latency, 0) << line;
  }

  // Graceful shutdown via the signal-safe path; the drain must answer
  // everything already admitted (it did — we read all replies) and return
  // a consistent session.
  daemon.request_shutdown();
  server.join();
  ::close(fd);

  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.completed, kRequests);
  EXPECT_EQ(result->stats.offered, kRequests);
  EXPECT_EQ(result->shed, 0);
  EXPECT_GT(result->stats.latency.p99, 0);
}

TEST(DaemonTest, ServeRejectsMalformedAndOutOfRangeLines) {
  const ServiceModel service = make_service({{1, 1000.0}});
  const std::string socket_path = "/tmp/fcad_daemon_err_test.sock";

  ServeSpec spec;
  spec.clock = ClockKind::kSteady;
  spec.fleet.instances = 1;
  spec.fleet.batch_timeout_us = 500;

  DaemonOptions options;
  options.socket_path = socket_path;

  Daemon daemon(service, spec, options);
  StatusOr<DaemonResult> result = Status::internal("serve never ran");
  std::thread server([&] { result = daemon.serve(); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0);

  ASSERT_TRUE(send_all(fd, "bogus line\nreq 0 99\nreq 0 0\n"));
  const std::vector<std::string> replies = read_lines(fd, 3);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].rfind("err ", 0), 0u) << replies[0];
  EXPECT_EQ(replies[1].rfind("err ", 0), 0u) << replies[1];
  EXPECT_EQ(replies[2].rfind("ok ", 0), 0u) << replies[2];

  ASSERT_TRUE(send_all(fd, "shutdown\n"));
  server.join();
  ::close(fd);

  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.completed, 1);  // only the well-formed request
}

TEST(DaemonTest, ServeOnASketchSpecKeepsSketchStats) {
  // A long-running daemon bounds its latency memory with sketch mode.
  const ServiceModel service = make_service({{2, 1000.0}});
  const std::string socket_path = "/tmp/fcad_daemon_sketch_test.sock";

  ServeSpec spec;
  spec.clock = ClockKind::kSteady;
  spec.fleet.instances = 2;
  spec.fleet.batch_timeout_us = 500;
  spec.fleet.latency_mode = LatencyMode::kSketch;

  DaemonOptions options;
  options.socket_path = socket_path;

  Daemon daemon(service, spec, options);
  StatusOr<DaemonResult> result = Status::internal("serve never ran");
  std::thread server([&] { result = daemon.serve(); });

  const int fd = connect_with_retry(socket_path);
  ASSERT_GE(fd, 0) << "could not connect to " << socket_path;
  constexpr int kRequests = 8;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += "req " + std::to_string(i) + " 0\n";
  }
  ASSERT_TRUE(send_all(fd, burst));
  ASSERT_EQ(read_lines(fd, kRequests).size(),
            static_cast<std::size_t>(kRequests));
  ASSERT_TRUE(send_all(fd, "shutdown\n"));
  server.join();
  ::close(fd);

  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->stats.latency_mode, LatencyMode::kSketch);
  EXPECT_EQ(result->stats.completed, kRequests);
  EXPECT_GT(result->stats.latency.p99, 0);
}

}  // namespace
}  // namespace fcad::serving
