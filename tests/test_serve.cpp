// The serve subsystem, bottom-up: the hostile-input JSON parser, the
// frame codec, the bounded priority queue, strict request parsing, the
// shared trace cache — then a real daemon on a Unix socket, attacked
// with truncated frames, oversized length prefixes, invalid JSON,
// unknown request types and mid-request disconnects. The bar for every
// hostile case is the same: a NAMED error frame (or a clean connection
// drop), never a crash, and the daemon keeps serving afterwards.
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "config/config_file.hpp"
#include "config/sweep_spec.hpp"
#include "core/engine.hpp"
#include "driver/batch_runner.hpp"
#include "driver/result_export.hpp"
#include "driver/sampling.hpp"
#include "driver/sweep_grid.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/socket.hpp"
#include "serve/trace_cache.hpp"
#include "temp_path.hpp"
#include "trace/file_source.hpp"
#include "trace/tracegen.hpp"
#include "trace/writer.hpp"
#include "workload/suite.hpp"

namespace resim::serve {
namespace {

// ---- JSON parser: hostile input -------------------------------------------

TEST(ServeJson, ParsesRequestShapedObject) {
  const JsonValue v = parse_json(
      R"({"type":"sim","id":"r1","priority":3,"trace":"t.rsim",)"
      R"("set":["core.width=2"],"deep":{"a":[null,true,false,-1.5e2]}})");
  ASSERT_EQ(v.kind(), JsonValue::Kind::kObject);
  EXPECT_EQ(v.find("type")->as_string(), "sim");
  EXPECT_EQ(v.find("priority")->as_u64("priority"), 3u);
  EXPECT_EQ(v.find("set")->as_array().at(0).as_string(), "core.width=2");
  const JsonValue& deep = *v.find("deep")->find("a");
  ASSERT_EQ(deep.as_array().size(), 4u);
  EXPECT_TRUE(deep.as_array()[0].is_null());
  EXPECT_EQ(deep.as_array()[3].number_text(), "-1.5e2");
  EXPECT_EQ(v.find("no-such-member"), nullptr);
}

TEST(ServeJson, RejectsHostileInput) {
  const std::vector<std::string> bad = {
      "",                        // empty
      "   ",                     // whitespace only
      "{",                       // truncated object
      "{}x",                     // trailing garbage
      "{\"a\":1,\"a\":2}",       // duplicate key
      "[1,2,]",                  // trailing comma
      "01",                      // leading zero
      "+1",                      // leading plus
      "1.",                      // bare fraction dot
      "nul",                     // truncated keyword
      "\"\\ud800\"",             // unpaired surrogate
      "\"\\q\"",                 // unknown escape
      std::string("\"a\x01b\""), // bare control character
  };
  for (const auto& text : bad) {
    EXPECT_THROW((void)parse_json(text), JsonError) << "input: " << text;
  }
  // Nesting beyond kMaxJsonDepth is a stack-exhaustion attempt.
  std::string deep(kMaxJsonDepth + 1, '[');
  deep += std::string(kMaxJsonDepth + 1, ']');
  EXPECT_THROW((void)parse_json(deep), JsonError);
  // ... while exactly kMaxJsonDepth parses.
  std::string ok(kMaxJsonDepth, '[');
  ok += std::string(kMaxJsonDepth, ']');
  EXPECT_NO_THROW((void)parse_json(ok));
}

TEST(ServeJson, U64ViewIsStrict) {
  EXPECT_EQ(parse_json("18446744073709551615").as_u64("n"),
            18446744073709551615ull);
  for (const char* text : {"-1", "1.5", "1e3", "18446744073709551616"}) {
    EXPECT_THROW((void)parse_json(text).as_u64("n"), std::runtime_error)
        << "number: " << text;
  }
  EXPECT_THROW((void)parse_json("\"7\"").as_u64("n"), std::runtime_error);
}

TEST(ServeJson, ErrorsCarryByteOffsets) {
  try {
    (void)parse_json("{\"a\":1,}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_GT(e.offset(), 0u);
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
}

// ---- frame codec -----------------------------------------------------------

TEST(ServeFrame, RoundTripsByteAtATime) {
  const std::string wire =
      encode_frame("{\"type\":\"ping\",\"id\":\"a\"}") + encode_frame("{}");
  FrameDecoder dec;
  std::vector<std::string> got;
  std::string payload;
  for (const char c : wire) {
    dec.feed(&c, 1);
    while (dec.next(payload)) got.push_back(payload);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "{\"type\":\"ping\",\"id\":\"a\"}");
  EXPECT_EQ(got[1], "{}");
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(ServeFrame, MultipleFramesInOneFeed) {
  const std::string wire = encode_frame("1") + encode_frame("22") + encode_frame("333");
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  std::string payload;
  ASSERT_TRUE(dec.next(payload));
  EXPECT_EQ(payload, "1");
  ASSERT_TRUE(dec.next(payload));
  EXPECT_EQ(payload, "22");
  ASSERT_TRUE(dec.next(payload));
  EXPECT_EQ(payload, "333");
  EXPECT_FALSE(dec.next(payload));
}

TEST(ServeFrame, ZeroLengthPrefixIsBadFrame) {
  FrameDecoder dec;
  const char zeros[4] = {0, 0, 0, 0};
  dec.feed(zeros, sizeof(zeros));
  std::string payload;
  try {
    (void)dec.next(payload);
    FAIL() << "expected FrameError";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.code(), ErrCode::kBadFrame);
  }
}

TEST(ServeFrame, OversizedPrefixIsFrameTooLarge) {
  // kMaxFrameBytes + 1, little-endian — hostile before any payload byte.
  const std::uint32_t len = kMaxFrameBytes + 1;
  char prefix[4];
  for (int i = 0; i < 4; ++i) prefix[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  FrameDecoder dec;
  dec.feed(prefix, sizeof(prefix));
  std::string payload;
  try {
    (void)dec.next(payload);
    FAIL() << "expected FrameError";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.code(), ErrCode::kFrameTooLarge);
  }
}

TEST(ServeFrame, TruncatedFrameStaysBuffered) {
  FrameDecoder dec;
  const std::string wire = encode_frame("hello world");
  dec.feed(wire.data(), wire.size() - 3);
  std::string payload;
  EXPECT_FALSE(dec.next(payload));
  EXPECT_EQ(dec.buffered(), wire.size() - 3);
  dec.feed(wire.data() + wire.size() - 3, 3);
  ASSERT_TRUE(dec.next(payload));
  EXPECT_EQ(payload, "hello world");
}

TEST(ServeFrame, EncodeRefusesWhatDecodeWouldReject) {
  EXPECT_THROW((void)encode_frame(""), std::invalid_argument);
  EXPECT_THROW((void)encode_frame(std::string(kMaxFrameBytes + 1, 'x')),
               std::invalid_argument);
}

// ---- bounded priority queue ------------------------------------------------

TEST(ServeQueue, FifoWithinPriorityHigherFirst) {
  BoundedPriorityQueue<int> q(8);
  ASSERT_TRUE(q.try_push(1, 0));
  ASSERT_TRUE(q.try_push(2, 0));
  ASSERT_TRUE(q.try_push(3, 5));
  ASSERT_TRUE(q.try_push(4, 5));
  ASSERT_TRUE(q.try_push(5, 9));
  // Highest priority first; arrival order within a priority.
  EXPECT_EQ(q.pop(), 5);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
}

TEST(ServeQueue, FullAndClosedRefusePushes) {
  BoundedPriorityQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1, 0));
  EXPECT_TRUE(q.try_push(2, 9));
  EXPECT_FALSE(q.try_push(3, 9)) << "full queue must refuse (busy)";
  EXPECT_EQ(q.pending(), 2u);
  (void)q.pop();
  EXPECT_TRUE(q.try_push(3, 0)) << "a freed slot accepts again";
  q.close();
  EXPECT_FALSE(q.try_push(4, 0)) << "closed queue must refuse (shutting-down)";
}

TEST(ServeQueue, CloseDrainsQueuedWorkThenEnds) {
  BoundedPriorityQueue<int> q(8);
  ASSERT_TRUE(q.try_push(1, 0));
  ASSERT_TRUE(q.try_push(2, 0));
  q.close();
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(ServeQueue, CloseUnblocksAWaitingPopper) {
  BoundedPriorityQueue<int> q(4);
  std::optional<int> got = 42;
  std::thread popper([&] { got = q.pop(); });
  q.close();
  popper.join();
  EXPECT_EQ(got, std::nullopt);
}

// ---- protocol tables (the generated docs/SERVE.md tables) ------------------

TEST(ServeProtocol, MarkdownCoversEveryEnumerator) {
  const std::string md = protocol_markdown();
  for (const auto& name : msg_type_names()) {
    EXPECT_NE(md.find("| `" + name + "` |"), std::string::npos)
        << "message type missing from table: " << name;
  }
  for (const auto& name : err_code_names()) {
    EXPECT_NE(md.find("| `" + name + "` |"), std::string::npos)
        << "error code missing from table: " << name;
  }
  EXPECT_NE(md.find("| Message | Direction | Meaning |"), std::string::npos);
  EXPECT_NE(md.find("| Error code | Sent when |"), std::string::npos);
}

TEST(ServeProtocol, SpellingsRoundTrip) {
  for (std::size_t i = 0; i < msg_type_names().size(); ++i) {
    const auto t = static_cast<MsgType>(i);
    EXPECT_EQ(msg_type_of(msg_type_name(t)), t);
  }
  EXPECT_EQ(msg_type_of("frobnicate"), std::nullopt);
  EXPECT_EQ(msg_type_of(""), std::nullopt);
}

// ---- request parsing: strict by name ---------------------------------------

JsonValue req_json(const std::string& text) { return parse_json(text); }

TEST(ServeRequest, UnknownMembersRejectedByName) {
  try {
    (void)parse_sim_request(req_json(
        R"({"type":"sim","id":"r","trace":"t.rsim","configs":"typo"})"));
    FAIL() << "expected RequestError";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), ErrCode::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("configs"), std::string::npos)
        << "the offending member must be named: " << e.what();
  }
}

TEST(ServeRequest, MissingAndMistypedFieldsRejected) {
  // No trace path.
  EXPECT_THROW((void)parse_sim_request(req_json(R"({"type":"sim","id":"r"})")),
               RequestError);
  // Priority out of range / wrong type.
  EXPECT_THROW((void)parse_sim_request(req_json(
                   R"({"type":"sim","id":"r","trace":"t","priority":10})")),
               RequestError);
  EXPECT_THROW((void)parse_sim_request(req_json(
                   R"({"type":"sim","id":"r","trace":"t","priority":-1})")),
               RequestError);
  EXPECT_THROW((void)parse_sim_request(req_json(
                   R"({"type":"sim","id":"r","trace":"t","skip":"many"})")),
               RequestError);
  // A window smaller than its own warm-up.
  EXPECT_THROW(
      (void)parse_sim_request(req_json(
          R"({"type":"sim","id":"r","trace":"t","warmup":100,"max_records":50})")),
      RequestError);
}

TEST(ServeRequest, SampledSimRefusesAWindowNamingTheMember) {
  // A sampled run places its own windows, as `sim` refuses --skip,
  // --warmup and --max-records next to sample.windows > 0.
  for (const std::string member : {"skip", "warmup", "max_records"}) {
    try {
      (void)parse_sim_request(req_json(R"({"type":"sim","id":"r","trace":"t",)"
                                       R"("set":["sample.windows=4"],")" +
                                       member + R"(":100})"));
      FAIL() << member << " next to sample.windows must be refused";
    } catch (const RequestError& e) {
      EXPECT_EQ(e.code(), ErrCode::kBadRequest);
      EXPECT_NE(std::string(e.what()).find("'" + member + "'"), std::string::npos)
          << "the offending member must be named: " << e.what();
    }
  }
}

TEST(ServeRequest, SetsOverrideInlineConfigText) {
  const SimRequest req = parse_sim_request(req_json(
      R"({"type":"sim","id":"r","trace":"t.rsim",)"
      R"("config":"core.rob_size = 64\ncore.lsq_size = 16\n",)"
      R"("set":["core.rob_size=32"]})"));
  EXPECT_EQ(req.config.rob_size, 32u) << "set must win over inline config text";
  EXPECT_EQ(req.config.lsq_size, 16u) << "inline config text must apply";
}

TEST(ServeRequest, InvalidResolvedConfigIsABadRequest) {
  // width 2 with the default two read ports violates the Optimized
  // pipeline's port budget; the daemon must answer bad-request, not die.
  try {
    (void)parse_sim_request(req_json(
        R"({"type":"sim","id":"r","trace":"t","set":["core.width=2"]})"));
    FAIL() << "expected RequestError";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), ErrCode::kBadRequest);
  }
}

TEST(ServeRequest, BadSetAndBadConfigTextRejected) {
  EXPECT_THROW((void)parse_sim_request(req_json(
                   R"({"type":"sim","id":"r","trace":"t","set":["no.such=1"]})")),
               RequestError);
  EXPECT_THROW((void)parse_sim_request(req_json(
                   R"({"type":"sim","id":"r","trace":"t","config":"garbage"})")),
               RequestError);
}

TEST(ServeRequest, SweepFormatsAndSpecParsing) {
  const std::string base =
      R"({"type":"sweep","id":"r","spec":"bench = gzip\ncore.width = 2,4\n")";
  EXPECT_EQ(parse_sweep_request(req_json(base + "}")).format, SweepFormat::kCsv);
  EXPECT_EQ(parse_sweep_request(req_json(base + R"(,"format":"json"})")).format,
            SweepFormat::kJson);
  EXPECT_EQ(parse_sweep_request(req_json(base + R"(,"format":"csv-full"})")).format,
            SweepFormat::kCsvFull);
  EXPECT_THROW((void)parse_sweep_request(req_json(base + R"(,"format":"xml"})")),
               RequestError);
  const SweepRequest req =
      parse_sweep_request(req_json(base + R"(,"insts":7000})"));
  EXPECT_EQ(req.spec.insts, 7000u);
  ASSERT_EQ(req.spec.axes.size(), 2u);
  EXPECT_EQ(req.spec.axes[1].values.size(), 2u);
}

TEST(ServeRequest, SweepSetsArePinnedAsTheCliPinsThem) {
  const SweepRequest req = parse_sweep_request(req_json(
      R"({"type":"sweep","id":"r","spec":"core.width = 2,8\nset core.lsq_size = 2\n",)"
      R"("config":"core.ifq_size = 2\n","set":["core.lsq_size=4"]})"));
  EXPECT_TRUE(req.spec.is_pinned("core.lsq_size"));
  const auto grid = driver::expand_spec(req.spec);
  ASSERT_EQ(grid.jobs.size(), 2u);
  for (const auto& job : grid.jobs) EXPECT_EQ(job.config.lsq_size, 4u);
  // The config text is the base machine: its IFQ scales with the width.
  EXPECT_EQ(grid.jobs[1].config.ifq_size, 8u);
}

TEST(ServeRequest, RequestIdOfIsBestEffort) {
  EXPECT_EQ(request_id_of(req_json(R"({"id":"abc"})")), "abc");
  EXPECT_EQ(request_id_of(req_json(R"({"id":7})")), "");
  EXPECT_EQ(request_id_of(req_json("{}")), "");
}

// ---- shared trace cache ----------------------------------------------------

trace::Trace generate(const std::string& bench, std::uint64_t insts) {
  trace::TraceGenConfig g;
  g.max_insts = insts;
  return trace::TraceGenerator(workload::make_workload(bench), g).generate();
}

void save(const trace::Trace& t, const std::string& path) {
  save_trace(t, path, 512, /*compress=*/true, /*prefilter=*/false);
}

TEST(ServeTraceCache, TraceStaysResidentWithNoBorrower) {
  const TempPath path("cache_hit.rsim");
  save(generate("gzip", 2000), path);
  SharedTraceCache cache;
  const trace::Trace* first = nullptr;
  std::weak_ptr<const trace::Trace> watch;
  {
    const auto t = cache.get(path);
    first = t.get();
    watch = t;
  }
  ASSERT_FALSE(watch.expired()) << "an idle cache must keep its trace";
  EXPECT_EQ(cache.get(path).get(), first) << "same decode must be served again";
  EXPECT_EQ(cache.loads(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ServeTraceCache, HoldsOneTraceAtATime) {
  const TempPath a("cache_one_a.rsim");
  const TempPath b("cache_one_b.rsim");
  save(generate("gzip", 2000), a);
  save(generate("vpr", 2000), b);
  SharedTraceCache cache;
  const std::weak_ptr<const trace::Trace> first = cache.get(a);
  (void)cache.get(b);
  EXPECT_TRUE(first.expired()) << "loading another trace must release the held one";
  (void)cache.get(a);
  EXPECT_EQ(cache.loads(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ServeTraceCache, FileRewrittenInPlaceReloads) {
  const TempPath path("cache_rewrite.rsim");
  const trace::Trace old = generate("gzip", 2000);
  save(old, path);
  SharedTraceCache cache;
  EXPECT_EQ(cache.get(path)->size(), old.size());
  const trace::Trace fresh = generate("gzip", 3000);
  save(fresh, path);
  const auto t = cache.get(path);
  EXPECT_EQ(t->encode_payload(), fresh.encode_payload()) << "stale trace served";
  EXPECT_EQ(cache.loads(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ServeTraceCache, DeletedFileThrowsNamingPathAndCacheRecovers) {
  const TempPath gone("cache_gone.rsim");
  const TempPath other("cache_other.rsim");
  const trace::Trace kept = generate("vpr", 1500);
  save(generate("gzip", 2000), gone);
  save(kept, other);
  SharedTraceCache cache;
  (void)cache.get(gone);
  std::filesystem::remove(gone.str());
  try {
    (void)cache.get(gone);
    FAIL() << "a deleted trace must not be served";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(gone), std::string::npos) << e.what();
  }
  EXPECT_EQ(cache.get(other)->size(), kept.size());
  EXPECT_EQ(cache.get(other)->size(), kept.size());
  EXPECT_EQ(cache.loads(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ServeTraceCache, ConcurrentGetsOfTwoTracesEachGetTheirOwn) {
  const TempPath a("cache_mt_a.rsim");
  const TempPath b("cache_mt_b.rsim");
  const trace::Trace ta = generate("gzip", 1000);
  const trace::Trace tb = generate("vpr", 1200);
  ASSERT_NE(ta.size(), tb.size());
  save(ta, a);
  save(tb, b);
  SharedTraceCache cache;
  constexpr int kThreads = 4;
  constexpr int kGets = 25;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kGets; ++i) {
        const bool want_a = (i + t) % 3 != 0;
        if (cache.get(want_a ? a : b)->size() != (want_a ? ta : tb).size()) ++wrong;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cache.loads() + cache.hits(), std::uint64_t{kThreads * kGets});
}

// ---- the daemon end to end -------------------------------------------------

/// A raw connection speaking bytes, not the Client abstraction — for
/// sending frames a well-behaved client never would.
class RawConn {
 public:
  explicit RawConn(const std::string& path) : fd_(connect_unix(path)) {}

  void send_raw(std::string_view bytes) {
    ASSERT_TRUE(send_all(fd_.get(), bytes)) << "send failed";
  }

  /// Next frame payload; std::nullopt on connection close.
  std::optional<std::string> read_frame() {
    std::string payload;
    if (dec_.next(payload)) return payload;
    char buf[4096];
    for (;;) {
      const auto n = recv_some(fd_.get(), buf, sizeof(buf));
      if (n <= 0) return std::nullopt;
      dec_.feed(buf, static_cast<std::size_t>(n));
      if (dec_.next(payload)) return payload;
    }
  }

  /// Expect an `error` frame carrying exactly `code`.
  void expect_error(const std::string& code) {
    const auto payload = read_frame();
    ASSERT_TRUE(payload.has_value()) << "connection closed before the error frame";
    const JsonValue v = parse_json(*payload);
    ASSERT_EQ(v.find("type")->as_string(), "error") << *payload;
    EXPECT_EQ(v.find("code")->as_string(), code) << *payload;
  }

  void expect_hello() {
    const auto payload = read_frame();
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(parse_json(*payload).find("type")->as_string(), "hello");
  }

  void close() { fd_.reset(); }

 private:
  ScopedFd fd_;
  FrameDecoder dec_;
};

class ServeDaemonTest : public ::testing::Test {
 protected:
  void start_daemon(unsigned max_pending = 8, unsigned idle_timeout_s = 0) {
    sock_.emplace("served_" +
                  std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
                  ".sock");
    ServeOptions o;
    o.unix_path = *sock_;
    o.threads = 2;
    o.max_pending = max_pending;
    o.idle_timeout_s = idle_timeout_s;
    daemon_.emplace(std::move(o));
    daemon_->start();
  }

  void TearDown() override {
    if (daemon_) {
      daemon_->request_stop();
      daemon_->wait();
    }
    sock_.reset();  // and the socket file, should no daemon have removed it
  }

  std::optional<TempPath> sock_;
  std::optional<Daemon> daemon_;
};

TEST_F(ServeDaemonTest, PingStatusShutdown) {
  start_daemon();
  Client client = Client::connect_to_unix(*sock_);
  client.ping("p1");

  std::ostringstream status;
  (void)client.request(build_status_request("s1"), status);
  const JsonValue v = parse_json(status.str());
  EXPECT_EQ(v.find("id")->as_string(), "s1");
  EXPECT_EQ(v.find("protocol")->as_u64("protocol"), kProtocolVersion);
  EXPECT_EQ(v.find("executing")->as_bool(), false);
  EXPECT_EQ(v.find("open_sessions")->as_u64("open_sessions"), 1u);

  std::ostringstream none;
  (void)client.request(build_shutdown_request("bye"), none);
  daemon_->wait();  // the shutdown request alone must end the daemon
  daemon_.reset();
  EXPECT_FALSE(std::filesystem::exists(sock_->str())) << "socket file left behind";
}

TEST_F(ServeDaemonTest, FinishedSessionsReleaseTheirThreads) {
  // Every connection gets a thread. A finished one must be joined while
  // the daemon runs: left for wait(), each keeps its stack (two
  // mappings) until shutdown.
  const auto mappings = [] {
    std::ifstream maps("/proc/self/maps");
    std::size_t n = 0;
    for (std::string line; std::getline(maps, line);) ++n;
    return n;
  };
  const auto ping_64_times = [this] {
    for (int i = 0; i < 64; ++i) Client::connect_to_unix(*sock_).ping(std::to_string(i));
  };
  start_daemon();
  ping_64_times();  // the allocator's (and a sanitizer's) per-thread pools settle first
  const std::size_t before = mappings();
  ping_64_times();
  EXPECT_LE(mappings(), before + 8);
}

TEST_F(ServeDaemonTest, SimResponseIsByteIdenticalToEngineOutput) {
  start_daemon();
  const TempPath path("served_sim.rsim");
  save_trace(generate("gzip", 4000), path, 512, /*compress=*/true,
             /*prefilter=*/false);

  // Expected bytes, derived independently the way `sim --json` builds
  // them: engine over the file, result_json, trailing newline.
  std::string expected;
  {
    trace::FileTraceSource src(path);
    driver::JobResult jr;
    jr.label = src.trace_name();
    jr.workload = src.trace_name();
    jr.config = core::CoreConfig::paper_4wide_perfect();
    core::ReSimEngine eng(jr.config, src);
    jr.result = eng.run();
    expected = driver::result_json(jr) + '\n';
  }

  Client client = Client::connect_to_unix(*sock_);
  SimRequestSpec spec;
  spec.id = "sim1";
  spec.trace_path = path;
  std::ostringstream got;
  const auto done = client.request(build_sim_request(spec), got);
  EXPECT_EQ(got.str(), expected);
  EXPECT_EQ(done.bytes, expected.size());
}

TEST_F(ServeDaemonTest, SampledSimIsByteIdenticalToTheSampledRun) {
  // sample.windows > 0 samples a served sim as `sim --json` samples it.
  start_daemon();
  const TempPath path("served_sampled.rsim");
  save(generate("gzip", 6000), path);
  const std::vector<std::string> sets = {"sample.windows=4", "sample.window_insts=500",
                                         "sample.warmup_insts=200"};

  std::string expected;
  {
    trace::FileTraceSource src(path);
    driver::JobResult jr;
    jr.label = src.trace_name();
    jr.workload = src.trace_name();
    jr.config = config::resolve_machine("", "test", sets);
    jr.result = driver::run_sampled(jr.config, src, driver::plan_from_config(jr.config, src))
                    .result;
    expected = driver::result_json(jr) + '\n';
  }

  Client client = Client::connect_to_unix(*sock_);
  SimRequestSpec spec;
  spec.id = "sampled";
  spec.trace_path = path;
  spec.sets = sets;
  std::ostringstream got;
  (void)client.request(build_sim_request(spec), got);
  EXPECT_EQ(got.str(), expected);
}

TEST_F(ServeDaemonTest, SecondSimOfOneTraceSkipsTheDecode) {
  start_daemon();
  const TempPath path("served_twice.rsim");
  save(generate("gzip", 3000), path);

  Client client = Client::connect_to_unix(*sock_);
  SimRequestSpec spec;
  spec.trace_path = path;
  std::ostringstream first;
  std::ostringstream second;
  spec.id = "first";
  (void)client.request(build_sim_request(spec), first);
  spec.id = "second";  // sent only after the first's `done`
  (void)client.request(build_sim_request(spec), second);
  EXPECT_EQ(first.str(), second.str());

  std::ostringstream status;
  (void)client.request(build_status_request("s"), status);
  const JsonValue v = parse_json(status.str());
  EXPECT_EQ(v.find("trace_cache_loads")->as_u64("trace_cache_loads"), 1u);
  EXPECT_EQ(v.find("trace_cache_hits")->as_u64("trace_cache_hits"), 1u);
}

TEST_F(ServeDaemonTest, SweepCsvIsByteIdenticalToExporterOutput) {
  start_daemon();
  const std::string spec_text = "bench = gzip\ninsts = 3000\ncore.width = 2,4\n";

  // Expected bytes via the CLI's own path: parse, expand, batch-run at
  // the daemon's thread count, header + rows.
  std::string expected;
  {
    std::istringstream is(spec_text);
    const auto spec = config::parse_sweep_spec(
        is, "test spec", core::CoreConfig::paper_4wide_perfect());
    const auto grid = driver::expand_spec(spec);
    const auto results = driver::BatchRunner(2).run(grid.jobs);
    expected = driver::csv_header(grid.extra_csv_paths) + '\n';
    for (const auto& r : results) {
      expected += driver::csv_row(r, grid.extra_csv_paths) + '\n';
    }
  }

  Client client = Client::connect_to_unix(*sock_);
  SweepRequestSpec spec;
  spec.id = "sw1";
  spec.spec_text = spec_text;
  std::ostringstream got;
  (void)client.request(build_sweep_request(spec), got);
  EXPECT_EQ(got.str(), expected);
}

TEST_F(ServeDaemonTest, InvalidJsonAnswersBadJson) {
  start_daemon();
  RawConn conn(*sock_);
  conn.expect_hello();
  conn.send_raw(encode_frame("this is not json"));
  conn.expect_error("bad-json");
}

TEST_F(ServeDaemonTest, UnknownRequestTypeIsNamed) {
  start_daemon();
  RawConn conn(*sock_);
  conn.expect_hello();
  conn.send_raw(encode_frame(R"({"type":"frobnicate","id":"x"})"));
  conn.expect_error("unknown-type");
}

TEST_F(ServeDaemonTest, NonObjectAndNonRequestPayloadsAreBadRequests) {
  start_daemon();
  RawConn conn(*sock_);
  conn.expect_hello();
  conn.send_raw(encode_frame("42"));
  conn.expect_error("bad-request");
  // `data` is a real message type, but only the server may send it.
  conn.send_raw(encode_frame(R"({"type":"data","id":"x","payload":""})"));
  conn.expect_error("bad-request");
  // Valid type, missing required members.
  conn.send_raw(encode_frame(R"({"type":"sim","id":"x"})"));
  conn.expect_error("bad-request");
}

TEST_F(ServeDaemonTest, HostileLengthPrefixesDropTheConnection) {
  start_daemon();
  {
    RawConn conn(*sock_);
    conn.expect_hello();
    conn.send_raw(std::string(4, '\0'));  // zero-length frame
    conn.expect_error("bad-frame");
    EXPECT_EQ(conn.read_frame(), std::nullopt)
        << "an unsynchronized stream must be dropped";
  }
  {
    RawConn conn(*sock_);
    conn.expect_hello();
    const std::uint32_t len = kMaxFrameBytes + 1;
    std::string prefix(4, '\0');
    for (int i = 0; i < 4; ++i) prefix[i] = static_cast<char>((len >> (8 * i)) & 0xff);
    conn.send_raw(prefix);
    conn.expect_error("frame-too-large");
    EXPECT_EQ(conn.read_frame(), std::nullopt);
  }
  // The daemon is unharmed: a fresh, polite client still gets served.
  Client client = Client::connect_to_unix(*sock_);
  client.ping("still-alive");
}

TEST_F(ServeDaemonTest, TruncatedFrameThenDisconnectLeavesDaemonHealthy) {
  start_daemon();
  {
    RawConn conn(*sock_);
    conn.expect_hello();
    // Announce 100 bytes, deliver 10, vanish.
    std::string prefix(4, '\0');
    prefix[0] = 100;
    conn.send_raw(prefix + std::string(10, 'x'));
    conn.close();
  }
  Client client = Client::connect_to_unix(*sock_);
  client.ping("after-truncation");
}

TEST_F(ServeDaemonTest, MidRequestDisconnectLosesOnlyThatRequest) {
  start_daemon();
  const TempPath path("served_disc.rsim");
  save_trace(generate("gzip", 4000), path, 512, /*compress=*/true,
             /*prefilter=*/false);

  SimRequestSpec spec;
  spec.id = "doomed";
  spec.trace_path = path;
  {
    RawConn conn(*sock_);
    conn.expect_hello();
    conn.send_raw(encode_frame(build_sim_request(spec)));
    conn.close();  // gone before (possibly mid-) response
  }

  // The daemon must still serve the identical request, with identical
  // bytes, to the next client.
  Client client = Client::connect_to_unix(*sock_);
  spec.id = "survivor";
  std::ostringstream a;
  (void)client.request(build_sim_request(spec), a);
  std::ostringstream b;
  (void)client.request(build_sim_request(spec), b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"workload\""), std::string::npos);
}

TEST_F(ServeDaemonTest, ShutdownLeavesASuccessorsSocket) {
  // A second daemon on the same path replaces the first one's socket
  // file; the first one's shutdown must leave the successor's in place.
  start_daemon();
  ServeOptions o;
  o.unix_path = *sock_;
  Daemon second(o);
  second.start();
  daemon_->request_stop();
  daemon_->wait();
  daemon_.reset();
  ASSERT_TRUE(std::filesystem::is_socket(sock_->str()));
  Client::connect_to_unix(*sock_).ping("successor");
  second.request_stop();
  second.wait();
  EXPECT_FALSE(std::filesystem::exists(sock_->str()));
}

TEST_F(ServeDaemonTest, IdleTimeoutShutsTheDaemonDown) {
  start_daemon(/*max_pending=*/8, /*idle_timeout_s=*/1);
  daemon_->wait();  // no connections, no work: must return on its own
  daemon_.reset();
}

}  // namespace
}  // namespace resim::serve
