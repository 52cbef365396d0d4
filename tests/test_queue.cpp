/**
 * @file
 * Tests for the distributed work-queue substrate: wire serialization
 * round-trips and refusals, the protocol line codecs, WorkQueue
 * durability and lease state machine (replay, refusal of foreign
 * journals, torn-tail healing, injected journal I/O failures), and
 * broker runs against the real mrp_worker binary exercising the
 * requeue and bounded-retry-exhaustion paths with injected faults.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "queue/broker.hpp"
#include "queue/wire.hpp"
#include "queue/work_queue.hpp"
#include "runner/checkpoint.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "trace/workloads.hpp"
#include "util/fault_injection.hpp"
#include "util/journal.hpp"
#include "util/json_reader.hpp"
#include "util/logging.hpp"

#ifndef MRP_WORKER_BIN
#define MRP_WORKER_BIN "mrp_worker"
#endif

namespace mrp::queue {
namespace {

class QueueTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        fault::disarmAll();
        for (const auto& p : temp_paths_)
            std::remove(p.c_str());
    }

    std::string
    tempPath(const std::string& name)
    {
        const std::string p = "/tmp/mrp_queue_" + name;
        std::remove(p.c_str());
        temp_paths_.push_back(p);
        return p;
    }

    std::vector<std::string> temp_paths_;
};

std::string
readFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
writeFileRaw(const std::string& path, const std::string& content)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << content;
}

runner::RunRequest
suiteRequest(unsigned index, const char* policy = "LRU")
{
    sim::SingleCoreConfig cfg;
    cfg.hierarchy.llcBytes = 128 * 1024;
    cfg.seed = 5;
    return runner::RunRequest::singleCore(
        trace::TraceSpec::suite(index, 40000),
        runner::PolicySpec::byName(policy), cfg);
}

// --- wire serialization ---------------------------------------------

TEST_F(QueueTest, RequestJsonRoundTripsSingleCore)
{
    auto req = suiteRequest(3, "SRRIP");
    req.label = "my-label";
    req.config = [&] {
        auto c = std::get<sim::SingleCoreConfig>(req.config);
        c.warmupFraction = 0.125;
        c.warmupInstructions = 2000;
        c.hierarchy.prefetcher.streams = 3;
        return c;
    }();

    const std::string j = requestJson(req);
    const auto back = requestFromJson(j, "test");
    EXPECT_EQ(back.label, "my-label");
    EXPECT_EQ(back.policy.name, "SRRIP");
    ASSERT_EQ(back.sources.size(), 1u);
    EXPECT_EQ(back.sources[0].displayName(),
              req.sources[0].displayName());
    const auto& c = std::get<sim::SingleCoreConfig>(back.config);
    EXPECT_EQ(c.hierarchy.llcBytes, 128u * 1024u);
    EXPECT_EQ(c.warmupInstructions, 2000u);
    EXPECT_EQ(c.seed, 5u);
    EXPECT_EQ(c.hierarchy.prefetcher.streams, 3u);
    // Canonical form: serialize(parse(x)) == x.
    EXPECT_EQ(requestJson(back), j);
}

TEST_F(QueueTest, RequestJsonRoundTripsMpppbPayloadAndMultiCore)
{
    core::MpppbConfig mc;
    mc.thresholds.tauBypass = -7;
    mc.bypassEnabled = false;
    std::array<trace::TraceSpec, 4> mix = {
        trace::TraceSpec::suite(1, 30000),
        trace::TraceSpec::suite(2, 30000),
        trace::TraceSpec::suite(3, 30000),
        trace::TraceSpec::suite(4, 30000),
    };
    sim::MultiCoreConfig cfg;
    cfg.measureCycles = 123456;
    auto req = runner::RunRequest::multiCore(
        std::move(mix), runner::PolicySpec::mpppb(mc), cfg);

    const std::string j = requestJson(req);
    const auto back = requestFromJson(j, "test");
    ASSERT_EQ(back.sources.size(), 4u);
    ASSERT_TRUE(back.isMultiCore());
    ASSERT_NE(back.policy.mpppbConfig, nullptr);
    EXPECT_EQ(back.policy.mpppbConfig->thresholds.tauBypass, -7);
    EXPECT_FALSE(back.policy.mpppbConfig->bypassEnabled);
    EXPECT_EQ(std::get<sim::MultiCoreConfig>(back.config).measureCycles,
              123456u);
    EXPECT_EQ(requestJson(back), j);
}

TEST_F(QueueTest, RequestJsonRefusesWhatCannotCrossTheWire)
{
    // Factory policies are closures.
    auto factory_req = suiteRequest(1);
    factory_req.policy = runner::PolicySpec::custom(
        "X", [](const cache::CacheGeometry&, unsigned) {
            return std::unique_ptr<cache::LlcPolicy>();
        });
    try {
        requestJson(factory_req);
        FAIL() << "factory policy must be refused";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }

    // Telemetry-enabled configs are process-local object graphs.
    auto telem_req = suiteRequest(1);
    telem_req.config = [&] {
        auto c = std::get<sim::SingleCoreConfig>(telem_req.config);
        c.telemetry.enabled = true;
        return c;
    }();
    try {
        requestJson(telem_req);
        FAIL() << "telemetry config must be refused";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }

    // Borrowed specs point into this process's memory.
    const auto t = trace::makeSuiteTrace(2, 20000);
    auto borrowed_req = runner::RunRequest::singleCore(
        trace::TraceSpec::borrowed(t), runner::PolicySpec::byName("LRU"));
    try {
        requestJson(borrowed_req);
        FAIL() << "borrowed spec must be refused";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }
}

/** @p j with the number after the first "key": replaced by @p value. */
std::string
withNumber(std::string j, const std::string& key, const std::string& value)
{
    const std::string k = "\"" + key + "\": ";
    const auto at = j.find(k);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return j;
    const auto from = at + k.size();
    const auto to = j.find_first_not_of("0123456789", from);
    return j.replace(from, to - from, value);
}

TEST_F(QueueTest, RequestJsonRejectsBadHierarchyAsCorruptInput)
{
    const std::string j = requestJson(suiteRequest(2));
    const std::pair<const char*, const char*> bad[] = {
        {"streams", "0"},
        {"streams", "65"},
        {"streams", "4294967295"},
        {"streams", "18446744073709551615"},
        {"l1Ways", "0"},
        {"l1Bytes", "1000"},
        {"l2Ways", "4294967304"}, // wraps to 8 if cast unchecked
        {"l2Bytes", "196608"},    // 3 * 64KB: non-power-of-two sets
        {"llcWays", "3"},
        {"llcWays", "128"}, // valid geometry, but past the 64-bit WayMask
        {"llcBytes", "0"},
        {"cores", "0"},
        {"cores", "65"},
        {"cores", "4294967297"}, // wraps to 1 if cast unchecked
    };
    for (const auto& [key, value] : bad) {
        SCOPED_TRACE(std::string(key) + " = " + value);
        const std::string tampered = withNumber(j, key, value);
        ASSERT_NE(tampered, j);
        try {
            requestFromJson(tampered, "test");
            ADD_FAILURE() << "accepted";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::CorruptInput) << e.what();
        }
    }
    // The bounds themselves are accepted.
    for (const char* streams : {"1", "64"}) {
        const auto back =
            requestFromJson(withNumber(j, "streams", streams), "test");
        EXPECT_EQ(std::to_string(std::get<sim::SingleCoreConfig>(
                                     back.config)
                                     .hierarchy.prefetcher.streams),
                  streams);
    }
    const auto at_bounds = requestFromJson(
        withNumber(withNumber(j, "cores", "64"), "llcWays", "64"), "test");
    const auto& h =
        std::get<sim::SingleCoreConfig>(at_bounds.config).hierarchy;
    EXPECT_EQ(h.cores, cache::HierarchyConfig::kMaxCores);
    EXPECT_EQ(h.llcWays, 64u);
}

/** @p j with the first occurrence of @p from replaced by @p to. */
std::string
withText(std::string j, const std::string& from, const std::string& to)
{
    const auto at = j.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at == std::string::npos)
        return j;
    return j.replace(at, from.size(), to);
}

TEST_F(QueueTest, RequestJsonRejectsBadNumbersAsCorruptInput)
{
    core::MpppbConfig mc;
    mc.thresholds.tau = {10, 20, 30};
    mc.thresholds.pi = {1, 2, 3};
    auto req = suiteRequest(2);
    req.policy = runner::PolicySpec::mpppb(mc);
    const std::string j = requestJson(req);
    const std::string tau = "\"tau\": [10, ";
    const std::string pi = "\"pi\": [1, ";
    const std::string bad[] = {
        // Casting these to an integer unchecked is undefined.
        withNumber(j, "cores", "-1"),
        withNumber(j, "cores", "1e999"),
        withText(j, "\"seed\": 5}", "\"seed\": 18446744073709551616}"),
        withNumber(j, "l1Latency", "-3"),
        withNumber(j, "duelingPeriod", "4294967296"),
        // A count is whole.
        withNumber(j, "cores", "1.5"),
        withNumber(j, "samplerAssoc", "16.25"),
        // Array elements are checked numbers too.
        withText(j, pi, "\"pi\": [\"x\", "),
        withText(j, pi, "\"pi\": [-1, "),
        withText(j, tau, "\"tau\": [null, "),
        withText(j, tau, "\"tau\": [2147483648, "),
        // Used to be truncated to 32 bits.
        withNumber(j, "sampledSetsPerCore", "4294967360"),
        // Outside what the predictor accepts.
        withNumber(j, "weightBits", "0"),
        withNumber(j, "weightBits", "9"),
        withText(j, "\"confidenceClamp\": 255", "\"confidenceClamp\": -1"),
    };
    for (const std::string& tampered : bad) {
        SCOPED_TRACE(tampered);
        ASSERT_NE(tampered, j);
        try {
            requestFromJson(tampered, "test");
            ADD_FAILURE() << "accepted";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::CorruptInput) << e.what();
        }
    }
    // The bounds themselves, and negative values where a field is
    // signed, are accepted.
    const auto back = requestFromJson(
        withText(withNumber(withNumber(j, "weightBits", "8"),
                            "confidenceClamp", "0"),
                 tau, "\"tau\": [-2147483648, "),
        "test");
    ASSERT_NE(back.policy.mpppbConfig, nullptr);
    EXPECT_EQ(back.policy.mpppbConfig->predictor.weightBits, 8u);
    EXPECT_EQ(back.policy.mpppbConfig->predictor.confidenceClamp, 0);
    EXPECT_EQ(back.policy.mpppbConfig->thresholds.tau[0], INT_MIN);
    EXPECT_EQ(requestFromJson(withNumber(j, "weightBits", "1"), "test")
                  .policy.mpppbConfig->predictor.weightBits,
              1u);
}

// --- protocol lines --------------------------------------------------

TEST_F(QueueTest, ProtocolLinesRoundTrip)
{
    const auto hello = parseHello(helloLine(4242));
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->pid, 4242u);
    EXPECT_EQ(hello->schema, kWireSchemaVersion);

    const auto hb = parseHeartbeat(heartbeatLine(7, 0xabcdu, 19));
    ASSERT_TRUE(hb.has_value());
    EXPECT_EQ(hb->jobId, 7u);
    EXPECT_EQ(hb->spanId, 0xabcdu);
    EXPECT_EQ(hb->seq, 19u);

    const std::string payload = "{\"k\": [1, 2]}";
    const obs::SpanContext ctx{0x1122334455667788ull, 0x99aabbccddeeff00ull};
    const auto job = parseJob(jobLine(3, ctx, payload));
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->jobId, 3u);
    EXPECT_EQ(job->traceId, ctx.traceId);
    EXPECT_EQ(job->spanId, ctx.spanId);
    EXPECT_EQ(job->json, payload);

    const auto res = parseResult(resultLine(9, ctx.spanId, payload));
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->jobId, 9u);
    EXPECT_EQ(res->spanId, ctx.spanId);
    EXPECT_EQ(res->json, payload);

    const auto ob = parseObs(obsLine(5, ctx.spanId, payload));
    ASSERT_TRUE(ob.has_value());
    EXPECT_EQ(ob->jobId, 5u);
    EXPECT_EQ(ob->spanId, ctx.spanId);
    EXPECT_EQ(ob->json, payload);
}

TEST_F(QueueTest, ProtocolParsersRejectGarbageAndBadChecksums)
{
    EXPECT_FALSE(parseHello("HELLO").has_value());
    EXPECT_FALSE(parseHello("HELLO x y").has_value());
    EXPECT_FALSE(parseHeartbeat("HB 1").has_value());
    // v1-shaped lines (no span context) are rejected at parse time.
    EXPECT_FALSE(parseHeartbeat("HB 1 19").has_value());
    EXPECT_FALSE(parseJob("JOB 1 deadbeef {}").has_value());
    EXPECT_FALSE(parseResult("").has_value());
    EXPECT_FALSE(parseResult("RESULT 1").has_value());
    // Span ids must be exactly 16 lowercase hex digits.
    EXPECT_FALSE(
        parseResult("RESULT 1 DEADBEEF00000000 deadbeef {}")
            .has_value());
    // A corrupted payload byte must fail the CRC frame.
    std::string line = resultLine(1, 0xbeef, "{\"a\": 1}");
    line[line.size() - 2] ^= 0x20;
    EXPECT_FALSE(parseResult(line).has_value());
}

// --- WorkQueue -------------------------------------------------------

TEST_F(QueueTest, QueueReplaysStateAcrossReopen)
{
    const std::string path = tempPath("replay.jsonl");
    {
        WorkQueue q(path, "fp1");
        q.ensureEnqueued(0, "{\"r\": 0}");
        q.ensureEnqueued(1, "{\"r\": 1}");
        q.ensureEnqueued(2, "{\"r\": 2}");
        EXPECT_EQ(q.lease(0), 1u);
        q.complete(0, "{\"res\": 0}");
        EXPECT_EQ(q.lease(1), 1u);
        q.requeue(1, "worker-exit", ErrorCode::Resource);
        EXPECT_EQ(q.lease(1), 2u);
        // Job 1 left Leased, job 2 untouched; "crash" here.
    }
    WorkQueue q(path, "fp1");
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.doneCount(), 1u);
    EXPECT_EQ(q.job(0).state, JobState::Done);
    EXPECT_EQ(q.job(0).resultJson, "{\"res\": 0}");
    // The in-flight lease died with the broker: back to Pending, with
    // its attempt count preserved for the lease budget.
    EXPECT_EQ(q.job(1).state, JobState::Pending);
    EXPECT_EQ(q.job(1).attempts, 2u);
    EXPECT_EQ(q.job(2).state, JobState::Pending);
    EXPECT_EQ(q.pendingIds(), (std::vector<std::uint64_t>{1, 2}));
    // Enqueues replay idempotently; next lease continues the count.
    q.ensureEnqueued(1, "{\"r\": 1}");
    EXPECT_EQ(q.lease(1), 3u);
}

TEST_F(QueueTest, QueueToleratesTornTail)
{
    const std::string path = tempPath("torn.jsonl");
    {
        WorkQueue q(path, "fp1");
        q.ensureEnqueued(0, "{\"r\": 0}");
        q.ensureEnqueued(1, "{\"r\": 1}");
    }
    writeFileRaw(path, readFile(path) + "deadbeef {\"type\":\"enq");
    WorkQueue q(path, "fp1");
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pendingIds().size(), 2u);
}

TEST_F(QueueTest, QueueRefusesHeaderlessJournal)
{
    const std::string path = tempPath("headerless.jsonl");
    // A checkpoint journal from the pre-queue era: valid frames, but
    // no queue header record.
    writeFileRaw(path,
                 journal::frameLine("{\"index\": 0, \"ok\": true}"));
    try {
        WorkQueue q(path, "fp1");
        FAIL() << "headerless journal must be refused";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
        EXPECT_NE(std::string(e.what()).find("header"),
                  std::string::npos);
    }
}

TEST_F(QueueTest, QueueRefusesFutureSchema)
{
    const std::string path = tempPath("schema.jsonl");
    writeFileRaw(path,
                 journal::frameLine("{\"type\": \"header\", \"schema\": "
                                    "999, \"fingerprint\": \"fp1\"}"));
    try {
        WorkQueue q(path, "fp1");
        FAIL() << "foreign schema must be refused";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
        EXPECT_NE(std::string(e.what()).find("schema"),
                  std::string::npos);
    }
}

TEST_F(QueueTest, QueueRestartsFreshOnFingerprintMismatch)
{
    const std::string path = tempPath("fp.jsonl");
    {
        WorkQueue q(path, "fp1");
        q.ensureEnqueued(0, "{\"r\": 0}");
        q.lease(0);
        q.complete(0, "{\"res\": 0}");
    }
    // A different batch reusing the path: scratch semantics, not
    // refusal — the stale queue is discarded.
    WorkQueue q(path, "fp2");
    EXPECT_EQ(q.size(), 0u);
    q.ensureEnqueued(0, "{\"r\": other}");
    EXPECT_EQ(q.job(0).state, JobState::Pending);
}

TEST_F(QueueTest, QueueRefusesMismatchedRequeuedEnqueue)
{
    const std::string path = tempPath("mismatch.jsonl");
    WorkQueue q(path, "fp1");
    q.ensureEnqueued(0, "{\"r\": 0}");
    try {
        q.ensureEnqueued(0, "{\"r\": different}");
        FAIL() << "byte-different re-enqueue must be refused";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Config);
    }
}

TEST_F(QueueTest, QueueJournalIoFaultsSurfaceAsIo)
{
    {
        fault::Scoped f("queue.journal.open", {});
        try {
            WorkQueue q(tempPath("io_open.jsonl"), "fp1");
            FAIL() << "injected open failure must surface";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::Io);
        }
    }
    WorkQueue q(tempPath("io_write.jsonl"), "fp1");
    fault::Scoped f("queue.journal.write", {});
    try {
        q.ensureEnqueued(0, "{\"r\": 0}");
        FAIL() << "injected write failure must surface";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Io);
    }
}

// --- broker + real worker processes ---------------------------------

BrokerConfig
smallBrokerConfig(const std::string& queue_path, unsigned workers)
{
    BrokerConfig cfg;
    cfg.workerBin = MRP_WORKER_BIN;
    cfg.workers = workers;
    cfg.queuePath = queue_path;
    cfg.heartbeatMs = 10;
    cfg.backoffSeconds = 0.001;
    return cfg;
}

std::vector<runner::RunRequest>
smallBatch()
{
    std::vector<runner::RunRequest> batch;
    for (unsigned w : {1u, 2u})
        for (const char* p : {"LRU", "SRRIP"})
            batch.push_back(suiteRequest(w, p));
    return batch;
}

TEST_F(QueueTest, BrokerMatchesInProcessRunnerByteForByte)
{
    const auto batch = smallBatch();
    const auto reference = runner::ExperimentRunner(1).run(batch);
    for (unsigned workers : {1u, 2u}) {
        const Broker broker(smallBrokerConfig(
            tempPath("basic_w" + std::to_string(workers) + ".jsonl"),
            workers));
        const auto set = broker.run(batch);
        EXPECT_EQ(runner::toJson(set), runner::toJson(reference));
        EXPECT_EQ(runner::toCsv(set), runner::toCsv(reference));
    }
}

TEST_F(QueueTest, TransientWorkerFaultIsRequeuedThenSucceeds)
{
    // The worker's first execution attempt fails with an injected
    // retryable I/O error (maxFires=1); the broker must requeue and
    // the second lease — same worker, fault exhausted — succeeds.
    telemetry::MetricsRegistry metrics;
    auto cfg = smallBrokerConfig(tempPath("transient.jsonl"), 1);
    cfg.metrics = &metrics;
    cfg.workerArgs = {"--fault", "runner.execute:io:1:1"};
    const Broker broker(cfg);

    const auto set = broker.run({suiteRequest(1)});
    ASSERT_EQ(set.results.size(), 1u);
    EXPECT_TRUE(set.results[0].ok()) << set.results[0].error;
    EXPECT_EQ(metrics.counter("queue.requeued").value(), 1);
    EXPECT_EQ(metrics.counter("queue.requeue_exhausted").value(), 0);

    // And the recovered result is still byte-identical.
    const auto reference =
        runner::ExperimentRunner(1).run({suiteRequest(1)});
    EXPECT_EQ(runner::toJson(set), runner::toJson(reference));
}

TEST_F(QueueTest, PersistentFaultExhaustsLeaseBudget)
{
    // Every attempt fails (maxFires=-1): the job must be requeued
    // maxAttempts-1 times, then completed as a failed-typed result
    // carrying the relayed error code.
    telemetry::MetricsRegistry metrics;
    auto cfg = smallBrokerConfig(tempPath("exhaust.jsonl"), 1);
    cfg.metrics = &metrics;
    cfg.maxAttempts = 2;
    cfg.workerArgs = {"--fault", "runner.execute:io:1:-1"};
    const Broker broker(cfg);

    const auto set = broker.run({suiteRequest(1, "SRRIP")});
    ASSERT_EQ(set.results.size(), 1u);
    EXPECT_FALSE(set.results[0].ok());
    EXPECT_EQ(set.results[0].errorCode, ErrorCode::Io);
    EXPECT_NE(set.results[0].error.find("after 2 attempt(s)"),
              std::string::npos)
        << set.results[0].error;
    // Identity fields survive failure so reports stay well-formed.
    EXPECT_EQ(set.results[0].policy, "SRRIP");
    EXPECT_FALSE(set.results[0].benchmark.empty());
    EXPECT_EQ(metrics.counter("queue.requeue_exhausted").value(), 1);
    EXPECT_EQ(metrics.counter("queue.requeued").value(), 1);
}

TEST_F(QueueTest, BrokerRefusesMissingWorkerBinary)
{
    auto cfg = smallBrokerConfig(tempPath("nobin.jsonl"), 1);
    cfg.workerBin = "/nonexistent/mrp_worker";
    cfg.workerRestartBudget = 0;
    const Broker broker(cfg);
    try {
        broker.run({suiteRequest(1)});
        FAIL() << "unspawnable worker pool must be fatal";
    } catch (const FatalError& e) {
        EXPECT_TRUE(e.code() == ErrorCode::Resource ||
                    e.code() == ErrorCode::Io)
            << errorCodeName(e.code());
    }
}

TEST_F(QueueTest, BrokerJournalsCompletionsBeforeQueueComplete)
{
    // With a checkpoint journal attached, every Done job in the queue
    // must already be present in the journal — the crash-consistency
    // ordering recordCompletion guarantees.
    const std::string journal = tempPath("ordering_journal.jsonl");
    const std::string qpath = tempPath("ordering_queue.jsonl");
    const Broker broker(smallBrokerConfig(qpath, 2));
    runner::RunnerOptions opts;
    opts.journalPath = journal;
    const auto batch = smallBatch();
    const auto set = broker.run(batch, opts);
    ASSERT_EQ(set.results.size(), batch.size());

    const auto restored = runner::loadJournal(journal);
    EXPECT_EQ(restored.size(), batch.size());
    // A fresh broker over the same queue path re-runs nothing: all
    // jobs replay as Done (the execution odometer of choice here is
    // the queue journal itself — no new lease records).
    const std::string before = readFile(qpath);
    const auto again =
        Broker(smallBrokerConfig(qpath, 1)).run(batch);
    EXPECT_EQ(runner::toJson(again), runner::toJson(set));
    EXPECT_EQ(readFile(qpath), before);
}

} // namespace
} // namespace mrp::queue
