#include "runner/experiment_runner.hpp"

#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <thread>
#include <utility>

#include "prof/profiler.hpp"
#include "runner/checkpoint.hpp"
#include "sim/policies.hpp"
#include "util/fault_injection.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::runner {

namespace {

/**
 * One worker's queue of request indices. Owners pop from the front,
 * thieves steal from the back, so a stolen task is the one the owner
 * would have reached last — the classic work-stealing discipline,
 * which keeps steals rare when the initial round-robin split is
 * already balanced.
 */
class StealQueue
{
  public:
    void
    push(std::size_t idx)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(idx);
    }

    std::optional<std::size_t>
    popFront()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (tasks_.empty())
            return std::nullopt;
        const std::size_t idx = tasks_.front();
        tasks_.pop_front();
        return idx;
    }

    std::optional<std::size_t>
    stealBack()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (tasks_.empty())
            return std::nullopt;
        const std::size_t idx = tasks_.back();
        tasks_.pop_back();
        return idx;
    }

  private:
    std::mutex mutex_;
    std::deque<std::size_t> tasks_;
};

/**
 * Serialized emitter of live progress events (see the RunnerOptions
 * field docs). Every event is rendered into one complete line and
 * written with a single fwrite under the mutex, so lines from
 * concurrent workers never interleave; streams are flushed per line
 * but never fsync'd.
 */
class ProgressSink
{
  public:
    ProgressSink(bool to_stderr, const std::string& jsonl_path)
        : stderr_(to_stderr)
    {
        if (!jsonl_path.empty()) {
            file_ = std::fopen(jsonl_path.c_str(), "w");
            fatalIf(file_ == nullptr, ErrorCode::Io,
                    "cannot open progress file for writing: " +
                        jsonl_path);
        }
    }

    ~ProgressSink()
    {
        if (file_)
            std::fclose(file_);
    }

    ProgressSink(const ProgressSink&) = delete;
    ProgressSink& operator=(const ProgressSink&) = delete;

    void
    batchStart(std::size_t total, std::size_t skipped)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        total_ = total;
        emitJson("{\"event\": \"batch_start\", \"total\": " +
                 std::to_string(total) +
                 ", \"skipped\": " + std::to_string(skipped) + "}");
        if (skipped > 0)
            emitHuman("[0/" + std::to_string(total) + "] resumed, " +
                      std::to_string(skipped) + " run(s) skipped");
    }

    void
    runSkipped(std::size_t index, const std::string& label)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        emitJson("{\"event\": \"run_skipped\", \"index\": " +
                 std::to_string(index) +
                 ", \"label\": " + json::str(label) + "}");
    }

    void
    runStart(std::size_t index, const std::string& label)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++running_;
        emitJson("{\"event\": \"run_start\", \"index\": " +
                 std::to_string(index) +
                 ", \"label\": " + json::str(label) + "}");
        emitHuman(position() + " start " + label + status());
    }

    void
    runRetry(std::size_t index, const std::string& label,
             unsigned next_attempt, ErrorCode code)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        emitJson("{\"event\": \"run_retry\", \"index\": " +
                 std::to_string(index) +
                 ", \"label\": " + json::str(label) +
                 ", \"attempt\": " + std::to_string(next_attempt) +
                 ", \"errorCode\": " +
                 json::str(errorCodeName(code)) + "}");
        emitHuman(position() + " retry #" +
                  std::to_string(next_attempt) + " " + label + " (" +
                  errorCodeName(code) + ")");
    }

    void
    runEnd(const RunResult& r)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (running_ > 0)
            --running_;
        r.ok() ? ++completed_ : ++failed_;
        const char* status = r.ok() ? "ok" : "failed";
        std::string line =
            "{\"event\": \"run_end\", \"index\": " +
            std::to_string(r.index) +
            ", \"label\": " + json::str(r.label) +
            ", \"status\": \"" + status + "\"";
        if (!r.ok())
            line += ", \"errorCode\": " +
                    json::str(errorCodeName(r.errorCode));
        line += ", \"wallSeconds\": " +
                json::formatDouble(r.wallSeconds) +
                ", \"attempts\": " + std::to_string(r.attempts) +
                ", \"completed\": " + std::to_string(completed_) +
                ", \"failed\": " + std::to_string(failed_) +
                ", \"running\": " + std::to_string(running_) +
                ", \"total\": " + std::to_string(total_);
        const double eta = etaSeconds();
        if (eta >= 0.0)
            line += ", \"etaSeconds\": " + json::formatDouble(eta);
        line += "}";
        emitJson(line);

        std::string human = position() + " " + status + " " + r.label;
        char buf[64];
        std::snprintf(buf, sizeof(buf), " (%.1fs", r.wallSeconds);
        human += buf;
        if (r.attempts > 1)
            human += ", " + std::to_string(r.attempts) + " attempts";
        if (eta >= 0.0) {
            std::snprintf(buf, sizeof(buf), ", eta %.0fs", eta);
            human += buf;
        }
        human += ")" + status2();
        emitHuman(human);
    }

    void
    batchEnd(double wall_seconds)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        emitJson("{\"event\": \"batch_end\", \"completed\": " +
                 std::to_string(completed_) +
                 ", \"failed\": " + std::to_string(failed_) +
                 ", \"total\": " + std::to_string(total_) +
                 ", \"wallSeconds\": " +
                 json::formatDouble(wall_seconds) + "}");
        char buf[64];
        std::snprintf(buf, sizeof(buf), " done in %.1fs",
                      wall_seconds);
        emitHuman("[" + std::to_string(completed_ + failed_) + "/" +
                  std::to_string(total_) + "]" + buf +
                  (failed_ > 0
                       ? ", " + std::to_string(failed_) + " failed"
                       : ""));
    }

  private:
    // All helpers assume mutex_ is held.

    std::string
    position() const
    {
        return "[" + std::to_string(completed_ + failed_) + "/" +
               std::to_string(total_) + "]";
    }

    std::string
    status() const
    {
        return running_ > 1
                   ? " (+" + std::to_string(running_ - 1) + " running)"
                   : "";
    }

    std::string
    status2() const
    {
        return running_ > 0
                   ? ", " + std::to_string(running_) + " running"
                   : "";
    }

    /** Elapsed/completed extrapolation; negative = not estimable. */
    double
    etaSeconds() const
    {
        const std::size_t done = completed_ + failed_;
        if (done == 0 || total_ <= done)
            return total_ <= done ? 0.0 : -1.0;
        const double elapsed = since_.seconds();
        return elapsed / static_cast<double>(done) *
               static_cast<double>(total_ - done);
    }

    void
    emitJson(const std::string& line)
    {
        if (!file_)
            return;
        const std::string full = line + "\n";
        std::fwrite(full.data(), 1, full.size(), file_);
        std::fflush(file_); // flushed, never fsync'd
    }

    void
    emitHuman(const std::string& line)
    {
        if (!stderr_)
            return;
        const std::string full = "mrp: " + line + "\n";
        std::fwrite(full.data(), 1, full.size(), stderr);
        std::fflush(stderr);
    }

    std::mutex mutex_;
    bool stderr_ = false;
    std::FILE* file_ = nullptr;
    std::size_t total_ = 0;
    std::size_t completed_ = 0;
    std::size_t failed_ = 0;
    std::size_t running_ = 0;
    prof::Stopwatch since_;
};

void
validate(const RunRequest& req, std::size_t idx)
{
    if (req.isMultiCore())
        fatalIf(req.sources.size() < 2,
                "request " + std::to_string(idx) + ": " +
                    std::to_string(req.sources.size()) +
                    " source(s) for a multi-core config (need >= 2)");
    else
        fatalIf(req.sources.size() != 1,
                "request " + std::to_string(idx) + ": " +
                    std::to_string(req.sources.size()) +
                    " source(s) for a single-core config (need 1)");
    fatalIf(req.policy.name.empty(),
            "request " + std::to_string(idx) + ": empty policy name");
}

std::string
mixName(const std::vector<trace::TraceSpec>& sources)
{
    std::string out;
    for (const auto& s : sources) {
        if (!out.empty())
            out += "+";
        out += s.displayName();
    }
    return out;
}

/** True when `name` alone decides the policy (no factory override and
 * no MPPPB configuration payload). */
bool
byNameOnly(const PolicySpec& p)
{
    return !p.factory && !p.mpppbConfig;
}

sim::PolicyFactory
resolveFactory(const PolicySpec& p)
{
    if (p.factory)
        return p.factory;
    if (p.mpppbConfig)
        return sim::makeMpppbFactory(*p.mpppbConfig);
    return sim::PolicyRegistry::make(p.name);
}

void
executeInto(const RunRequest& req, RunResult& out)
{
    // Resilience-test sites: a stall simulates a wedged worker (the
    // watchdog's prey), an I/O fault a transient failure (retry bait).
    fault::checkStall("runner.execute.stall");
    fault::checkIo("runner.execute", "executing request");

    // Open one fresh source per spec per attempt: workers never share
    // stream cursors, so any --jobs value replays the same per-run
    // record sequences and the batch outcome stays bit-identical.
    if (req.isMultiCore()) {
        const auto& cfg = std::get<sim::MultiCoreConfig>(req.config);
        fatalIf(req.policy.name == "MIN" && byNameOnly(req.policy),
                "MIN needs a single-core request (two-pass oracle)");
        const auto factory = resolveFactory(req.policy);
        const std::size_t n = req.sources.size();
        std::vector<std::unique_ptr<trace::TraceSource>> opened(n);
        std::vector<trace::TraceSource*> mix(n, nullptr);
        for (std::size_t c = 0; c < n; ++c) {
            opened[c] = req.sources[c].open(req.openOptions);
            mix[c] = opened[c].get();
        }
        const auto r = sim::runMultiCore(
            std::span<trace::TraceSource* const>(mix), factory, cfg);
        out.policy = req.policy.name;
        out.ipc = 0.0;
        out.instructions = 0;
        out.coreIpc.assign(r.ipc.begin(), r.ipc.end());
        for (std::size_t c = 0; c < n; ++c) {
            out.ipc += r.ipc[c];
            out.instructions += r.instructions[c];
        }
        out.llcDemandMisses = r.llcDemandMisses;
        out.mpki = r.mpki;
        out.telemetry = r.telemetry;
        return;
    }

    const auto& cfg = std::get<sim::SingleCoreConfig>(req.config);
    const auto source = req.sources[0].open(req.openOptions);
    sim::SingleCoreResult r;
    if (req.policy.name == "MIN" && byNameOnly(req.policy)) {
        r = sim::runSingleCoreMin(*source, cfg);
    } else {
        r = sim::runSingleCore(*source, resolveFactory(req.policy),
                               cfg);
    }
    out.policy = r.policy;
    out.ipc = r.ipc;
    out.mpki = r.mpki;
    out.instructions = r.instructions;
    out.llcDemandAccesses = r.llcDemandAccesses;
    out.llcDemandMisses = r.llcDemandMisses;
    out.llcBypasses = r.llcBypasses;
    out.telemetry = r.telemetry;
}

/** Identity fields of a result, shared by success and failure paths. */
void
stampIdentity(const RunRequest& req, std::size_t index, RunResult& out)
{
    out.index = index;
    out.benchmark = mixName(req.sources);
    out.policy = req.policy.name;
    out.label = req.label.empty() ? out.benchmark : req.label;
    out.multiCore = req.isMultiCore();
    out.seed = std::visit(
        [](const auto& cfg) { return cfg.seed; }, req.config);
}

/** One attempt, all failures captured as typed error data. */
RunResult
attemptOne(const RunRequest& request, std::size_t index, bool profile)
{
    RunResult out;
    stampIdentity(request, index, out);
    const prof::Stopwatch watch;

    // One profiler per attempt, attached to this worker thread only —
    // the runner parallelizes across runs, so per-thread attachment is
    // exactly per-run attribution.
    std::unique_ptr<prof::Profiler> profiler;
    if (profile)
        profiler = std::make_unique<prof::Profiler>();
    {
        std::optional<prof::Attach> attach;
        if (profiler)
            attach.emplace(*profiler);
        try {
            executeInto(request, out);
        } catch (const PanicError& e) {
            out = RunResult{};
            stampIdentity(request, index, out);
            out.error = e.what();
            out.errorCode = ErrorCode::Internal;
        } catch (const FatalError& e) {
            out = RunResult{};
            stampIdentity(request, index, out);
            out.error = e.what();
            out.errorCode = e.code();
        } catch (const std::bad_alloc&) {
            out = RunResult{};
            stampIdentity(request, index, out);
            out.error = "out of memory executing request";
            out.errorCode = ErrorCode::Resource;
        } catch (const std::exception& e) {
            out = RunResult{};
            stampIdentity(request, index, out);
            out.error = e.what();
            out.errorCode = ErrorCode::Internal;
        }
    }
    if (profiler) {
        auto report = std::make_shared<prof::ProfileReport>(
            profiler->finish());
        report->setThroughput(out.instructions, out.llcDemandAccesses);
        out.profile = std::move(report);
    }
    out.wallSeconds = watch.seconds();
    if (out.wallSeconds > 0.0 && out.instructions > 0)
        out.instsPerSecond =
            static_cast<double>(out.instructions) / out.wallSeconds;
    return out;
}

/** runOne with retry/watchdog plus optional progress reporting. */
RunResult
runOneImpl(const RunRequest& request, std::size_t index,
           const RunnerOptions& options, ProgressSink* sink)
{
    RunResult out;
    for (unsigned attempt = 0;; ++attempt) {
        out = attemptOne(request, index, options.profile);
        out.attempts = attempt + 1;
        if (out.ok() && options.timeoutSeconds > 0.0 &&
            out.wallSeconds > options.timeoutSeconds) {
            // Cooperative watchdog: the run finished but blew its
            // deadline; discard its metrics and classify as a
            // (retryable) timeout.
            const double wall = out.wallSeconds;
            const unsigned attempts = out.attempts;
            out = RunResult{};
            stampIdentity(request, index, out);
            out.error = "run exceeded watchdog timeout (" +
                        std::to_string(wall) + "s > " +
                        std::to_string(options.timeoutSeconds) +
                        "s limit)";
            out.errorCode = ErrorCode::Timeout;
            out.wallSeconds = wall;
            out.attempts = attempts;
        }
        if (out.ok() || !isRetryable(out.errorCode) ||
            attempt >= options.maxRetries)
            return out;
        if (sink)
            sink->runRetry(index, out.label, attempt + 2,
                           out.errorCode);
        // Deterministic exponential backoff: base * 2^attempt.
        const double delay =
            options.retryBackoffSeconds *
            static_cast<double>(1ull << std::min(attempt, 20u));
        if (delay > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(delay));
    }
}

} // namespace

ExperimentRunner::ExperimentRunner(unsigned jobs) : jobs_(jobs)
{
    if (jobs_ == 0)
        jobs_ = std::max(1u, std::thread::hardware_concurrency());
}

RunResult
ExperimentRunner::runOne(const RunRequest& request, std::size_t index)
{
    validate(request, index);
    return attemptOne(request, index, /*profile=*/false);
}

RunResult
ExperimentRunner::runOne(const RunRequest& request, std::size_t index,
                         const RunnerOptions& options)
{
    validate(request, index);
    return runOneImpl(request, index, options, /*sink=*/nullptr);
}

RunSet
ExperimentRunner::run(const std::vector<RunRequest>& batch) const
{
    return run(batch, RunnerOptions{});
}

RunSet
ExperimentRunner::run(const std::vector<RunRequest>& batch,
                      const RunnerOptions& options) const
{
    for (std::size_t i = 0; i < batch.size(); ++i)
        validate(batch[i], i);

    RunSet set;
    set.results.resize(batch.size());
    std::vector<char> completed(batch.size(), 0);

    std::unique_ptr<ProgressSink> sink;
    if (options.progressStderr || !options.progressJsonlPath.empty())
        sink = std::make_unique<ProgressSink>(
            options.progressStderr, options.progressJsonlPath);

    // Resume: restore journaled results and skip their indices.
    if (!options.resumePath.empty()) {
        auto loaded = loadJournal(options.resumePath);
        for (auto& r : loaded) {
            fatalIf(r.index >= batch.size(), ErrorCode::Config,
                    "resume journal " + options.resumePath +
                        " entry index " + std::to_string(r.index) +
                        " is out of range for this batch of " +
                        std::to_string(batch.size()));
            const auto& req = batch[r.index];
            const std::string bench = mixName(req.sources);
            const std::string label =
                req.label.empty() ? bench : req.label;
            fatalIf(r.benchmark != bench ||
                        r.policy != req.policy.name ||
                        r.label != label ||
                        r.multiCore != req.isMultiCore(),
                    ErrorCode::Config,
                    "resume journal " + options.resumePath +
                        " does not match this batch at index " +
                        std::to_string(r.index) + " (journal has " +
                        r.benchmark + "/" + r.policy +
                        ", batch wants " + bench + "/" +
                        req.policy.name + ")");
            const std::size_t idx = r.index;
            set.results[idx] = std::move(r);
            completed[idx] = 1;
        }
    }

    // Open the journal after resume so healing a torn tail cannot
    // race the load when both point at the same file.
    std::unique_ptr<CheckpointJournal> journal;
    if (!options.journalPath.empty())
        journal =
            std::make_unique<CheckpointJournal>(options.journalPath);

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < batch.size(); ++i)
        if (!completed[i])
            pending.push_back(i);

    if (sink) {
        sink->batchStart(batch.size(), batch.size() - pending.size());
        for (std::size_t i = 0; i < batch.size(); ++i)
            if (completed[i])
                sink->runSkipped(i, set.results[i].label);
    }

    const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
        jobs_, std::max<std::size_t>(1, pending.size())));
    set.jobs = workers;
    const prof::Stopwatch batch_watch;

    // A journal-append failure must not escape a worker thread (that
    // would terminate the process); record the first one and raise it
    // after the batch drains.
    std::mutex journal_err_mutex;
    std::string journal_err;
    ErrorCode journal_err_code = ErrorCode::Io;
    const auto complete = [&](std::size_t idx, RunResult r) {
        if (journal) {
            try {
                journal->append(r); // thread-safe; fsync'd per line
            } catch (const FatalError& e) {
                std::lock_guard<std::mutex> lock(journal_err_mutex);
                if (journal_err.empty()) {
                    journal_err = e.what();
                    journal_err_code = e.code();
                }
            }
        }
        if (sink)
            sink->runEnd(r);
        set.results[idx] = std::move(r);
    };

    const auto execute = [&](std::size_t idx) {
        if (sink) {
            const auto& req = batch[idx];
            sink->runStart(idx, req.label.empty()
                                    ? mixName(req.sources)
                                    : req.label);
        }
        return runOneImpl(batch[idx], idx, options, sink.get());
    };

    const auto finish = [&]() {
        set.wallSeconds = batch_watch.seconds();
        // Single-threaded again here, so plain counter adds are safe.
        if (options.metrics) {
            std::uint64_t done = 0, failed = 0, retries = 0;
            for (const std::size_t i : pending) {
                const RunResult& r = set.results[i];
                r.ok() ? ++done : ++failed;
                if (r.attempts > 1)
                    retries += r.attempts - 1;
            }
            options.metrics->counter("runner.completed").add(done);
            options.metrics->counter("runner.failed").add(failed);
            options.metrics->counter("runner.retries").add(retries);
            options.metrics->counter("runner.skipped")
                .add(batch.size() - pending.size());
        }
        if (sink)
            sink->batchEnd(set.wallSeconds);
        fatalIf(!journal_err.empty(), journal_err_code,
                "checkpoint journaling failed: " + journal_err);
    };

    if (workers <= 1 || pending.size() <= 1) {
        for (const std::size_t i : pending)
            complete(i, execute(i));
        finish();
        return set;
    }

    // Round-robin split across per-worker queues; idle workers steal.
    std::vector<StealQueue> queues(workers);
    for (std::size_t k = 0; k < pending.size(); ++k)
        queues[k % workers].push(pending[k]);

    const auto worker = [&](unsigned me) {
        for (;;) {
            std::optional<std::size_t> task = queues[me].popFront();
            for (unsigned off = 1; !task && off < workers; ++off)
                task = queues[(me + off) % workers].stealBack();
            if (!task)
                return;
            complete(*task, execute(*task));
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads.emplace_back(worker, w);
    for (auto& t : threads)
        t.join();

    finish();
    return set;
}

} // namespace mrp::runner
