#include "sweep/study.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "prof/profiler.hpp"
#include "runner/checkpoint.hpp"
#include "runner/experiment_runner.hpp"
#include "util/crc32.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"
#include "util/math_util.hpp"

namespace mrp::sweep {

namespace {

bool
fileExists(const std::string& path)
{
    std::ifstream f(path);
    return static_cast<bool>(f);
}

std::string
hex8(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

/**
 * Schema tag folded into every study fingerprint as "|qschema2". The
 * number once versioned the record schema of a multi-process work
 * queue; it stays so that the fingerprint text is unchanged: existing
 * --journal files still --resume, and the report's "fingerprint"
 * field keeps its value. Bump it only to make every existing study
 * journal unresumable on purpose.
 */
constexpr unsigned kFingerprintSchema = 2;

std::string
candidateKey(const SearchSpace& space, const Candidate& c)
{
    return space.genomeKey(c.genome) + "@" +
           std::to_string(c.budgetInsts);
}

} // namespace

Study::Study(const SearchSpace& space, Strategy& strategy,
             Objective& objective, const StudyConfig& cfg)
    : space_(space), strategy_(strategy), objective_(objective),
      cfg_(cfg)
{
    fatalIf(cfg_.resume && cfg_.journalPath.empty(),
            ErrorCode::Config, "study resume requires a journal path");
}

std::string
Study::fingerprint() const
{
    // The schema tag is part of the identity: a journal written under
    // another tag fingerprints differently, so resume refuses it with
    // a typed Config error instead of silently misreading it.
    const std::string text =
        space_.spaceJson() + "|" + strategy_.name() + "|" +
        objective_.name() + "|" + std::to_string(cfg_.seed) +
        "|qschema" + std::to_string(kFingerprintSchema);
    return hex8(Crc32::of(text.data(), text.size()));
}

std::string
Study::runLabel(const SearchSpace& space, const Genome& genome,
                InstCount budget_insts, std::size_t request_idx)
{
    return space.genomeKey(genome) + "@" +
           std::to_string(budget_insts) + "#" +
           std::to_string(request_idx);
}

StudyResult
Study::run()
{
    StudyResult result;
    const std::string bench_id = "sweep:" + fingerprint();
    const std::string raw_path =
        cfg_.journalPath.empty() ? "" : cfg_.journalPath + ".runs";

    // Fitness cache: canonical genome@budget -> outcome. Seeded from
    // the candidate journal on resume; grows as generations complete.
    std::unordered_map<std::string, CachedScore> cache;
    // Completed raw runs of a generation the crash interrupted,
    // matched by label (index-independent).
    std::unordered_map<std::string, runner::RunResult> raw_restored;
    if (cfg_.resume) {
        if (fileExists(cfg_.journalPath)) {
            for (const auto& r :
                 runner::loadJournal(cfg_.journalPath)) {
                fatalIf(r.benchmark != bench_id, ErrorCode::Config,
                        "study journal " + cfg_.journalPath +
                            " belongs to a different study (entry "
                            "tagged " +
                            r.benchmark + ", this study is " +
                            bench_id + ")");
                CachedScore cs;
                cs.ok = r.ok();
                cs.error = r.error;
                cs.fitness = cs.ok ? r.ipc : kFailedFitness;
                cs.mpki = r.mpki;
                cs.instructions = r.instructions;
                cs.llcDemandAccesses = r.llcDemandAccesses;
                cs.llcDemandMisses = r.llcDemandMisses;
                cache[r.label] = cs;
            }
        }
        if (!raw_path.empty() && fileExists(raw_path))
            for (const auto& r : runner::loadJournal(raw_path))
                raw_restored[r.label] = r;
    }

    std::unique_ptr<runner::CheckpointJournal> journal;
    if (!cfg_.journalPath.empty())
        journal = std::make_unique<runner::CheckpointJournal>(
            cfg_.journalPath);

    const runner::ExperimentRunner pool(cfg_.jobs);
    // Keys proposed by an earlier candidate id; drives the `cached`
    // flag, which therefore survives kill/resume unchanged.
    std::unordered_set<std::string> seen;
    unsigned generation = 0;

    while (true) {
        if (cfg_.maxGenerations != 0 &&
            generation >= cfg_.maxGenerations)
            break;
        MRP_PROF_SCOPE("sweep.generation");
        std::vector<Candidate> cands;
        {
            MRP_PROF_SCOPE("sweep.ask");
            cands = strategy_.ask();
        }
        if (cands.empty())
            break;

        // Pass 1: assign ids, classify against the fitness cache, and
        // collect the runs of candidates that genuinely need to
        // simulate (first study-wide occurrence of their genome).
        struct Pending
        {
            std::size_t outcome = 0; //!< index into outs
            std::size_t first = 0;   //!< first request index
            std::size_t count = 0;
        };
        std::vector<CandidateOutcome> outs(cands.size());
        std::vector<runner::RunRequest> requests;
        std::vector<Pending> pending;
        std::unordered_set<std::string> pending_keys;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            auto& o = outs[i];
            o.id = result.candidates.size() + i;
            o.generation = generation;
            o.candidate = cands[i];
            o.predictorBits = space_.predictorBits(cands[i].genome);
            const std::string key = candidateKey(space_, cands[i]);
            o.cached = seen.count(key) > 0;
            seen.insert(key);
            if (cache.count(key) > 0 || pending_keys.count(key) > 0)
                continue; // outcome resolved after the batch
            pending_keys.insert(key);
            auto reqs = objective_.requests(
                space_.decode(cands[i].genome), cands[i].budgetInsts);
            fatalIf(reqs.empty(), "objective produced no runs");
            const std::size_t first = requests.size();
            for (std::size_t r = 0; r < reqs.size(); ++r) {
                reqs[r].label = runLabel(space_, cands[i].genome,
                                         cands[i].budgetInsts, r);
                std::visit([&](auto& c) { c.seed = cfg_.seed; },
                           reqs[r].config);
                requests.push_back(std::move(reqs[r]));
            }
            pending.push_back({i, first, requests.size() - first});
        }

        // Pass 2: execute. Runs already in the raw journal (the
        // interrupted generation's completed work) restore by label;
        // the rest fan out on the runner, streaming completions into
        // the raw journal so a second crash also resumes mid-batch.
        std::vector<runner::RunResult> finals(requests.size());
        {
            std::vector<runner::RunRequest> to_run;
            std::vector<std::size_t> slot;
            for (std::size_t r = 0; r < requests.size(); ++r) {
                const auto it = raw_restored.find(requests[r].label);
                if (it != raw_restored.end())
                    finals[r] = it->second;
                else {
                    to_run.push_back(requests[r]);
                    slot.push_back(r);
                }
            }
            if (!to_run.empty()) {
                runner::RunnerOptions ropts;
                ropts.journalPath = raw_path;
                MRP_PROF_SCOPE("sweep.simulate");
                const auto set = pool.run(to_run, ropts);
                for (std::size_t j = 0; j < set.results.size(); ++j)
                    finals[slot[j]] = set.results[j];
            }
        }

        // Pass 3: score the fresh candidates, journal them, and fill
        // every outcome from the cache.
        for (const auto& p : pending) {
            const auto& o = outs[p.outcome];
            const std::string key = candidateKey(space_, o.candidate);
            CachedScore cs;
            ErrorCode ec = ErrorCode::None;
            std::vector<const runner::RunResult*> rs;
            rs.reserve(p.count);
            for (std::size_t r = p.first; r < p.first + p.count; ++r) {
                const auto& rr = finals[r];
                if (!rr.ok() && cs.error.empty()) {
                    cs.error = rr.error;
                    ec = rr.errorCode;
                }
                cs.instructions += rr.instructions;
                cs.llcDemandAccesses += rr.llcDemandAccesses;
                cs.llcDemandMisses += rr.llcDemandMisses;
                rs.push_back(&rr);
            }
            if (cs.error.empty()) {
                const Score score = objective_.score(rs);
                cs.ok = true;
                cs.fitness = score.fitness;
                cs.mpki = score.mpki;
            }
            cache[key] = cs;
            if (journal) {
                runner::RunResult jr;
                jr.index = o.id;
                jr.benchmark = bench_id;
                jr.policy = "MPPPB";
                jr.label = key;
                jr.ipc = cs.ok ? cs.fitness : 0.0;
                jr.mpki = cs.mpki;
                jr.instructions = cs.instructions;
                jr.llcDemandAccesses = cs.llcDemandAccesses;
                jr.llcDemandMisses = cs.llcDemandMisses;
                jr.seed = cfg_.seed;
                if (!cs.ok) {
                    jr.error = cs.error;
                    jr.errorCode = ec;
                }
                journal->append(jr);
            }
        }
        for (auto& o : outs) {
            const auto& cs =
                cache.at(candidateKey(space_, o.candidate));
            o.ok = cs.ok;
            o.error = cs.error;
            o.fitness = cs.fitness;
            o.mpki = cs.mpki;
            o.instructions = cs.instructions;
            o.llcDemandAccesses = cs.llcDemandAccesses;
            o.llcDemandMisses = cs.llcDemandMisses;
        }
        // The generation is fully summarized in the candidate journal
        // now; drop the raw runs so the next crash window starts
        // clean (stale labels could never match anyway — a journaled
        // candidate is never re-requested).
        if (!raw_path.empty())
            std::remove(raw_path.c_str());

        GenerationStats gs;
        gs.generation = generation;
        gs.evaluations = outs.size();
        std::vector<double> fits;
        for (const auto& o : outs) {
            if (o.cached)
                ++gs.cacheHits;
            else
                ++gs.simulations;
            if (o.ok)
                fits.push_back(o.fitness);
        }
        if (!fits.empty()) {
            gs.bestFitness = *std::max_element(fits.begin(),
                                               fits.end());
            gs.meanFitness = mean(fits);
        }
        result.generations.push_back(gs);

        std::vector<Evaluated> evaluated;
        evaluated.reserve(outs.size());
        for (const auto& o : outs)
            evaluated.push_back(
                {o.candidate, o.fitness, o.mpki, o.ok});
        for (auto& o : outs)
            result.candidates.push_back(std::move(o));
        {
            MRP_PROF_SCOPE("sweep.tell");
            strategy_.tell(evaluated);
        }
        ++generation;
    }

    for (const auto& o : result.candidates)
        if (o.ok &&
            (!result.hasBest ||
             o.fitness > result.candidates[result.bestId].fitness)) {
            result.hasBest = true;
            result.bestId = o.id;
        }
    return result;
}

std::string
Study::reportJson(const StudyResult& result) const
{
    using json::formatDouble;
    std::string out = "{\n";
    out += "  \"study\": {" + json::key("name") + json::str(cfg_.name);
    out += ", " + json::key("strategy") + json::str(strategy_.name());
    out +=
        ", " + json::key("objective") + json::str(objective_.name());
    out += ", " + json::key("seed") + std::to_string(cfg_.seed);
    out += ", " + json::key("fingerprint") + json::str(fingerprint());
    out += ", " + json::key("space") + space_.spaceJson() + "},\n";

    out += "  \"generations\": [\n";
    for (std::size_t i = 0; i < result.generations.size(); ++i) {
        const auto& g = result.generations[i];
        out += "    {" + json::key("generation") +
               std::to_string(g.generation);
        out += ", " + json::key("evaluations") +
               std::to_string(g.evaluations);
        out += ", " + json::key("simulations") +
               std::to_string(g.simulations);
        out += ", " + json::key("cacheHits") +
               std::to_string(g.cacheHits);
        out += ", " + json::key("bestFitness") +
               formatDouble(g.bestFitness);
        out += ", " + json::key("meanFitness") +
               formatDouble(g.meanFitness) + "}";
        if (i + 1 < result.generations.size())
            out += ",";
        out += "\n";
    }
    out += "  ],\n";

    if (result.hasBest) {
        const auto& b = result.candidates[result.bestId];
        const auto cfg = space_.decode(b.candidate.genome);
        out += "  \"best\": {" + json::key("id") +
               std::to_string(b.id);
        out += ", " + json::key("fitness") + formatDouble(b.fitness);
        out += ", " + json::key("mpki") + formatDouble(b.mpki);
        out += ", " + json::key("predictorBits") +
               std::to_string(b.predictorBits);
        out += ", " + json::key("genome") +
               space_.genomeJson(b.candidate.genome);
        out += ", " + json::key("features") + "[";
        for (std::size_t f = 0; f < cfg.predictor.features.size();
             ++f) {
            if (f)
                out += ", ";
            out += json::str(cfg.predictor.features[f].toString());
        }
        out += "], " + json::key("thresholds") + "{" +
               json::key("tauBypass") +
               std::to_string(cfg.thresholds.tauBypass);
        out += ", " + json::key("tau") + "[" +
               std::to_string(cfg.thresholds.tau[0]) + ", " +
               std::to_string(cfg.thresholds.tau[1]) + ", " +
               std::to_string(cfg.thresholds.tau[2]) + "]";
        out += ", " + json::key("tauNoPromote") +
               std::to_string(cfg.thresholds.tauNoPromote) + "}";
        out += ", " + json::key("sampledSetsPerCore") +
               std::to_string(cfg.predictor.sampledSetsPerCore) +
               "},\n";
    }

    // Pareto front over {corpus MPKI, predictor bits}: successful
    // full-budget candidates, first occurrence of each genome, sorted
    // by MPKI then bits then id, keeping the strict-bits staircase.
    struct Point
    {
        double mpki;
        std::uint64_t bits;
        std::size_t id;
    };
    std::vector<Point> pts;
    for (const auto& o : result.candidates)
        if (o.ok && !o.cached && o.candidate.budgetInsts == 0)
            pts.push_back({o.mpki, o.predictorBits, o.id});
    std::sort(pts.begin(), pts.end(),
              [](const Point& a, const Point& b) {
                  if (a.mpki != b.mpki)
                      return a.mpki < b.mpki;
                  if (a.bits != b.bits)
                      return a.bits < b.bits;
                  return a.id < b.id;
              });
    out += "  \"pareto\": [\n";
    std::uint64_t bits_bar = 0;
    bool first_pt = true;
    for (const auto& p : pts) {
        if (!first_pt && p.bits >= bits_bar)
            continue;
        if (!first_pt)
            out += ",\n";
        first_pt = false;
        bits_bar = p.bits;
        out += "    {" + json::key("id") + std::to_string(p.id) +
               ", " + json::key("mpki") + formatDouble(p.mpki) +
               ", " + json::key("predictorBits") +
               std::to_string(p.bits) + "}";
    }
    if (!first_pt)
        out += "\n";
    out += "  ],\n";

    out += "  \"candidates\": [\n";
    for (std::size_t i = 0; i < result.candidates.size(); ++i) {
        const auto& o = result.candidates[i];
        out += "    {" + json::key("id") + std::to_string(o.id);
        out += ", " + json::key("generation") +
               std::to_string(o.generation);
        out += ", " + json::key("budget") +
               std::to_string(o.candidate.budgetInsts &
                              ~kSampledBudgetFlag);
        out += ", " + json::key("sampled") +
               ((o.candidate.budgetInsts & kSampledBudgetFlag) != 0
                    ? "true"
                    : "false");
        out += ", " + json::key("cached") +
               (o.cached ? "true" : "false");
        if (o.ok) {
            out += ", " + json::key("fitness") +
                   formatDouble(o.fitness);
            out += ", " + json::key("mpki") + formatDouble(o.mpki);
        } else {
            out += ", " + json::key("error") + json::str(o.error);
        }
        out += ", " + json::key("predictorBits") +
               std::to_string(o.predictorBits);
        out += ", " + json::key("genome") +
               space_.genomeJson(o.candidate.genome) + "}";
        if (i + 1 < result.candidates.size())
            out += ",";
        out += "\n";
    }
    out += "  ],\n";

    std::size_t evals = 0, sims = 0, hits = 0;
    for (const auto& g : result.generations) {
        evals += g.evaluations;
        sims += g.simulations;
        hits += g.cacheHits;
    }
    out += "  \"totals\": {" + json::key("evaluations") +
           std::to_string(evals);
    out += ", " + json::key("simulations") + std::to_string(sims);
    out += ", " + json::key("cacheHits") + std::to_string(hits) +
           "}\n}\n";
    return out;
}

} // namespace mrp::sweep
