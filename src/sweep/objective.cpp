#include "sweep/objective.hpp"

#include <algorithm>

#include "cache/geometry.hpp"
#include "trace/workloads.hpp"
#include "util/logging.hpp"
#include "util/math_util.hpp"

namespace mrp::sweep {

CorpusEvaluator::CorpusEvaluator(const CorpusConfig& cfg)
    : cfg_(cfg), pool_(cfg.jobs)
{
    fatalIf(cfg_.workloads.empty() && cfg_.corpus.empty(),
            "corpus evaluator needs training workloads");
    fatalIf(cfg_.fullInstructions == 0,
            "corpus evaluator needs a trace length");
    // Validate the hierarchy geometry up front with a typed error:
    // every candidate run shares it, so a bad --llc-kb would otherwise
    // abort deep inside the first simulation's cache constructor.
    const auto& h = cfg_.sim.hierarchy;
    const struct
    {
        const char* level;
        Addr bytes;
        std::uint32_t ways;
    } levels[] = {{"L1", h.l1Bytes, h.l1Ways},
                  {"L2", h.l2Bytes, h.l2Ways},
                  {"LLC", h.llcBytes, h.llcWays}};
    for (const auto& l : levels) {
        const std::string why =
            cache::CacheGeometry::describeInvalid(l.bytes, l.ways);
        fatalIf(!why.empty(), ErrorCode::Config,
                std::string("corpus ") + l.level + " geometry: " + why);
    }
    if (!cfg_.corpus.empty()) {
        fullCorpus_ = cfg_.corpus;
    } else {
        fullCorpus_.reserve(cfg_.workloads.size());
        for (const unsigned w : cfg_.workloads)
            fullCorpus_.push_back(
                trace::TraceSpec::suite(w, cfg_.fullInstructions));
    }
}

const std::vector<trace::TraceSpec>&
CorpusEvaluator::specs(InstCount budget_insts)
{
    const InstCount insts =
        budget_insts == 0 ? cfg_.fullInstructions : budget_insts;
    auto it = specCache_.find(insts);
    if (it == specCache_.end()) {
        // Budget rungs regenerate each workload at the shorter length
        // (withInstructions), matching how generators define identity;
        // a prefix cut of the full-length stream would measure a
        // different workload.
        std::vector<trace::TraceSpec> ts;
        ts.reserve(fullCorpus_.size());
        for (const auto& spec : fullCorpus_)
            ts.push_back(spec.instructions() == insts
                             ? spec
                             : spec.withInstructions(insts));
        it = specCache_.emplace(insts, std::move(ts)).first;
    }
    return it->second;
}

std::vector<double>
CorpusEvaluator::run(const runner::PolicySpec& spec,
                     InstCount budget_insts)
{
    const auto& ts = specs(budget_insts);
    std::vector<runner::RunRequest> batch;
    batch.reserve(ts.size());
    for (const auto& t : ts) {
        batch.push_back(
            runner::RunRequest::singleCore(t, spec, cfg_.sim));
        batch.back().openOptions = cfg_.openOptions;
    }
    const auto set = pool_.run(batch);
    std::vector<double> out;
    out.reserve(set.results.size());
    for (const auto& r : set.results) {
        fatalIf(!r.ok(), r.errorCode, "corpus run failed: " + r.error);
        out.push_back(r.mpki);
    }
    return out;
}

std::vector<double>
CorpusEvaluator::mpppbMpkis(const core::MpppbConfig& cfg,
                            InstCount budget_insts)
{
    return run(runner::PolicySpec::mpppb(cfg), budget_insts);
}

std::vector<double>
CorpusEvaluator::policyMpkis(const std::string& name,
                             InstCount budget_insts)
{
    return run(runner::PolicySpec::byName(name), budget_insts);
}

CorpusMpkiObjective::CorpusMpkiObjective(
    std::shared_ptr<CorpusEvaluator> evaluator, Aggregate aggregate)
    : evaluator_(std::move(evaluator)), aggregate_(aggregate)
{
    fatalIf(!evaluator_, "CorpusMpkiObjective needs an evaluator");
}

std::string
CorpusMpkiObjective::name() const
{
    return aggregate_ == Aggregate::Geomean ? "corpus-mpki-geomean"
                                            : "corpus-mpki-mean";
}

std::vector<runner::RunRequest>
CorpusMpkiObjective::requests(const core::MpppbConfig& cfg,
                              InstCount budget_insts)
{
    const auto& ts = evaluator_->specs(budget_insts);
    // Carried as data (not a factory closure) so each request has a
    // JSON identity (runner::requestJson).
    const auto spec = runner::PolicySpec::mpppb(cfg);
    std::vector<runner::RunRequest> out;
    out.reserve(ts.size());
    for (const auto& t : ts) {
        out.push_back(runner::RunRequest::singleCore(
            t, spec, evaluator_->config().sim));
        out.back().openOptions = evaluator_->config().openOptions;
    }
    return out;
}

Score
CorpusMpkiObjective::score(
    const std::vector<const runner::RunResult*>& results)
{
    fatalIf(results.empty(), "scoring an empty result set");
    std::vector<double> mpkis;
    mpkis.reserve(results.size());
    for (const auto* r : results)
        mpkis.push_back(aggregate_ == Aggregate::Geomean
                            ? std::max(r->mpki, kGeomeanMpkiFloor)
                            : r->mpki);
    const double agg = aggregate_ == Aggregate::Geomean
                           ? geomean(mpkis)
                           : mean(mpkis);
    return {-agg, agg};
}

trace::TraceSpec
corpusFamilySpec(const std::string& name, InstCount insts,
                 std::uint64_t seed)
{
    if (name == "zipf" || name.rfind("zipf:", 0) == 0) {
        trace::ZipfParams p;
        p.instructions = insts;
        p.seed = seed;
        if (name != "zipf") {
            p.theta = trace::zipfThetaOf(name);
            p.name = name;
        }
        return trace::TraceSpec::zipf(p);
    }
    if (name == "blkio") {
        trace::BlockIoParams p;
        p.instructions = insts;
        p.seed = seed;
        return trace::TraceSpec::blockIo(p);
    }
    if (name == "phase") {
        trace::ZipfParams zp;
        zp.instructions = insts;
        zp.seed = seed;
        trace::BlockIoParams bp;
        bp.instructions = insts;
        bp.seed = seed + 1;
        std::vector<trace::TraceSpec> kids;
        kids.push_back(trace::TraceSpec::zipf(zp));
        kids.push_back(trace::TraceSpec::blockIo(bp));
        return trace::TraceSpec::phaseMix(
            "phase", insts, std::max<InstCount>(insts / 8, 1),
            std::move(kids));
    }
    fatal(ErrorCode::Config,
          "unknown --corpus family '" + name +
              "' (want zipf[:THETA], blkio, or phase)");
}

} // namespace mrp::sweep
