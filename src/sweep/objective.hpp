/**
 * @file
 * Fitness objectives for configuration studies.
 *
 * An Objective turns a decoded MpppbConfig into the RunRequests that
 * measure it (the Study executes them through the ExperimentRunner)
 * and folds the results into a scalar fitness (higher is better).
 * CorpusEvaluator is the shared workload-corpus evaluation path: it
 * holds the corpus as TraceSpec values (budget rungs are derived specs
 * via withInstructions, cached per budget — nothing is materialized;
 * every run streams its own source) and runs reference policies; both
 * the sweep objectives here and the legacy search::FeatureSetEvaluator
 * shim are built on it, so there is exactly one way a candidate gets
 * simulated.
 */

#ifndef MRP_SWEEP_OBJECTIVE_HPP
#define MRP_SWEEP_OBJECTIVE_HPP

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runner/experiment_runner.hpp"
#include "sweep/search_space.hpp"
#include "trace/spec.hpp"
#include "trace/trace.hpp"

namespace mrp::sweep {

/** Scalar outcome of one candidate. */
struct Score
{
    double fitness = 0.0; //!< higher is better
    double mpki = 0.0;    //!< corpus aggregate MPKI (reporting)
};

class Objective
{
  public:
    virtual ~Objective() = default;
    virtual std::string name() const = 0;
    /**
     * The runs measuring @p cfg at @p budget_insts trace length
     * (0 = the objective's full length). Returned traces are borrowed
     * from the objective, which must outlive the batch.
     */
    virtual std::vector<runner::RunRequest>
    requests(const core::MpppbConfig& cfg, InstCount budget_insts) = 0;
    /** Fold the (all-successful) results, in request order. */
    virtual Score
    score(const std::vector<const runner::RunResult*>& results) = 0;
};

/** Corpus definition shared by objectives and the search shim. */
struct CorpusConfig
{
    std::vector<unsigned> workloads; //!< suite indices (training set)
    /**
     * Explicit corpus specs; when non-empty they ARE the corpus and
     * `workloads` is ignored. This is how streaming families (Zipf,
     * block-I/O, phase mixes, trace files) enter a sweep. Every spec
     * must be resizable for budget rungs (no File/Borrowed kinds)
     * unless the study never shortens budgets.
     */
    std::vector<trace::TraceSpec> corpus;
    InstCount fullInstructions = 400000;
    sim::SingleCoreConfig sim{};
    unsigned jobs = 0; //!< runner workers for the reference sweeps
    /** Delivery knobs forwarded to every run (never affect scores). */
    trace::TraceSpec::OpenOptions openOptions;
};

/**
 * One streaming-family corpus member at @p insts instructions, the
 * vocabulary of the sweep and MRC CLIs' --corpus flag: "zipf" or
 * "zipf:THETA", "blkio", or "phase" (a Zipf then block-I/O phase mix
 * seeded @p seed and @p seed + 1). Any other name throws
 * FatalError(ErrorCode::Config).
 */
trace::TraceSpec corpusFamilySpec(const std::string& name,
                                  InstCount insts, std::uint64_t seed);

/**
 * Holds the corpus specs (budget rungs cached per instruction count)
 * and evaluates policies over them through the ExperimentRunner. Not
 * thread-safe; the Study drives it from one thread and parallelism
 * happens inside the runner (each worker opens its own stream).
 */
class CorpusEvaluator
{
  public:
    explicit CorpusEvaluator(const CorpusConfig& cfg);

    const CorpusConfig& config() const { return cfg_; }
    std::size_t workloadCount() const { return fullCorpus_.size(); }

    /** Corpus specs at @p budget_insts (0 = fullInstructions);
     * derived via withInstructions on first use, stable thereafter. */
    const std::vector<trace::TraceSpec>& specs(InstCount budget_insts);

    /** Per-workload MPKI of MPPPB under @p cfg. */
    std::vector<double> mpppbMpkis(const core::MpppbConfig& cfg,
                                   InstCount budget_insts = 0);

    /** Per-workload MPKI of a registry policy ("LRU", "MIN", ...). */
    std::vector<double> policyMpkis(const std::string& name,
                                    InstCount budget_insts = 0);

  private:
    std::vector<double> run(const runner::PolicySpec& spec,
                            InstCount budget_insts);

    CorpusConfig cfg_;
    std::vector<trace::TraceSpec> fullCorpus_;
    std::map<InstCount, std::vector<trace::TraceSpec>> specCache_;
    runner::ExperimentRunner pool_;
};

/**
 * The study objective of the paper's §5 search: aggregate LLC demand
 * MPKI over the training corpus, negated so higher fitness is better.
 * Geomean (the default) weighs every workload's relative improvement
 * equally; Mean reproduces the Fig. 3 arithmetic average.
 */
class CorpusMpkiObjective : public Objective
{
  public:
    enum class Aggregate { Geomean, Mean };

    CorpusMpkiObjective(std::shared_ptr<CorpusEvaluator> evaluator,
                        Aggregate aggregate = Aggregate::Geomean);

    std::string name() const override;
    std::vector<runner::RunRequest>
    requests(const core::MpppbConfig& cfg,
             InstCount budget_insts) override;
    Score score(
        const std::vector<const runner::RunResult*>& results) override;

    CorpusEvaluator& evaluator() { return *evaluator_; }

  private:
    std::shared_ptr<CorpusEvaluator> evaluator_;
    Aggregate aggregate_;
};

/** Floor applied to per-workload MPKIs before the geomean, so a
 * cache-resident workload's ~0 MPKI cannot collapse the aggregate. */
inline constexpr double kGeomeanMpkiFloor = 0.01;

} // namespace mrp::sweep

#endif // MRP_SWEEP_OBJECTIVE_HPP
