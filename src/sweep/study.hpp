/**
 * @file
 * A Study drives one Strategy against one Objective: each generation's
 * candidates fan out as a RunRequest batch on the ExperimentRunner,
 * fitnesses flow back through tell(), and everything is recorded for a
 * deterministic JSON report.
 *
 * Determinism & crash safety:
 *  - A fitness cache keyed by canonical genome (genomeKey@budget)
 *    guarantees each unique candidate simulates exactly once per
 *    study, no matter how often a strategy re-proposes it.
 *  - With StudyConfig::journalPath set, every evaluated candidate is
 *    appended to a PR-2 checkpoint journal (one line per candidate,
 *    fitness in the `ipc` field, genomeKey@budget in `label`, the
 *    study fingerprint in `benchmark` so a foreign journal is
 *    rejected), and the in-flight generation's raw runs stream into a
 *    second journal at journalPath + ".runs". A killed study resumed
 *    with StudyConfig::resume replays the strategy against the
 *    journaled fitnesses — completed generations cost zero
 *    simulations, and a partially-simulated generation restores its
 *    finished runs by label — and produces a byte-identical report at
 *    any --jobs.
 *  - The report contains no wall-clock fields; candidate ids, per-
 *    generation stats, the best candidate, and the {MPKI, predictor
 *    bits} Pareto front are all functions of (space, strategy seed,
 *    objective) alone.
 */

#ifndef MRP_SWEEP_STUDY_HPP
#define MRP_SWEEP_STUDY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/objective.hpp"
#include "sweep/strategy.hpp"

namespace mrp::sweep {

struct StudyConfig
{
    std::string name = "study";
    /** Strategy/report seed; also stamped into every run's
     * DriverConfig::seed for provenance. */
    std::uint64_t seed = 0;
    /** Runner worker threads (0 = hardware concurrency). The report
     * is byte-identical at every value, also across resumes. */
    unsigned jobs = 0;
    /** Candidate journal path; empty = no durability. The raw-run
     * journal lives at journalPath + ".runs". */
    std::string journalPath;
    /** Load the journals before running (crash resume). */
    bool resume = false;
    /** Stop after this many generations even if the strategy has
     * more (test hook for mid-study kills); 0 = run to completion. */
    unsigned maxGenerations = 0;
};

/** One evaluated candidate, in id (= ask) order. */
struct CandidateOutcome
{
    std::size_t id = 0;
    unsigned generation = 0;
    Candidate candidate;
    /** True iff an earlier id in this study evaluated the same
     * genome@budget (a fitness-cache hit; process-independent). */
    bool cached = false;
    bool ok = false;
    std::string error;
    double fitness = kFailedFitness;
    double mpki = 0.0;
    std::uint64_t predictorBits = 0;
    InstCount instructions = 0;
    std::uint64_t llcDemandAccesses = 0;
    std::uint64_t llcDemandMisses = 0;
};

struct GenerationStats
{
    unsigned generation = 0;
    std::size_t evaluations = 0; //!< candidates asked
    std::size_t simulations = 0; //!< unique genomes (cache misses)
    std::size_t cacheHits = 0;
    double bestFitness = kFailedFitness;
    double meanFitness = 0.0; //!< over successful candidates
};

struct StudyResult
{
    std::vector<CandidateOutcome> candidates;
    std::vector<GenerationStats> generations;
    bool hasBest = false;
    std::size_t bestId = 0; //!< highest fitness, ties to lowest id
};

class Study
{
  public:
    Study(const SearchSpace& space, Strategy& strategy,
          Objective& objective, const StudyConfig& cfg);

    StudyResult run();

    /** CRC-32 identity of (space, strategy, objective, seed); stamped
     * into journal entries so mismatched journals are rejected with
     * ErrorCode::Config. */
    std::string fingerprint() const;

    /** Label of one raw run: "<genomeKey>@<budget>#<workload>" — how
     * a partially-simulated generation's runs are matched on resume
     * (by label, never by batch index, which shifts as earlier
     * candidates become cache hits). */
    static std::string runLabel(const SearchSpace& space,
                                const Genome& genome,
                                InstCount budget_insts,
                                std::size_t request_idx);

    /** Deterministic study report (see file comment for the schema
     * guarantees). */
    std::string reportJson(const StudyResult& result) const;

  private:
    struct CachedScore
    {
        bool ok = false;
        std::string error;
        double fitness = kFailedFitness;
        double mpki = 0.0;
        InstCount instructions = 0;
        std::uint64_t llcDemandAccesses = 0;
        std::uint64_t llcDemandMisses = 0;
    };

    const SearchSpace& space_;
    Strategy& strategy_;
    Objective& objective_;
    StudyConfig cfg_;
};

} // namespace mrp::sweep

#endif // MRP_SWEEP_STUDY_HPP
