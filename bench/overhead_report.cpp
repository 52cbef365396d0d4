/**
 * @file
 * Reproduces the §4.4 hardware-budget accounting: per-structure bit
 * costs of the single-thread and multi-core MPPPB configurations (the
 * paper reports 27.5KB single-core — sampler 20.67KB, tables 2.64KB,
 * feature vector 0.44KB, MDPP 3.75KB — and 104KB for 4 cores,
 * both ~1.3% of their LLC's capacity).
 */

#include <cstdio>

#include "core/mpppb.hpp"
#include "util/bitfield.hpp"

namespace {

using namespace mrp;

struct Budget
{
    double samplerKB;
    double tablesKB;
    double vectorKB;
    double substrateKB;

    double
    totalKB() const
    {
        return samplerKB + tablesKB + vectorKB + substrateKB;
    }
};

Budget
budgetOf(const core::MpppbConfig& cfg, unsigned cores, Addr llc_bytes,
         std::uint32_t llc_ways)
{
    const auto& feats = cfg.predictor.features;

    // Index-vector bits per sampler entry: one index per feature,
    // log2(tableSize) bits each (§3.3 item 3).
    unsigned index_bits = 0;
    std::size_t table_weights = 0;
    for (const auto& f : feats) {
        index_bits += log2Ceil(f.tableSize());
        table_weights += f.tableSize();
    }

    // Sampler entry: 16-bit partial tag + 9-bit confidence + 4-bit
    // LRU position + the index vector (§4.4).
    const unsigned entry_bits = 16 + 9 + 4 + index_bits;
    const std::uint64_t entries =
        static_cast<std::uint64_t>(cfg.predictor.sampledSetsPerCore) *
        cores * cfg.predictor.samplerAssoc;

    Budget b;
    b.samplerKB = static_cast<double>(entries) * entry_bits / 8.0 / 1024;
    b.tablesKB = static_cast<double>(table_weights) *
                 cfg.predictor.weightBits / 8.0 / 1024;
    // Per-core feature-value vector: bounded by one 64-bit value per
    // feature per core (PC history entries are shared).
    b.vectorKB = static_cast<double>(feats.size()) * 64 * cores / 8.0 /
                 1024;
    const std::uint64_t sets = llc_bytes / 64 / llc_ways;
    if (cfg.substrate == core::Substrate::Mdpp)
        b.substrateKB =
            static_cast<double>(sets) * (llc_ways - 1) / 8.0 / 1024;
    else
        b.substrateKB =
            static_cast<double>(sets) * llc_ways * 2 / 8.0 / 1024;
    return b;
}

void
report(const char* name, const core::MpppbConfig& cfg, unsigned cores,
       Addr llc_bytes, std::uint32_t ways)
{
    const Budget b = budgetOf(cfg, cores, llc_bytes, ways);
    unsigned index_bits = 0;
    for (const auto& f : cfg.predictor.features)
        index_bits += log2Ceil(f.tableSize());
    std::printf("%s (%u core(s), %.0fMB LLC):\n", name, cores,
                llc_bytes / 1024.0 / 1024.0);
    std::printf("  index vector bits/entry : %u\n", index_bits);
    std::printf("  sampler                 : %8.2f KB\n", b.samplerKB);
    std::printf("  prediction tables       : %8.2f KB\n", b.tablesKB);
    std::printf("  feature-value vectors   : %8.2f KB\n", b.vectorKB);
    std::printf("  default policy state    : %8.2f KB\n",
                b.substrateKB);
    std::printf("  total                   : %8.2f KB (%.2f%% of LLC)\n\n",
                b.totalKB(),
                100.0 * b.totalKB() * 1024 /
                    static_cast<double>(llc_bytes));
}

} // namespace

int
main()
{
    std::printf("# Hardware budget accounting (paper §4.4: 27.5KB "
                "single-core, 104KB for 4 cores, each ~1.3%% of LLC)\n\n");
    report("single-thread MPPPB", core::singleThreadMpppbConfig(), 1,
           2 * 1024 * 1024, 16);
    report("multi-core MPPPB", core::multiCoreMpppbConfig(), 4,
           8 * 1024 * 1024, 16);
    return 0;
}
