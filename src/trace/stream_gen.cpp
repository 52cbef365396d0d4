#include "trace/stream_gen.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "prof/profiler.hpp"
#include "util/logging.hpp"

namespace mrp::trace {

namespace {

constexpr Addr kBlockBytes = 64;

/** Odd multiplier near n/phi and coprime with n — scatters sequential
 * indices across [0, n) with no correlation between neighbours. */
std::uint64_t
scatterMultiplier(std::uint64_t n)
{
    std::uint64_t step = (n * 1618) / 2618;
    step |= 1;
    while (std::gcd(step, n) != 1)
        step += 2;
    return step;
}

} // namespace

// ---------------------------------------------------------------------------
// ChunkSource

ChunkSource::ChunkSource(std::string name, InstCount target,
                         Pc code_base, std::uint64_t seed,
                         std::size_t chunk_records)
    : name_(std::move(name)), target_(target), codeBase_(code_base),
      seed_(seed),
      chunkRecords_(chunk_records == 0 ? kDefaultChunkRecords
                                       : chunk_records),
      rng_(seed)
{
    fatalIf(target_ == 0, ErrorCode::Config,
            "streaming source '" + name_ +
                "' needs a nonzero instruction target");
}

std::span<const Record>
ChunkSource::nextChunk()
{
    if (emitted_ >= target_)
        return {};
    MRP_PROF_SCOPE("trace.generate");
    buffer_.clear();
    while (emitted_ < target_ && buffer_.size() < chunkRecords_)
        step();
    return {buffer_.data(), buffer_.size()};
}

void
ChunkSource::reset()
{
    emitted_ = 0;
    rng_ = Rng(seed_);
    onReset();
}

bool
ChunkSource::emitMem(unsigned site_idx, Op op, Addr a, bool dep)
{
    if (emitted_ >= target_)
        return false;
    buffer_.push_back(Record::memOp(site(site_idx), op, a, dep));
    ++emitted_;
    return true;
}

void
ChunkSource::emitPad(std::uint64_t count)
{
    count = std::min<std::uint64_t>(count, target_ - emitted_);
    count = std::min<std::uint64_t>(
        count, std::numeric_limits<std::uint32_t>::max());
    if (count == 0)
        return;
    buffer_.push_back(Record::nonMem(
        site(kPadSite), static_cast<std::uint32_t>(count)));
    emitted_ += count;
}

// ---------------------------------------------------------------------------
// Zipf

double
zipfThetaOf(const std::string& name)
{
    constexpr std::size_t kPrefix = 5; // "zipf:"
    panicIf(name.compare(0, kPrefix, "zipf:") != 0,
            "zipfThetaOf: not a zipf:THETA name");
    const char* first = name.data() + kPrefix;
    const char* last = name.data() + name.size();
    double theta = 0.0;
    const auto [end, ec] = std::from_chars(first, last, theta);
    fatalIf(ec != std::errc() || end != last || !std::isfinite(theta) ||
                theta < 0.0,
            ErrorCode::Config,
            "bad Zipf theta in '" + name +
                "': want a finite, non-negative number after 'zipf:'");
    return theta;
}

ZipfDistribution::ZipfDistribution(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    fatalIf(n_ == 0, ErrorCode::Config,
            "Zipf distribution needs at least one rank");
    fatalIf(theta_ < 0.0 || theta_ >= 1.0, ErrorCode::Config,
            "Zipf theta must be in [0, 1), got " +
                std::to_string(theta_));
    double zetan = 0.0;
    for (std::uint64_t i = 1; i <= n_; ++i)
        zetan += 1.0 / std::pow(static_cast<double>(i), theta_);
    zetan_ = zetan;
    const double zeta2 =
        1.0 + 1.0 / std::pow(2.0, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_),
                           1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
    halfPowTheta_ = std::pow(0.5, theta_);
}

std::uint64_t
ZipfDistribution::sample(Rng& rng) const
{
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + halfPowTheta_)
        return 1;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(rank, n_ - 1);
}

double
ZipfDistribution::topShare(std::uint64_t top) const
{
    top = std::min(top, n_);
    double mass = 0.0;
    for (std::uint64_t i = 1; i <= top; ++i)
        mass += 1.0 / std::pow(static_cast<double>(i), theta_);
    return mass / zetan_;
}

namespace {

class ZipfSource final : public ChunkSource
{
  public:
    explicit ZipfSource(const ZipfParams& p)
        : ChunkSource(p.name, p.instructions, p.codeBase, p.seed,
                      p.chunkRecords),
          p_(p), zipf_(p.keys, p.theta),
          scatter_(scatterMultiplier(p.keys))
    {
    }

  private:
    void
    step() override
    {
        const std::uint64_t rank = zipf_.sample(rng());
        // Scatter ranks so popularity is uncorrelated with address.
        const std::uint64_t key = (rank * scatter_) % p_.keys;
        const Addr a = p_.dataBase + key * kBlockBytes;
        const bool store = rng().uniform() < p_.storeProb;
        emitMem(store ? 1 : 0, store ? Op::Store : Op::Load, a);
        emitPad(p_.padsPerAccess);
    }

    ZipfParams p_;
    ZipfDistribution zipf_;
    std::uint64_t scatter_;
};

} // namespace

std::unique_ptr<TraceSource>
makeZipfSource(const ZipfParams& p)
{
    return std::make_unique<ZipfSource>(p);
}

// ---------------------------------------------------------------------------
// Block I/O

namespace {

class BlockIoSource final : public ChunkSource
{
  public:
    explicit BlockIoSource(const BlockIoParams& p)
        : ChunkSource(p.name, p.instructions, p.codeBase, p.seed,
                      p.chunkRecords),
          p_(p),
          volumeBlocks_(std::max<std::uint64_t>(
              1, p.volumeBytes / kBlockBytes)),
          hotBlocks_(std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(
                     static_cast<double>(volumeBlocks_) *
                     p.hotFraction)))
    {
    }

  private:
    // Request classes get distinct PC sites (reads/writes split), so
    // the PC feature can learn that scans are dead and hot-spot
    // touches are live.
    enum Site : unsigned {
        kSeqRead = 0,
        kSeqWrite = 1,
        kHotRead = 2,
        kHotWrite = 3,
        kRandRead = 4,
        kRandWrite = 5,
    };

    void
    step() override
    {
        if (runLeft_ == 0)
            beginRequest();
        emitMem(siteFor(), write_ ? Op::Store : Op::Load,
                p_.dataBase + lba_ * kBlockBytes);
        lba_ = (lba_ + 1) % volumeBlocks_;
        --runLeft_;
    }

    void
    beginRequest()
    {
        emitPad(p_.padsPerRequest);
        const double r = rng().uniform();
        if (r < p_.seqProb) {
            kind_ = kSeq;
            lba_ = rng().below(volumeBlocks_);
            runLeft_ = 8 + rng().below(
                               std::max(1u, p_.maxRunBlocks - 8) + 1);
        } else if (r < p_.seqProb + p_.hotProb) {
            kind_ = kHot;
            lba_ = rng().below(hotBlocks_);
            runLeft_ = 1 + rng().below(4);
        } else {
            kind_ = kRand;
            lba_ = rng().below(volumeBlocks_);
            runLeft_ = 1 + rng().below(4);
        }
        write_ = rng().uniform() < p_.writeProb;
    }

    unsigned
    siteFor() const
    {
        switch (kind_) {
        case kSeq: return write_ ? kSeqWrite : kSeqRead;
        case kHot: return write_ ? kHotWrite : kHotRead;
        default: return write_ ? kRandWrite : kRandRead;
        }
    }

    void
    onReset() override
    {
        runLeft_ = 0;
        lba_ = 0;
        write_ = false;
        kind_ = kRand;
    }

    enum Kind { kSeq, kHot, kRand };

    BlockIoParams p_;
    std::uint64_t volumeBlocks_;
    std::uint64_t hotBlocks_;
    std::uint64_t lba_ = 0;
    std::uint64_t runLeft_ = 0;
    bool write_ = false;
    Kind kind_ = kRand;
};

} // namespace

std::unique_ptr<TraceSource>
makeBlockIoSource(const BlockIoParams& p)
{
    return std::make_unique<BlockIoSource>(p);
}

// ---------------------------------------------------------------------------
// Phase mix

namespace {

class PhaseMixSource final : public TraceSource
{
  public:
    PhaseMixSource(std::string name, InstCount target,
                   InstCount phase_insts,
                   std::vector<std::unique_ptr<TraceSource>> children,
                   std::size_t chunk_records)
        : name_(std::move(name)), target_(target),
          phaseInsts_(phase_insts),
          chunkRecords_(chunk_records == 0 ? kDefaultChunkRecords
                                           : chunk_records),
          children_(std::move(children)),
          pending_(children_.size()), pendingIdx_(children_.size(), 0)
    {
        fatalIf(target_ == 0, ErrorCode::Config,
                "phase mix '" + name_ +
                    "' needs a nonzero instruction target");
        fatalIf(phaseInsts_ == 0, ErrorCode::Config,
                "phase mix '" + name_ +
                    "' needs a nonzero phase length");
        fatalIf(children_.empty(), ErrorCode::Config,
                "phase mix '" + name_ + "' needs at least one child");
        for (const auto& c : children_)
            fatalIf(c == nullptr, ErrorCode::Config,
                    "phase mix '" + name_ + "' has a null child");
    }

    const std::string& name() const override { return name_; }
    InstCount instructions() const override { return target_; }

    std::span<const Record>
    nextChunk() override
    {
        if (emitted_ >= target_)
            return {};
        MRP_PROF_SCOPE("trace.generate");
        buffer_.clear();
        while (emitted_ < target_ &&
               buffer_.size() < chunkRecords_) {
            // Refill the current child's pending span. The span stays
            // valid while other children advance — only that child's
            // own nextChunk() invalidates it.
            if (pendingIdx_[cur_] >= pending_[cur_].size()) {
                auto chunk = children_[cur_]->nextChunk();
                if (chunk.empty()) { // child exhausted: loop it
                    children_[cur_]->reset();
                    chunk = children_[cur_]->nextChunk();
                    fatalIf(chunk.empty(), ErrorCode::Config,
                            "phase mix child '" +
                                children_[cur_]->name() +
                                "' produced an empty stream");
                }
                pending_[cur_] = chunk;
                pendingIdx_[cur_] = 0;
            }
            Record r = pending_[cur_][pendingIdx_[cur_]++];
            InstCount cnt = r.count();
            const InstCount room = target_ - emitted_;
            if (cnt > room) {
                // Only pads carry count > 1; truncate to the budget.
                r = Record::nonMem(r.pc(),
                                   static_cast<std::uint32_t>(room));
                cnt = room;
            }
            buffer_.push_back(r);
            emitted_ += cnt;
            phaseEmitted_ += cnt;
            if (phaseEmitted_ >= phaseInsts_) {
                phaseEmitted_ = 0;
                cur_ = (cur_ + 1) % children_.size();
            }
        }
        return {buffer_.data(), buffer_.size()};
    }

    void
    reset() override
    {
        for (auto& c : children_)
            c->reset();
        std::fill(pending_.begin(), pending_.end(),
                  std::span<const Record>{});
        std::fill(pendingIdx_.begin(), pendingIdx_.end(),
                  std::size_t{0});
        emitted_ = 0;
        phaseEmitted_ = 0;
        cur_ = 0;
    }

  private:
    std::string name_;
    InstCount target_;
    InstCount phaseInsts_;
    std::size_t chunkRecords_;
    std::vector<std::unique_ptr<TraceSource>> children_;
    std::vector<std::span<const Record>> pending_;
    std::vector<std::size_t> pendingIdx_;
    std::vector<Record> buffer_;
    InstCount emitted_ = 0;
    InstCount phaseEmitted_ = 0;
    std::size_t cur_ = 0;
};

} // namespace

std::unique_ptr<TraceSource>
makePhaseMix(std::string name, InstCount instructions,
             InstCount phase_insts,
             std::vector<std::unique_ptr<TraceSource>> children,
             std::size_t chunk_records)
{
    return std::make_unique<PhaseMixSource>(
        std::move(name), instructions, phase_insts,
        std::move(children), chunk_records);
}

} // namespace mrp::trace
