#include "core/mpppb.hpp"

#include "core/feature_sets.hpp"
#include "util/logging.hpp"

namespace mrp::core {

MpppbConfig
singleThreadMpppbConfig()
{
    MpppbConfig cfg;
    // The published Table 1(a) set is the shipped default: it is the
    // best-behaved configuration across the whole suite (worst case
    // 0.985x LRU, satisfying the paper's never-below-95% claim). The
    // locally searched set (featureSetLocal, policy "MPPPB-Local")
    // has a higher geometric mean but — lacking the paper's
    // cross-validation — overfits its training workloads and loses
    // badly on one held-in benchmark, a live demonstration of why §5.2
    // cross-validates.
    cfg.predictor.features = featureSetTable1A();
    cfg.substrate = Substrate::Mdpp;
    // Thresholds tuned on the training workloads of this
    // infrastructure (the paper tunes on its own training split; the
    // absolute values are substrate-specific, §5.5).
    // Values from examples/tune_mpppb (τ0 exhaustive, then random
    // feasible combinations) on the 10-benchmark training subset.
    cfg.thresholds.tauBypass = -60;
    cfg.thresholds.tau = {-61, -62, -113};
    cfg.thresholds.pi = {14, 13, 5};
    cfg.thresholds.tauNoPromote = -48;
    return cfg;
}

MpppbConfig
multiCoreMpppbConfig()
{
    MpppbConfig cfg;
    // On this infrastructure the Table 1(a) features outperform the
    // published multi-programmed set on the training mixes (the paper
    // itself measures only a 0.3% gap between the two on its own
    // mixes, §6.4); thresholds come from the training-mix sweep in
    // examples/tune_mpppb.
    cfg.predictor.features = featureSetTable1A();
    cfg.predictor.sampledSetsPerCore = 64; // 256 total on 4 cores
    cfg.substrate = Substrate::Srrip;
    cfg.thresholds.tauBypass = 60;
    cfg.thresholds.tau = {40, 10, -30};
    cfg.thresholds.pi = {3, 2, 1};
    cfg.thresholds.tauNoPromote = 80;
    return cfg;
}

MpppbPolicy::MpppbPolicy(const cache::CacheGeometry& geom, unsigned cores,
                         const MpppbConfig& cfg)
    : cfg_(cfg), predictor_(geom, cores, cfg.predictor)
{
    switch (cfg_.substrate) {
      case Substrate::Mdpp:
        mdpp_ = std::make_unique<policy::MdppPolicy>(geom, cfg_.mdpp);
        mruPos_ = 0;
        for (const auto p : cfg_.thresholds.pi)
            fatalIf(p >= geom.ways(), "MDPP placement out of range");
        break;
      case Substrate::Srrip:
        srrip_ = std::make_unique<policy::SrripPolicy>(geom, cfg_.srrip);
        mruPos_ = cfg_.srrip.hitRrpv;
        for (const auto p : cfg_.thresholds.pi)
            fatalIf(p > srrip_->maxRrpv(), "RRPV placement out of range");
        break;
    }
    if (cfg_.dynamicBypass) {
        fatalIf(cfg_.duelingPeriod < 2 ||
                    cfg_.duelingPeriod > geom.sets(),
                "dueling period out of range");
        pselMax_ = (1 << (cfg_.pselBits - 1)) - 1;
    }
}

MpppbPolicy::SetRole
MpppbPolicy::roleOf(std::uint32_t set) const
{
    if (!cfg_.dynamicBypass)
        return SetRole::Follower;
    const std::uint32_t r = set % cfg_.duelingPeriod;
    if (r == 0)
        return SetRole::BypassLeader;
    if (r == cfg_.duelingPeriod / 2 + 1)
        return SetRole::NoBypassLeader;
    return SetRole::Follower;
}

bool
MpppbPolicy::bypassFavored() const
{
    // psel counts bypass-leader misses up: positive means the
    // bypassing group misses more, so followers stop bypassing.
    return !cfg_.dynamicBypass || psel_ <= 0;
}

void
MpppbPolicy::attachTelemetry(telemetry::MetricsRegistry& registry)
{
    tel_ = std::make_unique<Telemetry>();
    tel_->placePi1 = &registry.counter("mpppb.placement.pi1");
    tel_->placePi2 = &registry.counter("mpppb.placement.pi2");
    tel_->placePi3 = &registry.counter("mpppb.placement.pi3");
    tel_->placeMru = &registry.counter("mpppb.placement.mru");
    tel_->promotions = &registry.counter("mpppb.promotions");
    tel_->promotionsSuppressed =
        &registry.counter("mpppb.promotions_suppressed");
    tel_->bypassSuppressed =
        &registry.counter("mpppb.bypass.dueling_suppressed");
    registry.gaugeFn("mpppb.psel",
                     [this] { return static_cast<double>(psel_); });
    predictor_.attachTelemetry(registry);
}

std::uint32_t
MpppbPolicy::placementFor(int confidence) const
{
    const auto& th = cfg_.thresholds;
    if (confidence > th.tau[0]) {
        if (tel_)
            tel_->placePi1->add();
        return th.pi[0];
    }
    if (confidence > th.tau[1]) {
        if (tel_)
            tel_->placePi2->add();
        return th.pi[1];
    }
    if (confidence > th.tau[2]) {
        if (tel_)
            tel_->placePi3->add();
        return th.pi[2];
    }
    if (tel_)
        tel_->placeMru->add();
    return mruPos_;
}

void
MpppbPolicy::place(std::uint32_t set, std::uint32_t way, std::uint32_t pos)
{
    if (mdpp_)
        mdpp_->tree().setPosition(set, way, pos);
    else
        srrip_->setRrpv(set, way, pos);
}

void
MpppbPolicy::onHit(const cache::AccessInfo& info, std::uint32_t set,
                   std::uint32_t way)
{
    if (info.type == cache::AccessType::Writeback)
        return;
    const int conf = predictor_.observe(info, set, true);
    // §3.6: above τ4 the block is not promoted — it keeps the recency
    // position that encodes its earlier placement decision.
    if (conf > cfg_.thresholds.tauNoPromote) {
        if (tel_)
            tel_->promotionsSuppressed->add();
        return;
    }
    if (tel_)
        tel_->promotions->add();
    place(set, way, mruPos_);
}

void
MpppbPolicy::onMiss(const cache::AccessInfo& info, std::uint32_t set)
{
    if (info.type == cache::AccessType::Writeback) {
        lastConfidence_ = 0;
        return;
    }
    lastConfidence_ = predictor_.observe(info, set, false);
    if (cfg_.dynamicBypass && cache::isDemand(info.type)) {
        switch (roleOf(set)) {
          case SetRole::BypassLeader:
            if (psel_ < pselMax_)
                ++psel_;
            break;
          case SetRole::NoBypassLeader:
            if (psel_ > -pselMax_ - 1)
                --psel_;
            break;
          case SetRole::Follower:
            break;
        }
    }
}

bool
MpppbPolicy::shouldBypass(const cache::AccessInfo& info, std::uint32_t set)
{
    if (!cfg_.bypassEnabled || info.type == cache::AccessType::Writeback)
        return false;
    switch (roleOf(set)) {
      case SetRole::BypassLeader:
        break; // leaders always honor the threshold
      case SetRole::NoBypassLeader:
        return false;
      case SetRole::Follower:
        if (!bypassFavored()) {
            if (tel_ && lastConfidence_ > cfg_.thresholds.tauBypass)
                tel_->bypassSuppressed->add();
            return false;
        }
        break;
    }
    return lastConfidence_ > cfg_.thresholds.tauBypass;
}

std::uint32_t
MpppbPolicy::victimWay(const cache::AccessInfo& info, std::uint32_t set)
{
    return mdpp_ ? mdpp_->victimWay(info, set)
                 : srrip_->victimWay(info, set);
}

std::uint32_t
MpppbPolicy::victimWayIn(const cache::AccessInfo& info, std::uint32_t set,
                         cache::WayMask mask)
{
    return mdpp_ ? mdpp_->victimWayIn(info, set, mask)
                 : srrip_->victimWayIn(info, set, mask);
}

void
MpppbPolicy::onFill(const cache::AccessInfo& info, std::uint32_t set,
                    std::uint32_t way)
{
    if (info.type == cache::AccessType::Writeback) {
        // Dirty data evicted from above is installed at a distant but
        // not immediate-victim position.
        place(set, way, mdpp_ ? 12u : (srrip_ ? srrip_->maxRrpv() - 1 : 0u));
        return;
    }
    place(set, way, placementFor(lastConfidence_));
}

} // namespace mrp::core
