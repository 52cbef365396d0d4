#include "core/feature.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/logging.hpp"

namespace mrp::core {

namespace {

const char*
kindName(FeatureKind k)
{
    switch (k) {
      case FeatureKind::Pc:
        return "pc";
      case FeatureKind::Address:
        return "address";
      case FeatureKind::Bias:
        return "bias";
      case FeatureKind::Burst:
        return "burst";
      case FeatureKind::Insert:
        return "insert";
      case FeatureKind::LastMiss:
        return "lastmiss";
      case FeatureKind::Offset:
        return "offset";
    }
    return "?";
}

/** Number of B..E-style bit parameters a kind takes. */
bool
hasBitRange(FeatureKind k)
{
    return k == FeatureKind::Pc || k == FeatureKind::Address ||
           k == FeatureKind::Offset;
}

} // namespace

std::uint32_t
FeatureSpec::tableSize() const
{
    // Paper §3.4: PC and address features, and any feature XORed with
    // the PC, use 8-bit indices (256 weights); offset uses up to 64;
    // single-bit features use 2; bias uses 1.
    if (xorPc || kind == FeatureKind::Pc || kind == FeatureKind::Address)
        return 256;
    switch (kind) {
      case FeatureKind::Offset: {
          const unsigned lo = std::min(begin, end);
          const unsigned hi = std::max(begin, end);
          const unsigned width = std::min(hi - lo + 1, 6u);
          return 1u << width;
      }
      case FeatureKind::Bias:
        return 1;
      default:
        return 2;
    }
}

std::string
FeatureSpec::toString() const
{
    std::ostringstream os;
    os << kindName(kind) << '(' << assoc;
    if (hasBitRange(kind))
        os << ',' << begin << ',' << end;
    if (kind == FeatureKind::Pc)
        os << ',' << depth;
    os << ',' << (xorPc ? 1 : 0) << ')';
    return os.str();
}

FeatureSpec
FeatureSpec::parse(const std::string& text)
{
    const auto open = text.find('(');
    fatalIf(open == std::string::npos || text.back() != ')',
            "malformed feature: " + text);
    const std::string name = text.substr(0, open);

    FeatureSpec f;
    if (name == "pc")
        f.kind = FeatureKind::Pc;
    else if (name == "address")
        f.kind = FeatureKind::Address;
    else if (name == "bias")
        f.kind = FeatureKind::Bias;
    else if (name == "burst")
        f.kind = FeatureKind::Burst;
    else if (name == "insert")
        f.kind = FeatureKind::Insert;
    else if (name == "lastmiss")
        f.kind = FeatureKind::LastMiss;
    else if (name == "offset")
        f.kind = FeatureKind::Offset;
    else
        fatal("unknown feature kind: " + name);

    // Parameters in the exact form toString() writes: plain decimal,
    // no sign, blank or leading zero, so parse(s).toString() == s.
    std::vector<unsigned> args;
    std::istringstream is(text.substr(open + 1, text.size() - open - 2));
    std::string tok;
    while (std::getline(is, tok, ',')) {
        fatalIf(tok.empty() || tok.size() > 9 ||
                    (tok.size() > 1 && tok[0] == '0') ||
                    tok.find_first_not_of("0123456789") !=
                        std::string::npos,
                "malformed parameter '" + tok + "' in feature: " + text);
        args.push_back(static_cast<unsigned>(std::stoul(tok)));
    }

    const std::size_t expected =
        f.kind == FeatureKind::Pc ? 5 : (hasBitRange(f.kind) ? 4 : 2);
    fatalIf(args.size() != expected || text[text.size() - 2] == ',',
            "wrong parameter count in feature: " + text);

    std::size_t i = 0;
    f.assoc = args[i++];
    if (hasBitRange(f.kind)) {
        f.begin = args[i++];
        f.end = args[i++];
    }
    if (f.kind == FeatureKind::Pc)
        f.depth = args[i++];
    fatalIf(args[i] > 1, "xor flag must be 0 or 1 in feature: " + text);
    f.xorPc = args[i++] != 0;
    fatalIf(f.assoc == 0 || f.assoc > kMaxFeatureAssoc,
            "feature associativity out of range: " + text);
    return f;
}

CompiledFeature::CompiledFeature(const FeatureSpec& spec,
                                 std::uint32_t weight_offset)
    : xorMask_(spec.xorPc ? 0xff : 0), tableMask_(spec.tableSize() - 1),
      weightOffset_(weight_offset)
{
    // Select bits B..E of a slot as bits() does: reversed B/E swap,
    // bits past 63 read as zero.
    auto select = [&](unsigned slot) {
        slot_ = static_cast<std::uint8_t>(slot);
        const unsigned lo = std::min(spec.begin, spec.end);
        const unsigned hi = std::min(std::max(spec.begin, spec.end), 63u);
        if (lo > 63)
            return;
        const unsigned width = hi - lo + 1;
        shift_ = static_cast<std::uint8_t>(lo);
        mask_ = width >= 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << width) - 1;
    };
    switch (spec.kind) {
      case FeatureKind::Pc:
        fatalIf(spec.depth > cache::CoreContext::kPcHistoryDepth,
                "pc feature depth exceeds the PC history: " +
                    spec.toString());
        select(FeatureSources::kPc + spec.depth);
        break;
      case FeatureKind::Address:
        select(FeatureSources::kAddr);
        break;
      case FeatureKind::Offset:
        select(FeatureSources::kOffset);
        break;
      case FeatureKind::Bias:
        break; // mask 0: the constant 0
      case FeatureKind::Burst:
        slot_ = FeatureSources::kBurst;
        mask_ = 1;
        break;
      case FeatureKind::Insert:
        slot_ = FeatureSources::kInsert;
        mask_ = 1;
        break;
      case FeatureKind::LastMiss:
        slot_ = FeatureSources::kLastMiss;
        mask_ = 1;
        break;
    }
}

std::uint32_t
featureIndex(const FeatureSpec& spec, const FeatureInput& in)
{
    const CompiledFeature f(spec);
    const auto depth = static_cast<std::uint8_t>(f.historyDepth());
    const FeatureSources src(in, {&depth, depth == 0 ? 0u : 1u});
    return f.index(src);
}

FeatureSpec
FeatureSpec::random(Rng& rng)
{
    FeatureSpec f;
    f.kind = static_cast<FeatureKind>(rng.below(7));
    f.assoc = static_cast<unsigned>(rng.range(1, kMaxFeatureAssoc));
    f.xorPc = rng.chance(0.5);
    switch (f.kind) {
      case FeatureKind::Pc: {
          const unsigned b = static_cast<unsigned>(rng.below(32));
          const unsigned e =
              b + static_cast<unsigned>(rng.range(0, 31));
          f.begin = b;
          f.end = std::min(e, 63u);
          f.depth = static_cast<unsigned>(rng.below(
              cache::CoreContext::kPcHistoryDepth));
          break;
      }
      case FeatureKind::Address: {
          const unsigned b = static_cast<unsigned>(rng.range(6, 30));
          f.begin = b;
          f.end = std::min(
              b + static_cast<unsigned>(rng.range(0, 24)), 40u);
          break;
      }
      case FeatureKind::Offset: {
          f.begin = static_cast<unsigned>(rng.below(6));
          f.end = std::min(
              f.begin + static_cast<unsigned>(rng.range(0, 5)), 7u);
          break;
      }
      default:
        break;
    }
    return f;
}

FeatureSpec
FeatureSpec::perturbed(Rng& rng) const
{
    FeatureSpec f = *this;
    // Nudge one randomly chosen parameter, as the hill climber does.
    switch (rng.below(4)) {
      case 0: {
          const int delta = rng.chance(0.5) ? 1 : -1;
          const int a = static_cast<int>(f.assoc) + delta;
          f.assoc = static_cast<unsigned>(std::clamp(
              a, 1, static_cast<int>(kMaxFeatureAssoc)));
          break;
      }
      case 1:
        f.xorPc = !f.xorPc;
        break;
      case 2:
        if (f.kind == FeatureKind::Pc)
            f.depth = static_cast<unsigned>(rng.below(
                cache::CoreContext::kPcHistoryDepth));
        else
            f.xorPc = !f.xorPc;
        break;
      default: {
          const int delta = rng.chance(0.5) ? 1 : -1;
          const int b = static_cast<int>(f.begin) + delta;
          f.begin = static_cast<unsigned>(std::clamp(b, 0, 63));
          if (f.end < f.begin)
              std::swap(f.begin, f.end);
          break;
      }
    }
    return f;
}

std::string
formatFeatureSet(const std::vector<FeatureSpec>& set)
{
    std::string out;
    for (const auto& f : set) {
        out += f.toString();
        out += '\n';
    }
    return out;
}

std::vector<FeatureSpec>
withUniformAssociativity(const std::vector<FeatureSpec>& set,
                         unsigned assoc)
{
    fatalIf(assoc == 0 || assoc > kMaxFeatureAssoc,
            "uniform associativity out of range");
    std::vector<FeatureSpec> out = set;
    for (auto& f : out)
        f.assoc = assoc;
    return out;
}

std::vector<FeatureSpec>
without(const std::vector<FeatureSpec>& set, std::size_t idx)
{
    fatalIf(idx >= set.size(), "feature index out of range");
    std::vector<FeatureSpec> out = set;
    out.erase(out.begin() + static_cast<long>(idx));
    return out;
}

} // namespace mrp::core
