/**
 * @file
 * Deterministic fault injection for resilience testing.
 *
 * Production code marks *sites* — named points where the outside world
 * can fail — with the check*() calls below. Tests arm a site with a
 * Spec describing what should go wrong and when; unarmed sites cost a
 * single relaxed atomic load. Everything is reproducible: firing is
 * driven by per-site hit counters and byte corruption by the library's
 * own xoroshiro generator seeded from the Spec, so a failing case
 * replays identically.
 *
 * Site names in this repo follow "<module>.<operation>[.<detail>]",
 * e.g. "stream.read.alloc" or "runner.execute".
 */

#ifndef MRP_UTIL_FAULT_INJECTION_HPP
#define MRP_UTIL_FAULT_INJECTION_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace mrp::fault {

/** What an armed site does when it fires. */
enum class Kind {
    IoError,     //!< checkIo throws FatalError(ErrorCode::Io)
    CorruptByte, //!< checkCorrupt flips a deterministic bit in a buffer
    AllocFail,   //!< checkAlloc throws std::bad_alloc
    Stall,       //!< checkStall sleeps, simulating a wedged worker
};

/** When and how an armed site fires. */
struct Spec
{
    Kind kind = Kind::IoError;
    /** 1-based hit index at which the fault starts firing; hits before
     * it pass through (e.g. 3 = fail the third visit). */
    std::uint64_t firstHit = 1;
    /** How many hits fire once started; -1 = every hit from firstHit
     * on. With the default (1), a retry after the failure succeeds —
     * the shape of a transient fault. */
    std::int64_t maxFires = 1;
    /** Seed for CorruptByte position/bit selection. */
    std::uint64_t seed = 1;
    /** Sleep duration for Stall fires. */
    unsigned stallMillis = 50;
};

/** Arm @p site with @p spec, resetting its hit/fire counters. */
void arm(const std::string& site, const Spec& spec);

/** Disarm @p site (no-op if not armed); counters are kept so tests can
 * still read hits()/fires() afterwards. */
void disarm(const std::string& site);

/** Disarm every site and drop all counters. */
void disarmAll();

/** True if any site is armed (the production fast-path check). */
bool anyArmed();

/** Times @p site was visited since it was last armed. */
std::uint64_t hits(const std::string& site);

/** Times @p site actually fired since it was last armed. */
std::uint64_t fires(const std::string& site);

/**
 * Site checkpoints. Each is a no-op unless @p site is armed with the
 * matching Kind and the hit falls in the firing window.
 */

/** Throws FatalError(ErrorCode::Io, "injected I/O failure: " + what). */
void checkIo(const std::string& site, const std::string& what);

/** Throws std::bad_alloc, as a real allocation failure would. */
void checkAlloc(const std::string& site);

/** Sleeps for the armed Spec's stallMillis. */
void checkStall(const std::string& site);

/** Flips one deterministically-chosen bit in [data, data+size). */
void checkCorrupt(const std::string& site, void* data,
                  std::size_t size);

/** RAII armer: arms in the constructor, disarms in the destructor. */
class Scoped
{
  public:
    Scoped(std::string site, const Spec& spec);
    ~Scoped();
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

  private:
    std::string site_;
};

} // namespace mrp::fault

#endif // MRP_UTIL_FAULT_INJECTION_HPP
