/**
 * @file
 * A fixed-capacity most-recent-first history buffer, used for the
 * per-core history of recent memory-access PCs.
 */

#ifndef MRP_UTIL_HISTORY_HPP
#define MRP_UTIL_HISTORY_HPP

#include <cstddef>
#include <vector>

#include "util/logging.hpp"

namespace mrp {

/**
 * Ring buffer exposing its contents most-recent-first: recent(0) is the
 * last pushed element, recent(1) the one before, etc. Slots that have
 * never been written read as the default value.
 */
template <typename T>
class History
{
  public:
    explicit History(std::size_t capacity, T fill = T{})
        : buf_(capacity, fill), head_(0)
    {
        panicIf(capacity == 0, "History capacity must be nonzero");
    }

    /** Push a new most-recent element, evicting the oldest. */
    void
    push(const T& v)
    {
        if (++head_ == buf_.size())
            head_ = 0;
        buf_[head_] = v;
    }

    /** The i-th most recent element; recent(0) is the newest. */
    const T&
    recent(std::size_t i) const
    {
        panicIf(i >= buf_.size(), "History::recent out of range");
        // Wrap with a compare: both indices are below the capacity.
        return buf_[i <= head_ ? head_ - i : head_ + buf_.size() - i];
    }

    std::size_t capacity() const { return buf_.size(); }

  private:
    std::vector<T> buf_;
    std::size_t head_;
};

} // namespace mrp

#endif // MRP_UTIL_HISTORY_HPP
