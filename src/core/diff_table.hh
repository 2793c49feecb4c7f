/**
 * @file
 * The CBWS predictor's correlation hardware: per-step history shift
 * registers and the fully-associative differential history table
 * (Section V-A, Fig. 8).
 *
 * Each of the four prediction steps owns a shift register holding a
 * short history of hashed differentials (the paper stores 12-bit
 * bit-select hashes whose concatenation, 48 bits, is xor-folded into a
 * 16-bit tag). The tag indexes a 16-entry fully-associative table with
 * random eviction that maps a differential history to the differential
 * observed to follow it.
 */

#ifndef CBWS_CORE_DIFF_TABLE_HH
#define CBWS_CORE_DIFF_TABLE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "base/random.hh"
#include "core/cbws_types.hh"

namespace cbws
{

/**
 * Shift register of hashed differentials, analogous to a branch
 * history register but shifting CBWS differential hashes.
 */
class HistoryShiftRegister
{
  public:
    HistoryShiftRegister(unsigned depth, unsigned hash_bits)
        : depth_(depth), hashBits_(hash_bits)
    {
    }

    /** Shift in the hash of the newest differential. */
    void
    push(std::uint16_t hashed)
    {
        history_.push_front(hashed);
        if (history_.size() > depth_)
            history_.pop_back();
    }

    /** True once the register holds a full history. */
    bool full() const { return history_.size() == depth_; }

    std::size_t size() const { return history_.size(); }

    void
    clear()
    {
        history_.clear();
    }

    /**
     * xor-fold the depth * hashBits concatenation into @p tag_bits.
     */
    std::uint16_t
    tag(unsigned tag_bits) const
    {
        std::uint64_t concat = 0;
        unsigned shift = 0;
        for (std::uint16_t h : history_) {
            // Histories deeper than the 64-bit accumulator wrap
            // around it: the fold below only needs a stable mix of
            // every hash, not a lossless concatenation, and the
            // explicit mask keeps the shift in range.
            concat |= static_cast<std::uint64_t>(h) << (shift & 63u);
            shift += hashBits_;
        }
        std::uint64_t folded = 0;
        while (concat != 0) {
            folded ^= concat & ((1ull << tag_bits) - 1);
            concat >>= tag_bits;
        }
        return static_cast<std::uint16_t>(folded);
    }

  private:
    unsigned depth_;
    unsigned hashBits_;
    std::deque<std::uint16_t> history_; ///< front = newest
};

/**
 * Fully-associative differential history table with random eviction.
 */
class DifferentialTable
{
  public:
    DifferentialTable(unsigned entries, std::uint64_t seed = 0xCB)
        : entries_(entries), rng_(seed)
    {
        slots_.resize(entries);
    }

    /** Look up the differential recorded for history tag @p tag. */
    const CbwsDifferential *
    lookup(std::uint16_t tag) const
    {
        for (const auto &slot : slots_)
            if (slot.valid && slot.tag == tag)
                return &slot.diff;
        return nullptr;
    }

    /**
     * Record that history @p tag was followed by @p diff. The slot
     * copy-assigns, reusing its capacity, so a warm table allocates
     * nothing.
     */
    void
    insert(std::uint16_t tag, const CbwsDifferential &diff)
    {
        for (auto &slot : slots_) {
            if (slot.valid && slot.tag == tag) {
                slot.diff = diff;
                return;
            }
        }
        for (auto &slot : slots_) {
            if (!slot.valid) {
                slot.valid = true;
                slot.tag = tag;
                slot.diff = diff;
                return;
            }
        }
        auto &victim = slots_[rng_.below(slots_.size())];
        victim.tag = tag;
        victim.diff = diff;
    }

    void
    clear()
    {
        for (auto &slot : slots_)
            slot.valid = false;
    }

    unsigned capacity() const { return entries_; }

    unsigned
    occupancy() const
    {
        unsigned n = 0;
        for (const auto &slot : slots_)
            if (slot.valid)
                ++n;
        return n;
    }

  private:
    struct Slot
    {
        std::uint16_t tag = 0;
        CbwsDifferential diff;
        bool valid = false;
    };

    unsigned entries_;
    std::vector<Slot> slots_;
    Random rng_;
};

} // namespace cbws

#endif // CBWS_CORE_DIFF_TABLE_HH
