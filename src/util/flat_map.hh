/**
 * @file
 * AddrIndex: the one open-addressing address -> uint32_t hash index
 * behind the cache models' line lookups (Cache: line to way in caches
 * wider than Cache::kMaxScanWays, whose narrower sets are scanned
 * instead; SectorCache: sector to slot; LruStack: tree line to stamp).
 *
 * Power-of-two slots, linear probing from a Fibonacci hash of the key,
 * backward-shift deletion (no tombstones) and doubling at load 1/2.
 * A slot is empty when its value is kEmpty, so every key, 0 and ~0
 * included, is legal: ~0 is a real line address at 1-byte lines.  A
 * value must therefore never be kEmpty.
 *
 * Keys and values sit side by side in one slot array, so a hit costs
 * one hash and usually one cache line, with no pointer chase.
 */

#ifndef CACHELAB_UTIL_FLAT_MAP_HH
#define CACHELAB_UTIL_FLAT_MAP_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace cachelab
{

class AddrIndex
{
  public:
    /** A value no entry may hold; find() and take() return it on a miss. */
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

    AddrIndex() { rehash(kMinSlots); }

    /** @return @p key's value, or kEmpty when absent. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            const Slot &slot = slots_[i];
            if (slot.value == kEmpty || slot.key == key)
                return slot.value;
        }
    }

    bool contains(std::uint64_t key) const { return find(key) != kEmpty; }

    /**
     * Add @p key with @p value.  @return false, changing nothing, when
     * @p key is already present.
     */
    bool
    insert(std::uint64_t key, std::uint32_t value)
    {
        const std::size_t i = probe(key);
        if (slots_[i].value != kEmpty)
            return false;
        fill(i, key, value);
        return true;
    }

    /** Set @p key's value to @p value, adding @p key when absent. */
    void
    assign(std::uint64_t key, std::uint32_t value)
    {
        const std::size_t i = probe(key);
        if (slots_[i].value == kEmpty) {
            fill(i, key, value);
            return;
        }
        CACHELAB_ASSERT(value != kEmpty, "AddrIndex value is the empty "
                        "marker");
        slots_[i].value = value;
    }

    /**
     * Remove @p key in the same probe that finds it.
     * @return its value, or kEmpty when absent.
     */
    std::uint32_t
    take(std::uint64_t key)
    {
        std::size_t i = probe(key);
        const std::uint32_t value = slots_[i].value;
        if (value == kEmpty)
            return kEmpty;
        // Backward shift: walk the run after the hole and move back
        // every entry whose home does not lie between the hole and it.
        for (std::size_t j = (i + 1) & mask_; slots_[j].value != kEmpty;
             j = (j + 1) & mask_) {
            if (((j - home(slots_[j].key)) & mask_) >= ((j - i) & mask_)) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i].value = kEmpty;
        --size_;
        return value;
    }

    /** Remove every entry, keeping the slot array. */
    void
    clear()
    {
        for (Slot &slot : slots_)
            slot.value = kEmpty;
        size_ = 0;
    }

    std::size_t size() const { return size_; }

    /** Size the slot array so @p n entries fit without growing. */
    void
    reserve(std::size_t n)
    {
        if (2 * n > slots_.size())
            rehash(std::bit_ceil(2 * n));
    }

  private:
    static constexpr std::size_t kMinSlots = 16;

    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t value = kEmpty;
    };

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    /** @return @p key's slot, or the empty slot that ends its run. */
    std::size_t
    probe(std::uint64_t key) const
    {
        std::size_t i = home(key);
        while (slots_[i].value != kEmpty && slots_[i].key != key)
            i = (i + 1) & mask_;
        return i;
    }

    /** Put a new entry in empty slot @p i, @p key's probe end. */
    void
    fill(std::size_t i, std::uint64_t key, std::uint32_t value)
    {
        CACHELAB_ASSERT(value != kEmpty, "AddrIndex value is the empty "
                        "marker");
        if (2 * (size_ + 1) > slots_.size()) {
            rehash(2 * slots_.size());
            i = probe(key);
        }
        slots_[i] = {key, value};
        ++size_;
    }

    /** Move every entry into @p slot_count (a power of two) slots. */
    void
    rehash(std::size_t slot_count)
    {
        std::vector<Slot> old = std::exchange(slots_, {});
        slots_.assign(slot_count, Slot{});
        mask_ = slot_count - 1;
        shift_ = 64 - std::countr_zero(slot_count);
        for (const Slot &slot : old)
            if (slot.value != kEmpty)
                slots_[probe(slot.key)] = slot;
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    int shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace cachelab

#endif // CACHELAB_UTIL_FLAT_MAP_HH
