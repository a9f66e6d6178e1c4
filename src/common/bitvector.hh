/**
 * @file
 * Fixed-width dynamic bit vector.
 *
 * The consistency algorithm keeps, per resident physical page, two bit
 * vectors indexed by cache page ("P[p].mapped" and "P[p].stale" in the
 * paper, Section 4.1). The number of cache pages is small (cache size /
 * page size, e.g. 64 for a 256 KB cache with 4 KB pages), so the hot
 * operations — bitwise OR, clear, find-first, population count,
 * intersection — are a handful of word instructions. That cheapness is
 * itself one of the paper's claims ("the data structures used by the
 * algorithm lend themselves to efficient state modification") and is
 * measured by the micro_ops bench.
 *
 * So the hot operations are defined here, inline: CacheControl runs
 * them several times per consistency fault. The index check stays in
 * every build, as one compare with an out-of-line panic.
 */

#ifndef VIC_COMMON_BITVECTOR_HH
#define VIC_COMMON_BITVECTOR_HH

#include <bit>
#include <cstdint>
#include <vector>

namespace vic
{

class BitVector
{
  public:
    BitVector() = default;

    /** Construct a vector of @p nbits bits, all clear. */
    explicit BitVector(std::uint32_t nbits)
        : numBits(nbits), words((nbits + bitsPerWord - 1) / bitsPerWord, 0)
    {}

    /** Number of bits this vector holds. */
    std::uint32_t size() const { return numBits; }

    /** @return the value of bit @p idx. */
    bool
    test(std::uint32_t idx) const
    {
        checkIndex(idx);
        return (words[idx / bitsPerWord] >> (idx % bitsPerWord)) & 1;
    }

    /** Set bit @p idx. */
    void
    set(std::uint32_t idx)
    {
        checkIndex(idx);
        words[idx / bitsPerWord] |= std::uint64_t(1) << (idx % bitsPerWord);
    }

    /** Clear bit @p idx. */
    void
    reset(std::uint32_t idx)
    {
        checkIndex(idx);
        words[idx / bitsPerWord] &=
            ~(std::uint64_t(1) << (idx % bitsPerWord));
    }

    /** Clear all bits. */
    void
    clearAll()
    {
        for (std::uint64_t &w : words)
            w = 0;
    }

    /** Bitwise OR @p other into this vector. Sizes must match. */
    void
    orWith(const BitVector &other)
    {
        checkSize(other);
        for (std::size_t i = 0; i < words.size(); ++i)
            words[i] |= other.words[i];
    }

    /** @return true iff this vector and @p other share a set bit.
     *  Sizes must match. */
    bool
    intersects(const BitVector &other) const
    {
        checkSize(other);
        for (std::size_t i = 0; i < words.size(); ++i) {
            if (words[i] & other.words[i])
                return true;
        }
        return false;
    }

    /** @return true iff any bit is set. */
    bool
    any() const
    {
        for (std::uint64_t w : words) {
            if (w)
                return true;
        }
        return false;
    }

    /** @return true iff no bit is set. */
    bool none() const { return !any(); }

    /** Number of set bits. */
    std::uint32_t
    count() const
    {
        std::uint32_t n = 0;
        for (std::uint64_t w : words)
            n += static_cast<std::uint32_t>(std::popcount(w));
        return n;
    }

    /** Index of the first set bit; size() if none. */
    std::uint32_t
    findFirst() const
    {
        for (std::size_t i = 0; i < words.size(); ++i) {
            if (words[i]) {
                return static_cast<std::uint32_t>(
                    i * bitsPerWord +
                    static_cast<std::uint32_t>(std::countr_zero(words[i])));
            }
        }
        return numBits;
    }

    /** Index of the first clear bit; size() if none. */
    std::uint32_t findFirstClear() const;

    /** @return true iff exactly one bit is set. A word test, not
     *  count() == 1: without a popcount instruction in the target ISA
     *  count() is a library call per word. */
    bool
    exactlyOne() const
    {
        bool seen = false;
        for (std::uint64_t w : words) {
            if (w == 0)
                continue;
            if (seen || (w & (w - 1)) != 0)
                return false;
            seen = true;
        }
        return seen;
    }

    bool operator==(const BitVector &other) const = default;

  private:
    static constexpr std::uint32_t bitsPerWord = 64;

    std::uint32_t numBits = 0;
    std::vector<std::uint64_t> words;

    void
    checkIndex(std::uint32_t idx) const
    {
        if (idx >= numBits) [[unlikely]]
            indexOutOfRange(idx);
    }

    void
    checkSize(const BitVector &other) const
    {
        if (numBits != other.numBits) [[unlikely]]
            sizeMismatch(other);
    }

    [[noreturn, gnu::cold]] void indexOutOfRange(std::uint32_t idx) const;
    [[noreturn, gnu::cold]] void sizeMismatch(const BitVector &other) const;
};

} // namespace vic

#endif // VIC_COMMON_BITVECTOR_HH
