#include "common/bitvector.hh"

#include "common/logging.hh"

namespace vic
{

void
BitVector::indexOutOfRange(std::uint32_t idx) const
{
    vic_panic("bit index %u out of range (size %u)", idx, numBits);
}

void
BitVector::sizeMismatch(const BitVector &other) const
{
    vic_panic("bit vector size mismatch (%u vs %u)", numBits,
              other.numBits);
}

std::uint32_t
BitVector::findFirstClear() const
{
    for (std::uint32_t i = 0; i < numBits; ++i) {
        if (!test(i))
            return i;
    }
    return numBits;
}

} // namespace vic
