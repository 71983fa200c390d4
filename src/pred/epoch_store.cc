#include "pred/epoch_store.hh"

#include "sim/log.hh"

namespace dvfs::pred {

void
EpochStore::clear()
{
    _headers.clear();
    _rows.clear();
    _words.clear();
}

void
EpochStore::shrinkToFit()
{
    _headers.shrink_to_fit();
    _rows.shrink_to_fit();
    _words.shrink_to_fit();
}

std::size_t
EpochStore::bytes() const
{
    return _headers.capacity() * sizeof(Header) +
           _rows.capacity() * sizeof(RowHead) +
           _words.capacity() * sizeof(std::uint64_t);
}

void
EpochStore::overflow()
{
    fatal("epoch store exceeds its 32-bit row or word offsets");
}

} // namespace dvfs::pred
