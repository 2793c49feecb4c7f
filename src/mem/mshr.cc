#include "mem/mshr.hh"

#include "base/logging.hh"

namespace cbws
{

MshrFile::Entry *
MshrFile::findSlow(LineAddr line)
{
    for (auto &e : entries_)
        if (e.valid && e.line == line)
            return &e;
    return nullptr;
}

MshrFile::Entry &
MshrFile::allocate(LineAddr line, Cycle ready_at, bool is_prefetch,
                   bool is_write)
{
    panic_if(find(line) != nullptr,
             "MSHR double-allocation for line %llx",
             static_cast<unsigned long long>(line));
    for (auto &e : entries_) {
        if (!e.valid) {
            e.valid = true;
            e.line = line;
            e.readyAt = ready_at;
            e.isPrefetch = is_prefetch;
            e.isWrite = is_write;
            e.demanded = false;
            e.pfSource = PfSource::Unknown;
            e.firstDemandAt = 0;
            ++numValid_;
            ++lineCount_[bucket(line)];
            if (ready_at < nextReady_)
                nextReady_ = ready_at;
            return e;
        }
    }
    panic("MSHR allocation with a full file");
}

void
MshrFile::clear()
{
    for (auto &e : entries_)
        e.valid = false;
    numValid_ = 0;
    nextReady_ = NoEvent;
    lineCount_.fill(0);
}

} // namespace cbws
