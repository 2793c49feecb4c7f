/**
 * @file
 * The cycle-level banked DRAM backend (see ddr.hh for the model).
 */

#include "mem/dram/ddr.hh"

#include <algorithm>
#include <functional>
#include <memory>

#include "base/logging.hh"

namespace cbws
{

DdrBackend::DdrBackend(const HierarchyParams &params)
    : ddr_(params.ddr),
      banks_(ddr_.totalBanks()),
      ranks_(static_cast<std::size_t>(ddr_.channels) *
             ddr_.ranksPerChannel),
      channels_(ddr_.channels)
{
    panic_if(ddr_.channels == 0 || ddr_.ranksPerChannel == 0 ||
                 ddr_.banksPerRank == 0,
             "ddr backend: geometry must be nonzero");
    panic_if(ddr_.rowBytes < LineBytes,
             "ddr backend: rowBytes must hold at least one line");
    panic_if(ddr_.tREFI != 0 && ddr_.tRFC >= ddr_.tREFI,
             "ddr backend: tRFC must be < tREFI");
    panic_if(ddr_.writeLowWatermark >= ddr_.writeHighWatermark,
             "ddr backend: writeLowWatermark must be < "
             "writeHighWatermark");
}

DdrBackend::Decoded
DdrBackend::decode(LineAddr line) const
{
    Decoded d;
    std::uint64_t rest = line;
    d.channel = static_cast<unsigned>(rest % ddr_.channels);
    rest /= ddr_.channels;
    rest /= ddr_.linesPerRow(); // column bits: timing-irrelevant
    const unsigned bankInChannel =
        static_cast<unsigned>(rest % ddr_.banksPerChannel());
    rest /= ddr_.banksPerChannel();
    d.row = rest;
    d.bank = d.channel * ddr_.banksPerChannel() + bankInChannel;
    d.rank = d.channel * ddr_.ranksPerChannel +
             bankInChannel / ddr_.banksPerRank;
    return d;
}

void
DdrBackend::retireReads(Channel &ch, Cycle now)
{
    auto &heap = ch.readOutstanding;
    while (!heap.empty() && heap.front() <= now) {
        std::pop_heap(heap.begin(), heap.end(),
                      std::greater<Cycle>());
        heap.pop_back();
    }
}

Cycle
DdrBackend::popEarliestRead(Channel &ch)
{
    auto &heap = ch.readOutstanding;
    const Cycle earliest = heap.front();
    std::pop_heap(heap.begin(), heap.end(), std::greater<Cycle>());
    heap.pop_back();
    return earliest;
}

Cycle
DdrBackend::refreshAdjust(unsigned rank, Cycle t)
{
    if (ddr_.tREFI == 0 || ddr_.tRFC == 0)
        return t;
    Rank &r = ranks_[rank];
    const Cycle epoch = t / ddr_.tREFI;
    if (epoch > r.refreshEpoch) {
        // A refresh happened since this rank was last touched:
        // refresh ends with all banks precharged.
        r.refreshEpoch = epoch;
        const unsigned banksPerRank = ddr_.banksPerRank;
        const unsigned first = rank * banksPerRank;
        for (unsigned b = first; b < first + banksPerRank; ++b)
            banks_[b].openRow = Bank::NoRow;
    }
    // Inside the blackout [n*tREFI, n*tREFI + tRFC)? Wait it out.
    // (Epoch 0 has no refresh: the first falls at tREFI.)
    const Cycle blackoutStart = epoch * ddr_.tREFI;
    if (epoch > 0 && t < blackoutStart + ddr_.tRFC) {
        ++stats_.refreshStalls;
        return blackoutStart + ddr_.tRFC;
    }
    return t;
}

Cycle
DdrBackend::fawAdjust(Rank &rank, Cycle t)
{
    auto &acts = rank.actTimes;
    // Keep the ACT history non-decreasing so the sliding window is
    // well-defined under near-monotone arrivals.
    if (!acts.empty() && t < acts.back())
        t = acts.back();
    if (acts.size() == 4) {
        const Cycle windowEnd = acts.front() + ddr_.tFAW;
        if (t < windowEnd) {
            t = windowEnd;
            ++stats_.fawStalls;
        }
        acts.pop_front();
    }
    acts.push_back(t);
    ++stats_.activates;
    return t;
}

Cycle
DdrBackend::serviceColumn(const Decoded &d, Cycle t)
{
    t = refreshAdjust(d.rank, t);

    Bank &bank = banks_[d.bank];
    Cycle cas;
    if (bank.openRow == d.row) {
        ++stats_.rowHits;
        cas = std::max(t, bank.readyAt);
    } else if (bank.openRow != Bank::NoRow) {
        ++stats_.rowMisses;
        const Cycle pre = std::max(t, bank.readyAt);
        const Cycle act =
            fawAdjust(ranks_[d.rank], pre + ddr_.tRP);
        cas = act + ddr_.tRCD;
        bank.openRow = d.row;
    } else {
        ++stats_.rowClosed;
        const Cycle act =
            fawAdjust(ranks_[d.rank], std::max(t, bank.readyAt));
        cas = act + ddr_.tRCD;
        bank.openRow = d.row;
    }

    Channel &ch = channels_[d.channel];
    const Cycle dataReady = cas + ddr_.tCL;
    const Cycle busStart = std::max(dataReady, ch.busFreeAt);
    ch.busFreeAt = busStart + ddr_.tBURST;
    stats_.busBusyCycles += ddr_.tBURST;

    // Next CAS to this bank must leave room for this burst (tCCD).
    bank.readyAt = cas + ddr_.tBURST;

    Cycle completion = busStart + ddr_.tBURST;
    // Per-bank monotonicity clamp: a later request to this bank
    // never completes before an earlier one.
    completion = std::max(completion, bank.lastCompletion);
    bank.lastCompletion = completion;
    return completion;
}

Cycle
DdrBackend::read(const DramRequest &req)
{
    ++stats_.reads;
    const Decoded d = decode(req.line);
    Channel &ch = channels_[d.channel];

    retireReads(ch, req.arrival);
    stats_.readQueueDepthSum += ch.readOutstanding.size();

    Cycle t = req.arrival;

    // Bounded read queue: a full queue back-pressures admission
    // until the earliest outstanding read completes.
    if (ch.readOutstanding.size() >= ddr_.readQueueEntries) {
        ++stats_.readQueueFullStalls;
        while (ch.readOutstanding.size() >= ddr_.readQueueEntries)
            t = std::max(t, popEarliestRead(ch));
    }

    // Bandwidth-aware prefetch throttle: under queue pressure,
    // prefetch-sourced reads wait for demands to drain.
    if (req.isPrefetch && ddr_.prefetchDeferThreshold != 0 &&
        ch.readOutstanding.size() >= ddr_.prefetchDeferThreshold) {
        Cycle deferredTo = t;
        while (ch.readOutstanding.size() >=
               ddr_.prefetchDeferThreshold)
            deferredTo = std::max(deferredTo, popEarliestRead(ch));
        ++stats_.prefetchesDeferred;
        stats_.deferralCycles += deferredTo - t;
        t = deferredTo;
    }

    // Reads arriving during a write-drain burst wait for it.
    t = std::max(t, ch.drainBusyUntil);

    const Cycle busDone =
        serviceColumn(d, t + ddr_.frontendLatency);
    const Cycle completion = busDone + ddr_.backendLatency;

    ch.readOutstanding.push_back(completion);
    std::push_heap(ch.readOutstanding.begin(),
                   ch.readOutstanding.end(), std::greater<Cycle>());

    return completion;
}

void
DdrBackend::write(LineAddr line, Cycle arrival)
{
    ++stats_.writes;
    const Decoded d = decode(line);
    Channel &ch = channels_[d.channel];

    stats_.writeQueueDepthSum += ch.writeQueue.size();
    ch.writeQueue.push_back({line, arrival});

    if (ch.writeQueue.size() >= ddr_.writeHighWatermark ||
        ch.writeQueue.size() >= ddr_.writeQueueEntries)
        drainWrites(ch, arrival);
}

void
DdrBackend::drainWrites(Channel &ch, Cycle now)
{
    ++stats_.writeDrains;
    Cycle t = std::max(now, ch.drainBusyUntil);
    while (ch.writeQueue.size() > ddr_.writeLowWatermark) {
        const BufferedWrite w = ch.writeQueue.front();
        ch.writeQueue.pop_front();
        t = serviceColumn(decode(w.line), std::max(t, w.arrival));
    }
    ch.drainBusyUntil = t;
}

std::unique_ptr<DramBackend>
makeDdrBackend(const HierarchyParams &params)
{
    return std::make_unique<DdrBackend>(params);
}

} // namespace cbws
