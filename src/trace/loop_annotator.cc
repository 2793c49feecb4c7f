#include "trace/loop_annotator.hh"

#include <algorithm>

#include "base/logging.hh"

namespace cbws
{

void
LoopAnnotator::detectLoops(const Trace &input)
{
    // Gather taken backward branches: branchPc -> (headerPc, count).
    struct Candidate
    {
        Addr header;
        std::uint64_t taken;
    };
    std::map<Addr, Candidate> candidates;
    for (const auto &rec : input) {
        if (rec.cls != InstClass::Branch || !rec.taken)
            continue;
        if (rec.effAddr > rec.pc)
            continue; // forward branch
        auto [it, inserted] =
            candidates.try_emplace(rec.pc,
                                   Candidate{rec.effAddr, 0});
        if (!inserted && it->second.header != rec.effAddr) {
            // Indirect backward branch with varying targets: keep the
            // smallest header so the body range is conservative.
            it->second.header = std::min<Addr>(it->second.header, rec.effAddr);
        }
        ++it->second.taken;
    }

    // Filter: tight (small static body), hot enough, and innermost
    // (no other candidate body nested strictly inside).
    loops_.clear();
    byHeader_.clear();
    for (const auto &[branch_pc, cand] : candidates) {
        if (cand.taken < params_.minIterations)
            continue;
        const Addr span = branch_pc - cand.header;
        if (span / params_.instBytes + 1 > params_.maxBodyInsts)
            continue;
        bool innermost = true;
        for (const auto &[other_pc, other] : candidates) {
            if (other_pc == branch_pc ||
                other.taken < params_.minIterations) {
                continue;
            }
            // other strictly inside [header, branch_pc]?
            if (other.header >= cand.header && other_pc <= branch_pc &&
                (other.header > cand.header || other_pc < branch_pc)) {
                innermost = false;
                break;
            }
        }
        if (!innermost)
            continue;
        DetectedLoop loop;
        loop.headerPc = cand.header;
        loop.branchPc = branch_pc;
        loop.id = static_cast<BlockId>(loops_.size());
        loops_.push_back(loop);
    }

    for (std::size_t i = 0; i < loops_.size(); ++i)
        byHeader_[loops_[i].headerPc] = i;
}

Trace
LoopAnnotator::annotate(const Trace &input)
{
    panic_if(input.countClass(InstClass::BlockBegin) != 0,
             "LoopAnnotator input already contains block markers");

    detectLoops(input);

    Trace out;
    out.reserve(input.size() + input.size() / 4);

    // Rewrite pass: insert BLOCK_BEGIN when control reaches a loop
    // header, BLOCK_END after the loop's backward branch (taken or
    // not: a not-taken closing branch still ends the final iteration).
    bool in_block = false;
    std::size_t active = 0;
    for (const auto &rec : input) {
        if (!in_block) {
            auto it = byHeader_.find(rec.pc);
            if (it != byHeader_.end()) {
                active = it->second;
                in_block = true;
                out.append(TraceRecord::blockBegin(
                    rec.pc, loops_[active].id));
            }
        }
        out.append(rec);
        if (in_block && rec.pc == loops_[active].branchPc &&
            rec.cls == InstClass::Branch) {
            out.append(TraceRecord::blockEnd(rec.pc, loops_[active].id));
            in_block = false;
            if (rec.taken)
                ++loops_[active].iterations;
        }
    }
    return out;
}

} // namespace cbws
