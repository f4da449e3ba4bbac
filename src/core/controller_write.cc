/**
 * @file
 * MemoryController write service: committing the head write the access
 * scheduler selected, split (two-step / multi-step) or grouped (WoW)
 * as the write coalescer directs, plus write completion/commit and the
 * write-cancellation comparator.
 */

#include "core/controller.h"

#include <algorithm>

#include "obs/attrib.h"
#include "obs/trace.h"
#include "sim/log.h"

namespace pcmap {

void
MemoryController::completeSilentWrite(const WriteEntry &entry)
{
    ++counters.writesCompleted;
    ++counters.writesSilent;
    ++counters.essentialHist[0];
    const Tick now = eventq.now();
    counters.writeLatencyHist.sample(now - entry.req.enqueueTick);
    counters.queueResidencyHist.sample(now - entry.req.enqueueTick);
    if (const obs::attrib::LedgerRef led = entry.req.ledger) {
        // A silent write never touches the array: its whole life was
        // queue residency.
        attrib->account(led, obs::attrib::Phase::QueueResidency, now);
        attrib->close(led, now);
    }
    if (writeCompleteCb) {
        writeCompleteCb(entry.req.id, entry.req.coreId,
                        entry.req.enqueueTick, now);
    }
    PCMAP_OBS_TRACE(trace, obs::TracePoint::WriteComplete,
                    entry.req.enqueueTick, now - entry.req.enqueueTick,
                    entry.line,
                    static_cast<std::uint64_t>(obs::WriteKind::Silent),
                    0, channelId, entry.loc.rank, entry.loc.bank);
    notifyRetry();
}

EventHandle
MemoryController::scheduleWriteCompletion(const WriteEntry &entry,
                                          Tick done, obs::WriteKind kind,
                                          bool track_active)
{
    ++inFlight;
    const std::uint64_t line = entry.line;
    const CacheLine data = entry.req.data;
    const Tick enq = entry.req.enqueueTick;
    const unsigned w_rank = entry.loc.rank;
    const unsigned w_bank = entry.loc.bank;
    const ReqId w_id = entry.req.id;
    const unsigned w_core = entry.req.coreId;
    const obs::attrib::LedgerRef led = entry.req.ledger;
    return eventq.schedule(done, [this, line, data, track_active, enq,
                                  kind, w_rank, w_bank, w_id, w_core,
                                  led]() {
        // Recompute the change mask at commit time: an earlier write
        // to the same line may have committed since this one was
        // planned, and correctness requires applying every word that
        // still differs.
        const auto [changed, before, after] =
            backing.commitWrite(line, data);

        // Energy: the differential write reads the line, then pulses
        // exactly the flipped bits of the data words plus the ECC and
        // PCC code updates; the bus carried the essential words.
        energyModel.recordActivation(1);
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            if (changed & (1u << w)) {
                energyModel.recordWordWrite(before.data.w[w],
                                            after.data.w[w]);
                wearTracker.recordChipWrite(
                    lineLayout->chipForWord(line, w));
            }
        }
        if (before.ecc != after.ecc) {
            energyModel.recordWordWrite(before.ecc, after.ecc);
            wearTracker.recordChipWrite(lineLayout->eccChip(line));
        }
        if (cfg.hasPcc() && before.pcc != after.pcc) {
            energyModel.recordWordWrite(before.pcc, after.pcc);
            wearTracker.recordChipWrite(lineLayout->pccChip(line));
        }
        energyModel.recordBusTransfer(wordCount(changed));

        ++counters.writesCompleted;
        const Tick commit = eventq.now();
        counters.writeLatencyHist.sample(commit - enq);
        if (led) {
            attrib->account(led, obs::attrib::Phase::ArrayAccess, commit);
            attrib->close(led, commit);
        }
        if (writeCompleteCb)
            writeCompleteCb(w_id, w_core, enq, commit);
        PCMAP_OBS_TRACE(trace, obs::TracePoint::WriteComplete, enq,
                        commit - enq, line,
                        static_cast<std::uint64_t>(kind), 0, channelId,
                        w_rank, w_bank);
        if (track_active)
            activeWrite.valid = false;
        --inFlight;
        kick();
    });
}

bool
MemoryController::tryIssueWrites(Tick now, Tick &earliest)
{
    if (writeQ.empty())
        return false;
    if (codeBacklog >= cfg.codeUpdateBacklogCap) {
        // The pending ECC/PCC update buffer is full: the fixed code
        // chips cannot keep up and write service must wait for them
        // (the contention the RDE rotation relieves).  The retry
        // horizon must track the *full* write occupancy — a code
        // update on an MLC+ chip holds it for every programming
        // round, so retrying at half a single round's pulse would
        // spin the kick loop without ever finding the chips free.
        earliest = now + cfg.timing.totalWritePulseTicks() / 2;
        return false;
    }

    // Mark the reads this drain step is holding up (Figure 1 metric).
    if (!readQ.empty()) {
        for (ReadEntry &r : readQ)
            r.delayedByWrite = true;
    }

    // Oldest-first write selection among ranks whose write slot is
    // free (one write group in service per rank).  The paper's
    // scheduler rule 1 would prefer a one-essential-word write
    // whenever reads wait, to maximize RoW opportunities; with WoW
    // enabled that trade costs more consolidation bandwidth than the
    // overlapped reads recover, so this implementation applies RoW
    // only when the oldest eligible write happens to qualify.  See
    // EXPERIMENTS.md.
    Tick soonest_slot = kTickMax;
    const std::size_t head_idx =
        scheduler->selectWrite(writeQ, writeSlotFreeAt, now, soonest_slot);
    if (head_idx == writeQ.size()) {
        earliest = soonest_slot;
        return false;
    }
    WriteEntry head = std::move(writeQ[head_idx]);
    writeQ.erase(writeQ.begin() + static_cast<std::ptrdiff_t>(head_idx));

    if (cfg.enablePreset && !head.presetDone) {
        // The write outran its background pre-SET: drop the pending
        // pulse instead of wasting it on a line leaving the queue.
        for (std::size_t i = 0; i < bgOps.size(); ++i) {
            if (bgOps[i].kind == obs::BgKind::Preset &&
                bgOps[i].presetLine == head.line) {
                pcmap_assert(codeBacklog > 0);
                --codeBacklog;
                bgOps.erase(bgOps.begin() +
                            static_cast<std::ptrdiff_t>(i));
                break;
            }
        }
    }

    const DecodedAddr loc = head.loc;
    const std::uint64_t line = head.line;
    const WordMask essential = backing.essentialWords(line, head.req.data);
    const unsigned n_essential = wordCount(essential);
    counters.essentialWordsSum += n_essential;

    if (essential == 0) {
        completeSilentWrite(head);
        return true;
    }
    ++counters.essentialHist[n_essential];

    if (!cfg.fineGrained) {
        // ------------------------------------------------------------
        // Baseline coarse write: the whole 9-chip bank is locked in
        // lockstep for the full write latency; only the essential
        // chips (and the ECC chip) actually pulse their arrays, but
        // none of the others can serve anything meanwhile.
        // ------------------------------------------------------------
        const ChipMask chips =
            static_cast<ChipMask>((1u << (kDataChips + 1)) - 1);
        const Tick lower =
            std::max(now, ranks[loc.rank].freeAt(chips, loc.bank));
        Tick s = 0;
        Tick e = 0;
        buses.computeWriteWindow(chips, lower, s, e);
        // A round-boundary cancellation kept head.roundsDone rounds in
        // the array; the re-issued write programs only the remainder.
        if (head.roundsDone > 0)
            e -= static_cast<Tick>(head.roundsDone) *
                 cfg.timing.roundTicks();
        if (head.presetDone) {
            // PreSET: only the fast RESET pulse remains (every cell
            // is 1; the write resets the 0 bits of the new data) —
            // one RESET-length pulse per outstanding round.
            e = s + cfg.timing.writeColTicks() +
                cfg.timing.burstTicks() +
                static_cast<Tick>(cfg.timing.writeRounds -
                                  head.roundsDone) *
                    nsToTicks(cfg.timing.resetNs);
            ++counters.presetWrites;
        }
        if (cfg.timing.writeRounds > 1) {
            counters.writeRoundsIssued +=
                cfg.timing.writeRounds - head.roundsDone;
        }
        reserveChips(loc.rank, chips, loc.bank, loc.row, s, e, true);
        buses.occupy(chips,
                     s + cfg.timing.writeColTicks() +
                         cfg.timing.burstTicks(),
                     true);
        const ChipMask busy_data =
            lineLayout->chipsForWords(line, essential);
        irlpTrackers[loc.rank].addOp(now, s, e, busy_data, true);
        counters.writeIrlpHist.sample(chipCount(busy_data));
        counters.queueResidencyHist.sample(s - head.req.enqueueTick);
        if (const obs::attrib::LedgerRef led = head.req.ledger) {
            attrib->account(led, obs::attrib::Phase::QueueResidency, now);
            attrib->account(led, obs::attrib::Phase::BankWait, lower);
            attrib->account(led, obs::attrib::Phase::QueueResidency, s);
        }
        PCMAP_OBS_TRACE(trace, obs::TracePoint::WriteIssue, s, e - s,
                        line, chips,
                        static_cast<std::uint64_t>(
                            obs::WriteKind::Coarse),
                        channelId, loc.rank, loc.bank);
        writeSlotFreeAt[loc.rank] = e;
        const EventHandle completion =
            scheduleWriteCompletion(head, e, obs::WriteKind::Coarse,
                                    cfg.enableWriteCancellation);
        if (cfg.enableWriteCancellation) {
            activeWrite.valid = true;
            activeWrite.rank = loc.rank;
            activeWrite.bank = loc.bank;
            activeWrite.start = s;
            activeWrite.end = e;
            activeWrite.pulseStart =
                s + cfg.timing.writeColTicks() + cfg.timing.burstTicks();
            activeWrite.roundTicks =
                cfg.timing.writeRounds > 1
                    ? (head.presetDone ? nsToTicks(cfg.timing.resetNs)
                                       : cfg.timing.roundTicks())
                    : 0;
            activeWrite.irlpChips = busy_data;
            activeWrite.completion = completion;
            activeWrite.entry = std::move(head);
        }
        return true;
    }

    // ----------------------------------------------------------------
    // Fine-grained PCMap write service.
    // ----------------------------------------------------------------
    const ChipMask data_chips = lineLayout->chipsForWords(line, essential);
    const unsigned ecc_chip = lineLayout->eccChip(line);
    const unsigned pcc_chip = lineLayout->pccChip(line);
    // The controller polls the DIMM status register before scheduling
    // (counted, not timed).
    ++counters.statusPolls;

    const bool two_step =
        coalescer->splitTwoStep(n_essential, !readQ.empty());
    const bool multi_step =
        coalescer->splitMultiStep(n_essential, !readQ.empty());
    if (multi_step) {
        // One chip per step (the first with the ECC chip), then PCC.
        const std::uint32_t slot = acquireTrain(loc.rank, loc.bank, loc.row);
        WriteTrain &t = trains[slot];
        forEachSetBit(essential, [&](unsigned w) {
            t.steps[t.nSteps++] =
                static_cast<ChipMask>(1u << lineLayout->chipForWord(line, w));
        });
        t.steps[t.nSteps++] = static_cast<ChipMask>(1u << pcc_chip);

        // Step 0 now: first essential chip + the ECC chip.
        const ChipMask first =
            t.steps[0] | static_cast<ChipMask>(1u << ecc_chip);
        const Tick lower =
            std::max(now, ranks[loc.rank].freeAt(first, loc.bank));
        Tick s0 = 0;
        Tick e0 = 0;
        buses.computeWriteWindow(first, lower, s0, e0);
        reserveChips(loc.rank, first, loc.bank, loc.row, s0, e0, true);
        buses.occupy(first,
                     s0 + cfg.timing.writeColTicks() +
                         cfg.timing.burstTicks(),
                     true);
        irlpTrackers[loc.rank].addOp(now, s0, e0, t.steps[0], true);
        // One chip pulses at a time throughout the serialized chain.
        counters.writeIrlpHist.sample(1);
        counters.queueResidencyHist.sample(s0 - head.req.enqueueTick);
        if (const obs::attrib::LedgerRef led = head.req.ledger) {
            attrib->account(led, obs::attrib::Phase::QueueResidency, now);
            attrib->account(led, obs::attrib::Phase::BankWait, lower);
            attrib->account(led, obs::attrib::Phase::QueueResidency, s0);
        }
        PCMAP_OBS_TRACE(trace, obs::TracePoint::WriteIssue, s0, e0 - s0,
                        line, first,
                        static_cast<std::uint64_t>(
                            obs::WriteKind::MultiStep),
                        channelId, loc.rank, loc.bank);

        // Later steps issue from the train's events so their chips
        // stay visibly free (for RoW reads) until each step begins.
        t.next = 1;
        t.members.push_back(WriteGroupMember{std::move(head), essential,
                                             data_chips, line, loc.row,
                                             n_essential});
        writeSlotFreeAt[loc.rank] =
            e0 + (t.nSteps - 2) * cfg.timing.chipWriteTicks();
        ++counters.multiStepWrites;
        if (cfg.timing.writeRounds > 1) {
            // Each serialized chip step runs its full round train
            // (data steps plus the trailing PCC step).
            counters.writeRoundsIssued +=
                static_cast<std::uint64_t>(cfg.timing.writeRounds) *
                t.nSteps;
        }
        scheduleTrain(e0, slot);
        return true;
    }

    if (two_step) {
        // Step 1: the essential data chip and the ECC chip.
        // Step 2: the PCC chip, scheduled immediately after with no
        // interruption (Section IV-B1), so a concurrent RoW read can
        // reconstruct against a consistent PCC.
        const ChipMask step1 =
            data_chips | static_cast<ChipMask>(1u << ecc_chip);
        const Tick lower =
            std::max(now, ranks[loc.rank].freeAt(step1, loc.bank));
        Tick s1 = 0;
        Tick e1 = 0;
        buses.computeWriteWindow(step1, lower, s1, e1);
        reserveChips(loc.rank, step1, loc.bank, loc.row, s1, e1, true);
        buses.occupy(step1,
                     s1 + cfg.timing.writeColTicks() +
                         cfg.timing.burstTicks(),
                     true);

        // Step 2 (the PCC update) must leave the PCC chip *free*
        // during step 1 so concurrent RoW reads can use it for
        // reconstruction; it is therefore issued by an event at the
        // end of step 1 rather than reserved ahead of time.  The
        // paper's "immediately after, with no interrupt" rule is
        // honoured up to an in-flight RoW read's tail on the chip.
        const std::uint32_t slot = acquireTrain(loc.rank, loc.bank, loc.row);
        WriteTrain &t = trains[slot];
        t.steps[t.nSteps++] = static_cast<ChipMask>(1u << pcc_chip);
        scheduleTrain(e1, slot);

        irlpTrackers[loc.rank].addOp(now, s1, e1, data_chips, true);
        counters.writeIrlpHist.sample(chipCount(data_chips));
        counters.queueResidencyHist.sample(s1 - head.req.enqueueTick);
        if (const obs::attrib::LedgerRef led = head.req.ledger) {
            attrib->account(led, obs::attrib::Phase::QueueResidency, now);
            attrib->account(led, obs::attrib::Phase::BankWait, lower);
            attrib->account(led, obs::attrib::Phase::QueueResidency, s1);
        }
        PCMAP_OBS_TRACE(trace, obs::TracePoint::WriteIssue, s1, e1 - s1,
                        line, step1,
                        static_cast<std::uint64_t>(
                            obs::WriteKind::TwoStep),
                        channelId, loc.rank, loc.bank);
        ++counters.twoStepWrites;
        if (cfg.timing.writeRounds > 1) {
            // Both steps (data+ECC, then PCC) pulse every round.
            counters.writeRoundsIssued += 2 * cfg.timing.writeRounds;
        }
        writeSlotFreeAt[loc.rank] = e1;
        scheduleWriteCompletion(head, e1, obs::WriteKind::TwoStep);
        return true;
    }

    // Parallel fine write, optionally consolidating further queued
    // writes to the same bank whose essential chips do not overlap
    // (WoW, Section IV-C).  The group is built in a train slot, which
    // stays live only when its rounds chain.
    const std::uint32_t slot = acquireTrain(loc.rank, loc.bank, loc.row);
    std::vector<WriteGroupMember> &group = trains[slot].members;
    group.push_back(WriteGroupMember{std::move(head), essential,
                                     data_chips, line, loc.row,
                                     n_essential});
    ChipMask occupied = data_chips;

    const Tick lower =
        std::max(now, ranks[loc.rank].freeAt(data_chips, loc.bank));
    Tick s = 0;
    Tick e = 0;
    buses.computeWriteWindow(data_chips, lower, s, e);

    coalescer->collect(writeQ, loc.rank, loc.bank, s, bankView, group,
                       occupied, counters);

    // Multi-round (MLC+) group writes chain their programming rounds
    // as events when the coalescer would pause for reads: only the
    // round in flight is reserved, so at every round boundary the
    // chips look free to read planning and waiting reads slip into
    // the gap before the next round re-reserves.  Single-round (SLC)
    // writes, and configurations without RoW, keep the one-shot
    // full-window reservation below.
    const unsigned rounds = cfg.timing.writeRounds;
    const bool chain_rounds =
        rounds > 1 && coalescer->pauseAtRoundBoundary(true);
    const Tick pulse = cfg.timing.roundTicks();
    const Tick e_first =
        chain_rounds ? e - static_cast<Tick>(rounds - 1) * pulse : e;
    if (rounds > 1) {
        counters.writeRoundsIssued +=
            static_cast<std::uint64_t>(rounds) * group.size();
    }

    // Reserve every member's chips over the common window; each chip
    // opens its own member's row (sub-ranked independence).
    // Per-write IRLP: every member's window sees the whole group's
    // occupied data chips busy in parallel.
    const unsigned group_busy = chipCount(occupied);
    for (const WriteGroupMember &m : group) {
        forEachSetBit(m.chips, [&](unsigned c) {
            ranks[loc.rank].reserveChip(c, loc.bank, m.row, s,
                                        e_first, true);
        });
        irlpTrackers[loc.rank].addOp(now, s, e_first, m.chips, true);
        counters.writeIrlpHist.sample(group_busy);
        counters.queueResidencyHist.sample(s - m.entry.req.enqueueTick);
        if (const obs::attrib::LedgerRef led = m.entry.req.ledger) {
            // The group window is derived from the head's chips; the
            // same-bank members share its bank-wait decomposition.
            attrib->account(led, obs::attrib::Phase::QueueResidency, now);
            attrib->account(led, obs::attrib::Phase::BankWait, lower);
            attrib->account(led, obs::attrib::Phase::QueueResidency, s);
        }
        PCMAP_OBS_TRACE(trace, obs::TracePoint::WriteIssue, s, e - s,
                        m.line, m.chips,
                        static_cast<std::uint64_t>(
                            obs::WriteKind::Group),
                        channelId, loc.rank, loc.bank);
        if (!chain_rounds)
            scheduleWriteCompletion(m.entry, e, obs::WriteKind::Group);
        queueCodeUpdates(m.line, loc.rank, loc.bank, m.row, true, true,
                         now);
    }
    buses.occupy(occupied,
                 s + cfg.timing.writeColTicks() +
                     cfg.timing.burstTicks(),
                 true);
    if (group.size() > 1) {
        ++counters.wowGroups;
        counters.wowMergedWrites += group.size() - 1;
    }
    // Conservative estimate covering the whole round train; chained
    // rounds raise it if pauses push the tail out, so no second group
    // can grab the rank's write slot mid-chain.
    writeSlotFreeAt[loc.rank] = e;

    if (chain_rounds) {
        trains[slot].next = 1;
        scheduleTrain(e_first, slot);
    } else {
        releaseTrain(slot);
    }
    return true;
}

std::uint32_t
MemoryController::acquireTrain(unsigned rank, unsigned bank,
                               std::uint64_t row)
{
    std::uint32_t slot;
    if (freeTrains.empty()) {
        slot = static_cast<std::uint32_t>(trains.size());
        trains.emplace_back();
    } else {
        slot = freeTrains.back();
        freeTrains.pop_back();
    }
    WriteTrain &t = trains[slot];
    t.rank = rank;
    t.bank = bank;
    t.row = row;
    t.nSteps = 0;
    t.next = 0;
    return slot;
}

void
MemoryController::releaseTrain(std::uint32_t slot)
{
    trains[slot].members.clear(); // keeps the capacity for reuse
    freeTrains.push_back(slot);
}

void
MemoryController::scheduleTrain(Tick when, std::uint32_t slot)
{
    eventq.schedule(when, [this, slot]() { advanceTrain(slot); });
}

void
MemoryController::advanceTrain(std::uint32_t slot)
{
    const Tick t0 = eventq.now();
    if (trains[slot].nSteps > 0) {
        WriteTrain &t = trains[slot];
        // Step train.  Past the PCC step the train is done: the write
        // committed at the end of its last data step.
        if (t.next == t.nSteps) {
            releaseTrain(slot);
            kick();
            return;
        }
        const unsigned idx = t.next++;
        const bool is_pcc = idx + 1 == t.nSteps;
        const ChipMask chips = t.steps[idx];
        const Tick lower =
            std::max(t0, ranks[t.rank].freeAt(chips, t.bank));
        Tick s = 0;
        Tick e = 0;
        buses.computeWriteWindow(chips, lower, s, e);
        reserveChips(t.rank, chips, t.bank, t.row, s, e, true);
        buses.occupy(chips,
                     s + cfg.timing.writeColTicks() +
                         cfg.timing.burstTicks(),
                     true);
        irlpTrackers[t.rank].addOp(t0, s, e, is_pcc ? 0 : chips, true);
        if (idx + 2 == t.nSteps) {
            // Last data step of a multi-step write: it commits here
            // (the PCC pulse trails), before the PCC step's event.
            writeSlotFreeAt[t.rank] = std::max(writeSlotFreeAt[t.rank], e);
            scheduleWriteCompletion(t.members.front().entry, e,
                                    obs::WriteKind::MultiStep);
        }
        scheduleTrain(e, slot);
        return;
    }

    // Round chain.  Round boundary: when reads wait, give them first
    // claim on the chips (they plan against the un-reserved gap), then
    // start the next round once every member chip is free again —
    // RoW's preemption of an in-flight MLC write.
    if (coalescer->pauseAtRoundBoundary(!readQ.empty()))
        kick();
    // The kick may start other trains and grow the pool, so the train
    // is looked up after it.
    WriteTrain &t = trains[slot];
    ChipMask all = 0;
    for (const WriteGroupMember &m : t.members)
        all |= m.chips;
    const Tick rs = std::max(t0, ranks[t.rank].freeAt(all, t.bank));
    if (rs > t0)
        ++counters.writeRoundPauses;
    const unsigned rounds = cfg.timing.writeRounds;
    const Tick pulse = cfg.timing.roundTicks();
    const Tick re = rs + pulse;
    for (const WriteGroupMember &m : t.members) {
        forEachSetBit(m.chips, [&](unsigned c) {
            ranks[t.rank].reserveChip(c, t.bank, m.row, rs, re, true);
        });
        irlpTrackers[t.rank].addOp(t0, rs, re, m.chips, true);
        if (const obs::attrib::LedgerRef led = m.entry.req.ledger) {
            // The previous round's pulse ended at this round boundary;
            // the gap until the chips come free again is a round pause.
            attrib->account(led, obs::attrib::Phase::ArrayAccess, t0);
            attrib->account(led, obs::attrib::Phase::RoundPause, rs);
        }
    }
    const unsigned round = t.next++;
    if (round + 1 >= rounds) {
        writeSlotFreeAt[t.rank] = std::max(writeSlotFreeAt[t.rank], re);
        for (const WriteGroupMember &m : t.members)
            scheduleWriteCompletion(m.entry, re, obs::WriteKind::Group);
        releaseTrain(slot);
        return;
    }
    writeSlotFreeAt[t.rank] =
        std::max(writeSlotFreeAt[t.rank],
                 re + static_cast<Tick>(rounds - round - 1) * pulse);
    scheduleTrain(re, slot);
}

void
MemoryController::maybeCancelActiveWrite(Tick now)
{
    if (!cfg.enableWriteCancellation || !activeWrite.valid ||
        readQ.empty()) {
        return;
    }
    // Never cancel under drain pressure: with the write queue near
    // full, retrying writes only deepens the backlog the reads are
    // ultimately waiting on (the guard Qureshi et al. also apply).
    if (draining)
        return;
    if (now >= activeWrite.end)
        return; // effectively finished

    // A coarse write blocks every chip, so any queued read benefits.
    // Single-round (SLC) writes abort immediately and lose the pulse,
    // as before.  Multi-round (MLC+) writes release at the *next
    // round boundary* instead: the round in flight completes, the
    // rounds already programmed are kept (entry.roundsDone), and only
    // the remainder is re-queued — cancellation degenerates into the
    // write-pausing of the MLC PCM literature.
    Tick release = now;
    unsigned rounds_kept = 0;
    if (activeWrite.roundTicks > 0 && now > activeWrite.pulseStart) {
        const Tick rt = activeWrite.roundTicks;
        const Tick into = now - activeWrite.pulseStart;
        rounds_kept = static_cast<unsigned>((into + rt - 1) / rt);
        release = activeWrite.pulseStart +
                  static_cast<Tick>(rounds_kept) * rt;
        if (release >= activeWrite.end)
            return; // inside the last round; let it finish
    }
    const Tick remaining = activeWrite.end - release;
    const auto min_remaining = static_cast<Tick>(
        cfg.cancelMinRemainingFrac *
        static_cast<double>(activeWrite.end - activeWrite.start));
    if (remaining < min_remaining)
        return;
    if (activeWrite.entry.cancels >= cfg.maxWriteCancels)
        return;

    eventq.cancel(activeWrite.completion);
    --inFlight;
    for (unsigned c = 0; c <= kDataChips; ++c)
        ranks[activeWrite.rank].abortWrite(c, activeWrite.bank, release);
    irlpTrackers[activeWrite.rank].truncateWrite(
        now, activeWrite.start, activeWrite.end, release,
        activeWrite.irlpChips);
    ++counters.writesCancelled;
    if (rounds_kept > 0) {
        activeWrite.entry.roundsDone += rounds_kept;
        ++counters.writeRoundPauses;
    }
    PCMAP_OBS_TRACE(trace, obs::TracePoint::WriteCancel, release, 0,
                    activeWrite.entry.line, activeWrite.entry.cancels,
                    0, channelId, activeWrite.rank, activeWrite.bank);
    ++activeWrite.entry.cancels;
    if (const obs::attrib::LedgerRef led = activeWrite.entry.req.ledger) {
        // Rounds already programmed are kept (array time); an aborted
        // SLC pulse is pure redo cost — the write starts over.
        if (rounds_kept > 0)
            attrib->account(led, obs::attrib::Phase::ArrayAccess, release);
        else
            attrib->account(led, obs::attrib::Phase::RollbackRedo, release);
    }
    writeQ.push_front(std::move(activeWrite.entry));
    writeSlotFreeAt[activeWrite.rank] = release;
    activeWrite.valid = false;
}

} // namespace pcmap
