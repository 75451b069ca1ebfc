#include "system/adaptive.h"

#include "common/json.h"
#include "common/log.h"

namespace xloops {

AdaptiveController::AdaptiveController(unsigned entries, u64 iter_threshold,
                                       Cycle cycle_threshold)
    : iterThreshold(iter_threshold), cycleThreshold(cycle_threshold),
      entries(entries)
{
}

AptEntry &
AdaptiveController::lookup(Addr pc)
{
    for (auto &entry : entries)
        if (entry.valid && entry.pc == pc)
            return entry;
    AptEntry &victim = entries[fifoNext];
    fifoNext = (fifoNext + 1) % entries.size();
    victim = AptEntry{};
    victim.pc = pc;
    victim.valid = true;
    return victim;
}

void
AdaptiveController::reset()
{
    for (auto &entry : entries)
        entry = AptEntry{};
    fifoNext = 0;
}

void
AdaptiveController::saveState(JsonWriter &w) const
{
    w.field("fifo_next", static_cast<u64>(fifoNext));
    w.key("entries").beginArray();
    for (const AptEntry &e : entries) {
        w.beginObject();
        w.field("pc", static_cast<u64>(e.pc));
        w.field("valid", e.valid);
        w.field("state", static_cast<u64>(e.state));
        w.field("gpp_iters", e.gppIters);
        w.field("gpp_cycles", e.gppCycles);
        w.field("last_visit", e.lastVisit);
        w.field("last_visit_valid", e.lastVisitValid);
        w.endObject();
    }
    w.endArray();
}

void
AdaptiveController::loadState(const JsonValue &v)
{
    const auto &arr = v.at("entries").array();
    if (arr.size() != entries.size())
        fatal("checkpoint APT size does not match configuration");
    const u64 next = v.at("fifo_next").asU64();
    if (next >= entries.size())
        fatal(strf("checkpoint APT fifo_next ", next, " out of range"));
    fifoNext = next;
    for (size_t i = 0; i < arr.size(); i++) {
        const JsonValue &ev = arr[i];
        AptEntry &e = entries[i];
        e.pc = static_cast<Addr>(ev.at("pc").asU64());
        e.valid = ev.at("valid").asBool();
        const u64 st = ev.at("state").asU64();
        if (st > static_cast<u64>(AptEntry::State::DecidedLpsu))
            fatal("checkpoint APT entry state out of range");
        e.state = static_cast<AptEntry::State>(st);
        e.gppIters = ev.at("gpp_iters").asU64();
        e.gppCycles = ev.at("gpp_cycles").asU64();
        e.lastVisit = ev.at("last_visit").asU64();
        e.lastVisitValid = ev.at("last_visit_valid").asBool();
    }
}

} // namespace xloops
