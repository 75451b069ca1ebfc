/**
 * @file
 * Out-of-order superscalar timing model (the paper's ooo/2 and ooo/4
 * baselines). Committed-stream dataflow model with: fetch/dispatch/
 * retire bandwidth, ROB occupancy window, per-port issue contention,
 * store-to-load forwarding through a store queue, a gshare branch
 * predictor with redirect penalties, and pipelined/unpipelined LLFUs.
 */

#ifndef XLOOPS_CPU_OOO_H
#define XLOOPS_CPU_OOO_H

#include <array>
#include <vector>

#include "cpu/gpp.h"

namespace xloops {

/** gshare predictor: 2-bit counters indexed by pc ^ global history. */
class GsharePredictor
{
  public:
    explicit GsharePredictor(unsigned table_bits = 12);

    /** Predict and then train on the actual outcome of one branch. */
    bool predictAndTrain(Addr pc, bool taken);

    void reset();

    void saveState(JsonWriter &w) const;
    void loadState(const JsonValue &v);

  private:
    unsigned tableBits;
    std::vector<u8> counters;
    u32 history = 0;
};

class OooCpu : public GppModel
{
  public:
    explicit OooCpu(const GppConfig &config);

    void retire(const Instruction &inst, Addr pc,
                const StepResult &step) override;
    Cycle now() const override { return lastRetire; }
    void advanceTo(Cycle cycle) override;
    void reset() override;

    L1Cache &dcacheModel() override { return dcache; }

    void saveState(JsonWriter &w) const override;
    void loadState(const JsonValue &v) override;

  private:
    /** Allocate a slot on the least-loaded of @p ports, >= @p earliest. */
    static Cycle allocPort(std::vector<Cycle> &ports, Cycle earliest);

    GppConfig cfg;
    L1Cache icache;
    L1Cache dcache;
    GsharePredictor bpred;

    // Front end.
    Cycle fetchCycle = 0;
    unsigned fetchedThisCycle = 0;

    // Window / retire. The slot indices advance with seq and wrap:
    // robSlot == seq % robSize and iqSlot == seq % iqSize, kept without
    // a division per instruction.
    std::vector<Cycle> robRetire;   ///< ring: retire time per ROB slot
    std::vector<Cycle> iqIssue;     ///< ring: issue time per IQ slot
    u64 seq = 0;
    size_t robSlot = 0;
    size_t iqSlot = 0;
    Cycle lastRetire = 0;
    unsigned retiredThisCycle = 0;
    Cycle retireCycle = 0;

    // Dataflow.
    std::array<Cycle, numArchRegs> regReady{};
    std::vector<Cycle> issuePorts;
    std::vector<Cycle> memPorts;
    Cycle divFree = 0;

    // Store queue for forwarding: (addr, size, dataReadyCycle), a
    // ring of lsqEntries slots holding the sqCount newest stores; a
    // store into a full queue overwrites the oldest. sqNext is the slot
    // the next store takes.
    struct SqEntry
    {
        Addr addr;
        unsigned size;
        Cycle dataReady;
    };
    std::vector<SqEntry> storeQueue;
    size_t sqNext = 0;
    size_t sqCount = 0;
};

} // namespace xloops

#endif // XLOOPS_CPU_OOO_H
