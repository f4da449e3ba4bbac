/**
 * @file
 * The complete PCM main memory: one controller per channel plus the
 * shared functional backing store, presented to request sources
 * through the MemoryPort interface.
 */

#ifndef PCMAP_CORE_MEMORY_SYSTEM_H
#define PCMAP_CORE_MEMORY_SYSTEM_H

#include <memory>
#include <vector>

#include "core/controller.h"
#include "core/controller_config.h"
#include "mem/address.h"
#include "mem/backing_store.h"
#include "mem/request.h"
#include "sim/event_queue.h"

namespace pcmap {

/** Multi-channel PCM main memory (4 channels in the paper's system). */
class MainMemory : public MemoryPort
{
  public:
    /**
     * @param cfg      Per-controller configuration (replicated across
     *                 channels).
     * @param geometry Overall memory geometry; its channel count
     *                 determines how many controllers are built.
     * @param eq       Shared event queue.
     */
    MainMemory(const ControllerConfig &cfg, const MemGeometry &geometry,
               EventQueue &eq);

    // MemoryPort interface --------------------------------------------
    bool enqueueRead(const MemRequest &req, ReadCallback cb) override;
    bool enqueueWrite(const MemRequest &req) override;
    void setRetryCallback(RetryCallback cb) override;
    void setVerifyCallback(VerifyCallback cb) override;
    void setWriteCompleteCallback(WriteCompleteCallback cb) override;

    /**
     * Attach one trace recorder shared by every controller (null
     * detaches).  Each controller tags its events with its channel id,
     * so a single recorder captures the whole memory system.
     */
    void
    setTraceRecorder(obs::TraceRecorder *rec)
    {
        for (auto &mc : controllers)
            mc->setTraceRecorder(rec);
    }

    /**
     * Attach one latency-attribution collector shared by every
     * controller (null detaches).
     */
    void
    setAttrib(obs::attrib::AttribCollector *collector)
    {
        for (auto &mc : controllers)
            mc->setAttrib(collector);
    }

    // Introspection ----------------------------------------------------
    unsigned channels() const
    {
        return static_cast<unsigned>(controllers.size());
    }
    MemoryController &controller(unsigned i) { return *controllers[i]; }
    const MemoryController &controller(unsigned i) const
    {
        return *controllers[i];
    }
    const AddressMapper &mapper() const { return addrMap; }
    BackingStore &backingStore() { return backing; }
    const BackingStore &backingStore() const { return backing; }

    /** True when every controller has drained completely. */
    bool idle() const;

    /** Close time-integrated statistics on all controllers. */
    void finalize(Tick end_of_sim);

    /** Write every controller's counters as the "pcm." group. */
    void exportStats(stats::Writer &w) const;

    /** Sum of a stat across controllers, via a member projection. */
    template <typename Fn>
    double
    sumOver(Fn &&fn) const
    {
        double total = 0.0;
        for (const auto &mc : controllers)
            total += fn(*mc);
        return total;
    }

  private:
    AddressMapper addrMap;
    BackingStore backing;
    std::vector<std::unique_ptr<MemoryController>> controllers;
};

} // namespace pcmap

#endif // PCMAP_CORE_MEMORY_SYSTEM_H
