#include "core/memory_system.h"

#include "sim/log.h"
#include "sim/stats.h"

namespace pcmap {

MainMemory::MainMemory(const ControllerConfig &cfg,
                       const MemGeometry &geometry, EventQueue &eq)
    : addrMap(geometry), backing(cfg.footprintLinesHint)
{
    controllers.reserve(geometry.channels);
    for (unsigned ch = 0; ch < geometry.channels; ++ch) {
        controllers.push_back(std::make_unique<MemoryController>(
            "mc" + std::to_string(ch), cfg, eq, backing, addrMap, ch));
    }
}

bool
MainMemory::enqueueRead(const MemRequest &req, ReadCallback cb)
{
    const unsigned ch = addrMap.decode(req.addr).channel;
    return controllers[ch]->enqueueRead(req, std::move(cb));
}

bool
MainMemory::enqueueWrite(const MemRequest &req)
{
    const unsigned ch = addrMap.decode(req.addr).channel;
    return controllers[ch]->enqueueWrite(req);
}

void
MainMemory::setRetryCallback(RetryCallback cb)
{
    for (auto &mc : controllers)
        mc->setRetryCallback(cb);
}

void
MainMemory::setVerifyCallback(VerifyCallback cb)
{
    for (auto &mc : controllers)
        mc->setVerifyCallback(cb);
}

void
MainMemory::setWriteCompleteCallback(WriteCompleteCallback cb)
{
    for (auto &mc : controllers)
        mc->setWriteCompleteCallback(cb);
}

bool
MainMemory::idle() const
{
    for (const auto &mc : controllers) {
        if (!mc->idle())
            return false;
    }
    return true;
}

void
MainMemory::finalize(Tick end_of_sim)
{
    for (auto &mc : controllers)
        mc->finalize(end_of_sim);
}

void
MainMemory::exportStats(stats::Writer &w) const
{
    const stats::Writer::Scope pcm(w, "pcm");
    for (const auto &mc : controllers)
        mc->exportStats(w);
}

} // namespace pcmap
