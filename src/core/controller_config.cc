#include "core/controller_config.h"

#include "sim/log.h"

namespace pcmap {

void
ControllerConfig::validate() const
{
    timing.validate();
    if ((enableRoW || enableWoW) && !fineGrained)
        fatal("RoW/WoW require fine-grained (sub-ranked) writes");
    if (rotation == RotationMode::DataEcc && !hasPcc())
        fatal("ECC/PCC rotation requires the 10-chip PCMap DIMM");
    if (readQueueCap == 0 || writeQueueCap == 0)
        fatal("queue capacities must be positive");
    if (drainLowWatermark >= drainHighWatermark)
        fatal("drain low watermark must be below the high watermark");
    if (drainHighWatermark > 1.0 || drainLowWatermark < 0.0)
        fatal("drain watermarks must lie within [0, 1]");
    if (wowMaxMerge == 0)
        fatal("wowMaxMerge must be at least 1");
    if (enableWriteCancellation && fineGrained)
        fatal("write cancellation models the conventional DIMM; "
              "PCMap configurations overlap writes instead");
    if (enablePreset && fineGrained)
        fatal("PreSET models the conventional DIMM; PCMap "
              "configurations keep differential writes instead");
    if (cancelMinRemainingFrac < 0.0 || cancelMinRemainingFrac > 1.0)
        fatal("cancelMinRemainingFrac must lie within [0, 1]");
    if (banksPerRank == 0)
        fatal("banksPerRank must be positive");
}

} // namespace pcmap
