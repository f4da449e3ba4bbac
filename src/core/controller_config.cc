#include "core/controller_config.h"

#include <cctype>

#include "core/policy/controller_policy.h"
#include "sim/config.h"
#include "sim/log.h"

namespace pcmap {

const char *
systemModeName(SystemMode mode)
{
    switch (mode) {
      case SystemMode::Baseline: return "Baseline";
      case SystemMode::RoW_NR:   return "RoW-NR";
      case SystemMode::WoW_NR:   return "WoW-NR";
      case SystemMode::RWoW_NR:  return "RWoW-NR";
      case SystemMode::RWoW_RD:  return "RWoW-RD";
      case SystemMode::RWoW_RDE: return "RWoW-RDE";
    }
    pcmap_panic("unknown system mode");
}

std::string
systemModeNames()
{
    std::string names;
    for (const SystemMode mode : kAllModes) {
        if (!names.empty())
            names += ", ";
        names += systemModeName(mode);
    }
    return names;
}

std::optional<SystemMode>
systemModeFromName(const std::string &name)
{
    std::string canon = name;
    for (char &c : canon) {
        if (c == '_')
            c = '-';
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    for (const SystemMode mode : kAllModes) {
        std::string label = systemModeName(mode);
        for (char &c : label)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        if (canon == label)
            return mode;
    }
    return std::nullopt;
}

SystemMode
requireSystemMode(const std::string &name,
                  const std::vector<std::string> &keywords)
{
    if (const auto mode = systemModeFromName(name))
        return *mode;
    std::vector<std::string> known = keywords;
    std::string summary = "known: " + systemModeNames();
    for (const SystemMode m : kAllModes)
        known.emplace_back(systemModeName(m));
    for (const std::string &k : keywords)
        summary += ", " + k;
    fatalUnknown("unknown system mode", name, known, summary);
}

ControllerConfig
ControllerConfig::forMode(SystemMode mode)
{
    ControllerConfig cfg;
    ControllerPolicy::forMode(mode).applyTo(cfg);
    return cfg;
}

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
