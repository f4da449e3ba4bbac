/**
 * @file
 * ControllerPolicy: the one name of a system configuration.
 *
 * A policy names which of the three pluggable controller interfaces
 * get the PCMap treatment — the RoW access scheduler, the WoW write
 * coalescer, the RD/RDE line layout — plus the fine-grained DIMM the
 * mechanisms sit on.  Compositions are written as '+'-separated
 * component strings:
 *
 *  | component | effect                                              |
 *  |-----------|-----------------------------------------------------|
 *  | base      | conventional 9-chip DIMM, coarse writes (alone only)|
 *  | fg        | fine-grained (sub-ranked) PCMap DIMM                |
 *  | row       | RoW read-under-write scheduler (implies fg)         |
 *  | wow       | WoW disjoint-chip write coalescer (implies fg)      |
 *  | rd        | rotate data words (lineAddr mod 8)                  |
 *  | rde       | rotate data+ECC+PCC (lineAddr mod 10, implies fg)   |
 *
 * The six systems evaluated in Section V are named presets of this
 * grammar (the presets namespace below), so "RWoW-RDE" and
 * "row+wow+rde" parse to the same policy and run the same system,
 * byte for byte.
 */

#ifndef PCMAP_CORE_POLICY_CONTROLLER_POLICY_H
#define PCMAP_CORE_POLICY_CONTROLLER_POLICY_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller_config.h"
#include "core/policy/access_scheduler.h"
#include "core/policy/line_layout.h"
#include "core/policy/write_coalescer.h"

namespace pcmap {

/** Composed controller policy: which mechanism fills each slot. */
struct ControllerPolicy
{
    bool fineGrained = false;
    bool enableRoW = false;
    bool enableWoW = false;
    RotationMode rotation = RotationMode::None;

    /** The policy a fully-populated config implies. */
    static ControllerPolicy fromConfig(const ControllerConfig &cfg);

    /**
     * Parse a preset name ("RWoW-RDE"; case-insensitive, '_' for '-')
     * or a '+'-separated composition ("row+wow+rde", case-
     * insensitive).  On failure returns nullopt and, when @p err is
     * non-null, stores a message naming the offending component and
     * listing the valid ones.
     */
    static std::optional<ControllerPolicy>
    parse(const std::string &text, std::string *err = nullptr);

    /**
     * parse() for command lines: fatal() on failure.  A lone unknown
     * name gets a "did you mean" hint among the preset names and
     * @p keywords, the caller's extra spellings (e.g. "all"), which
     * it matches before calling.
     */
    static ControllerPolicy
    require(const std::string &text,
            const std::vector<std::string> &keywords = {});

    /** Canonical composition string ("base", "row+wow+rde", ...). */
    std::string composition() const;

    /** True when this policy is one of the paper's six systems. */
    bool isPreset() const;

    /** The preset's name ("RWoW-RDE") if isPreset(), else composition(). */
    std::string label() const;

    /** Overwrite the mechanism switches of @p cfg with this policy. */
    void applyTo(ControllerConfig &cfg) const;

    /** True when the mechanism switches match. */
    constexpr bool operator==(const ControllerPolicy &) const = default;

    // --- Policy-object factories -------------------------------------
    /** The line layout this policy's rotation implies. */
    std::unique_ptr<LineLayout> makeLayout() const;

    /** The access scheduler for @p cfg (must carry this policy). */
    static std::unique_ptr<AccessScheduler>
    makeScheduler(const ControllerConfig &cfg, const AddressMapper &mapper,
                  const LineLayout &layout);

    /** The write coalescer for @p cfg (must carry this policy). */
    static std::unique_ptr<WriteCoalescer>
    makeCoalescer(const ControllerConfig &cfg, const AddressMapper &mapper,
                  const LineLayout &layout, BackingStore &store);
};

/**
 * The six evaluated systems (Section V):
 *
 *  | name      | RoW | WoW | word rot. | ECC/PCC rot. | composition |
 *  |-----------|-----|-----|-----------|--------------|-------------|
 *  | Baseline  |  -  |  -  |     -     |      -       | base        |
 *  | RoW-NR    |  x  |  -  |     -     |      -       | row         |
 *  | WoW-NR    |  -  |  x  |     -     |      -       | wow         |
 *  | RWoW-NR   |  x  |  x  |     -     |      -       | row+wow     |
 *  | RWoW-RD   |  x  |  x  |     x     |      -       | row+wow+rd  |
 *  | RWoW-RDE  |  x  |  x  |     x     |      x       | row+wow+rde |
 */
namespace presets {
inline constexpr ControllerPolicy Baseline{};
inline constexpr ControllerPolicy RoW_NR{.fineGrained = true,
                                         .enableRoW = true};
inline constexpr ControllerPolicy WoW_NR{.fineGrained = true,
                                         .enableWoW = true};
inline constexpr ControllerPolicy RWoW_NR{
    .fineGrained = true, .enableRoW = true, .enableWoW = true};
inline constexpr ControllerPolicy RWoW_RD{.fineGrained = true,
                                          .enableRoW = true,
                                          .enableWoW = true,
                                          .rotation = RotationMode::Data};
inline constexpr ControllerPolicy RWoW_RDE{
    .fineGrained = true,
    .enableRoW = true,
    .enableWoW = true,
    .rotation = RotationMode::DataEcc};
} // namespace presets

/** The six presets in the paper's presentation order. */
inline constexpr ControllerPolicy kPaperSystems[] = {
    presets::Baseline, presets::RoW_NR,  presets::WoW_NR,
    presets::RWoW_NR,  presets::RWoW_RD, presets::RWoW_RDE,
};

} // namespace pcmap

#endif // PCMAP_CORE_POLICY_CONTROLLER_POLICY_H
