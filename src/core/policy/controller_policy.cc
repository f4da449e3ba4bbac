#include "core/policy/controller_policy.h"

#include <algorithm>
#include <cctype>
#include <iterator>

#include "sim/config.h"
#include "sim/log.h"

namespace pcmap {

namespace {

constexpr const char *kValidComponents =
    "base, fg, row, wow, rd, rde";

/** kPaperSystems' names, in its order. */
constexpr const char *kPresetNames[] = {
    "Baseline", "RoW-NR", "WoW-NR", "RWoW-NR", "RWoW-RD", "RWoW-RDE",
};
static_assert(std::size(kPresetNames) == std::size(kPaperSystems));

std::string
lowered(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/** The name of @p p if it is a preset, else nullptr. */
const char *
presetName(const ControllerPolicy &p)
{
    for (std::size_t i = 0; i < std::size(kPaperSystems); ++i) {
        if (p == kPaperSystems[i])
            return kPresetNames[i];
    }
    return nullptr;
}

} // namespace

ControllerPolicy
ControllerPolicy::fromConfig(const ControllerConfig &cfg)
{
    ControllerPolicy p;
    p.fineGrained = cfg.fineGrained;
    p.enableRoW = cfg.enableRoW;
    p.enableWoW = cfg.enableWoW;
    p.rotation = cfg.rotation;
    return p;
}

std::optional<ControllerPolicy>
ControllerPolicy::parse(const std::string &text, std::string *err)
{
    const std::string canon = lowered(text);
    std::string name = canon;
    std::replace(name.begin(), name.end(), '_', '-');
    for (std::size_t i = 0; i < std::size(kPaperSystems); ++i) {
        if (name == lowered(kPresetNames[i]))
            return kPaperSystems[i];
    }

    ControllerPolicy p;
    bool saw_base = false;
    bool saw_rd = false;
    bool saw_rde = false;
    bool saw_any = false;

    std::size_t pos = 0;
    while (pos <= canon.size()) {
        const std::size_t next = canon.find('+', pos);
        const std::string comp =
            canon.substr(pos, next == std::string::npos
                                  ? std::string::npos
                                  : next - pos);
        pos = next == std::string::npos ? canon.size() + 1 : next + 1;

        if (comp.empty()) {
            if (err)
                *err = "empty policy component in '" + text +
                       "' (valid components: " +
                       std::string(kValidComponents) + ")";
            return std::nullopt;
        }
        saw_any = true;
        if (comp == "base") {
            saw_base = true;
        } else if (comp == "fg") {
            p.fineGrained = true;
        } else if (comp == "row") {
            p.fineGrained = true;
            p.enableRoW = true;
        } else if (comp == "wow") {
            p.fineGrained = true;
            p.enableWoW = true;
        } else if (comp == "rd") {
            saw_rd = true;
            p.rotation = RotationMode::Data;
        } else if (comp == "rde") {
            saw_rde = true;
            p.fineGrained = true;
            p.rotation = RotationMode::DataEcc;
        } else {
            if (err)
                *err = "unknown policy component '" + comp +
                       "' in '" + text + "' (valid components: " +
                       std::string(kValidComponents) + ")";
            return std::nullopt;
        }
    }

    if (!saw_any) {
        if (err)
            *err = "empty policy string (valid components: " +
                   std::string(kValidComponents) + ")";
        return std::nullopt;
    }
    if (saw_rd && saw_rde) {
        if (err)
            *err = "conflicting policy components 'rd' and 'rde' in '" +
                   text + "'";
        return std::nullopt;
    }
    if (saw_base &&
        (p.fineGrained || p.rotation != RotationMode::None)) {
        if (err)
            *err = "policy component 'base' cannot be combined with "
                   "others in '" +
                   text + "'";
        return std::nullopt;
    }
    return p;
}

ControllerPolicy
ControllerPolicy::require(const std::string &text,
                          const std::vector<std::string> &keywords)
{
    std::string err;
    if (const std::optional<ControllerPolicy> p = parse(text, &err))
        return *p;
    if (text.find('+') != std::string::npos)
        fatal(err);
    std::vector<std::string> known(std::begin(kPresetNames),
                                   std::end(kPresetNames));
    known.insert(known.end(), keywords.begin(), keywords.end());
    std::string summary = "known: ";
    for (const std::string &k : known)
        summary += k + ", ";
    summary += "or a '+' composition of ";
    summary += kValidComponents;
    fatalUnknown("unknown system mode", text, known, summary);
}

std::string
ControllerPolicy::composition() const
{
    std::string s;
    const auto add = [&s](const char *comp) {
        if (!s.empty())
            s += '+';
        s += comp;
    };
    if (enableRoW)
        add("row");
    if (enableWoW)
        add("wow");
    if (fineGrained && !enableRoW && !enableWoW &&
        rotation != RotationMode::DataEcc) {
        add("fg");
    }
    switch (rotation) {
      case RotationMode::None:
        break;
      case RotationMode::Data:
        add("rd");
        break;
      case RotationMode::DataEcc:
        add("rde");
        break;
    }
    if (s.empty())
        s = "base";
    return s;
}

bool
ControllerPolicy::isPreset() const
{
    return presetName(*this) != nullptr;
}

std::string
ControllerPolicy::label() const
{
    const char *name = presetName(*this);
    return name ? name : composition();
}

void
ControllerPolicy::applyTo(ControllerConfig &cfg) const
{
    cfg.fineGrained = fineGrained;
    cfg.enableRoW = enableRoW;
    cfg.enableWoW = enableWoW;
    cfg.rotation = rotation;
}

std::unique_ptr<LineLayout>
ControllerPolicy::makeLayout() const
{
    return makeLineLayout(rotation, fineGrained);
}

std::unique_ptr<AccessScheduler>
ControllerPolicy::makeScheduler(const ControllerConfig &cfg,
                                const AddressMapper &mapper,
                                const LineLayout &layout)
{
    return makeAccessScheduler(cfg, mapper, layout);
}

std::unique_ptr<WriteCoalescer>
ControllerPolicy::makeCoalescer(const ControllerConfig &cfg,
                                const AddressMapper &mapper,
                                const LineLayout &layout,
                                BackingStore &store)
{
    return makeWriteCoalescer(cfg, mapper, layout, store);
}

} // namespace pcmap
