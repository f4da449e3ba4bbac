/**
 * @file
 * Test helpers for the paper's six systems: the default controller
 * of a system, and a gtest parameter naming one by its position in
 * kPaperSystems.
 *
 * gtest prints a parameter it has no printer for as its raw bytes,
 * and gtest_discover_tests copies that printout into each ctest name.
 * This plain 4-byte index prints as "4-byte object <03-00 00-00>",
 * byte for byte what the suites' earlier system enum printed, so the
 * parameterized ctest names stay stable.
 */

#ifndef PCMAP_TESTS_PAPER_SYSTEMS_H
#define PCMAP_TESTS_PAPER_SYSTEMS_H

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/policy/controller_policy.h"

namespace pcmap {

/** A default ControllerConfig running @p system. */
inline ControllerConfig
controllerFor(const ControllerPolicy &system)
{
    ControllerConfig cfg;
    system.applyTo(cfg);
    return cfg;
}

struct PaperSystem
{
    std::uint32_t index;

    const ControllerPolicy &policy() const { return kPaperSystems[index]; }

    /** The preset's label as a gtest name ("RWoW-RDE" -> "RWoW_RDE"). */
    std::string
    testName() const
    {
        std::string name = policy().label();
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    }
};

static_assert(sizeof(PaperSystem) == 4);

/** All six, in the paper's order. */
inline std::vector<PaperSystem>
allPaperSystems()
{
    std::vector<PaperSystem> all;
    for (std::uint32_t i = 0; i < std::size(kPaperSystems); ++i)
        all.push_back({i});
    return all;
}

} // namespace pcmap

#endif // PCMAP_TESTS_PAPER_SYSTEMS_H
