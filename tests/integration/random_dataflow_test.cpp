// Randomised dataflow trees, differentially executed: a random static tree
// of thread codes (each node transforms its input, writes a result word,
// and forks its children) must produce identical memory on the cycle-level
// Machine, the reference Interpreter, and a host-side recursion — across
// machine shapes and with/without virtual frame pointers.
#include <gtest/gtest.h>

#include "core/interpreter.hpp"
#include "core/machine.hpp"
#include "isa/builder.hpp"
#include "sim/rng.hpp"
#include "../core/test_util.hpp"

namespace dta::core {
namespace {

using isa::CodeBlock;
using isa::r;

constexpr sim::MemAddr kOut = 0x10000;

struct TreeNode {
    std::uint32_t id = 0;
    std::vector<std::uint32_t> children;
};

/// The per-node value transformation, mirrored in the generated code.
std::uint32_t transform(std::uint32_t value, std::uint32_t id) {
    return static_cast<std::uint32_t>(
        ((static_cast<std::uint64_t>(value) + id) * 0x85EBCA6Bull) &
        0xffffffffull);
}

struct Tree {
    std::vector<TreeNode> nodes;
    isa::Program prog;
    std::vector<std::uint32_t> expected;  // per node id

    void fill_expected(std::uint32_t id, std::uint32_t input) {
        const std::uint32_t v = transform(input, id);
        expected[id] = v;
        for (std::size_t i = 0; i < nodes[id].children.size(); ++i) {
            fill_expected(nodes[id].children[i],
                          v + static_cast<std::uint32_t>(i));
        }
    }
};

Tree build_tree(std::uint64_t seed) {
    sim::Xoshiro256 rng(seed);
    Tree t;
    // Breadth-first construction with declining fan-out, <= 40 nodes.
    t.nodes.push_back(TreeNode{0, {}});
    std::vector<std::pair<std::uint32_t, std::uint32_t>> frontier = {{0, 0}};
    while (!frontier.empty() && t.nodes.size() < 40) {
        const auto [id, depth] = frontier.front();
        frontier.erase(frontier.begin());
        if (depth >= 4) {
            continue;
        }
        const std::uint32_t kids =
            static_cast<std::uint32_t>(rng.next_below(4 - depth));
        for (std::uint32_t k = 0;
             k < kids && t.nodes.size() < 40; ++k) {
            const auto cid = static_cast<std::uint32_t>(t.nodes.size());
            t.nodes.push_back(TreeNode{cid, {}});
            t.nodes[id].children.push_back(cid);
            frontier.emplace_back(cid, depth + 1);
        }
    }

    // One thread code per node; node 0 is the entry (value arrives as the
    // launch argument in frame word 0, SC forced to 0 by bootstrap).
    t.prog.name = "tree" + std::to_string(seed);
    for (const TreeNode& node : t.nodes) {
        isa::CodeBuilder b("node" + std::to_string(node.id), 1);
        b.block(CodeBlock::kPl).load(r(1), 0);
        b.block(CodeBlock::kEx)
            .addi(r(2), r(1), node.id)
            .muli(r(2), r(2), 0x85EBCA6B)
            .andi(r(2), r(2), 0xffffffff)
            .movi(r(3), static_cast<std::int64_t>(kOut + 4ull * node.id))
            .write(r(2), r(3), 0);
        b.block(CodeBlock::kPs);
        for (std::size_t i = 0; i < node.children.size(); ++i) {
            b.falloc(r(4), node.children[i])
                .addi(r(5), r(2), static_cast<std::int64_t>(i))
                .store(r(5), r(4), 0);
        }
        b.ffree().stop();
        t.prog.add(std::move(b).build());
    }
    t.prog.entry = 0;
    t.expected.assign(t.nodes.size(), 0);
    t.fill_expected(0, static_cast<std::uint32_t>(seed & 0xffff));
    return t;
}

class RandomDataflow : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDataflow, AllThreeEnginesAgree) {
    const Tree t = build_tree(GetParam());
    const std::vector<std::uint64_t> args = {GetParam() & 0xffff};

    Interpreter interp(t.prog);
    interp.launch(args);
    (void)interp.run();

    Machine machine(test::tiny_config(3), t.prog);
    machine.launch(args);
    (void)machine.run();

    for (std::uint32_t id = 0; id < t.nodes.size(); ++id) {
        const auto addr = kOut + 4ull * id;
        EXPECT_EQ(interp.memory().read_u32(addr), t.expected[id])
            << "interpreter node " << id;
        EXPECT_EQ(machine.memory().read_u32(addr), t.expected[id])
            << "machine node " << id;
    }
}

TEST_P(RandomDataflow, VirtualFramesChangeNothingButTiming) {
    const Tree t = build_tree(GetParam());
    const std::vector<std::uint64_t> args = {GetParam() & 0xffff};

    auto scarce = test::tiny_config(2);
    scarce.lse = sched::LseConfig::with(6, 512);
    scarce.lse.virtual_frames = true;
    Machine machine(scarce, t.prog);
    machine.launch(args);
    (void)machine.run();
    for (std::uint32_t id = 0; id < t.nodes.size(); ++id) {
        EXPECT_EQ(machine.memory().read_u32(kOut + 4ull * id), t.expected[id])
            << "node " << id;
    }
}

TEST_P(RandomDataflow, ThreeNodeWheelMatchesDense) {
    // Random trees on a 3-node machine: the wheel and the dense loop must
    // land on the same cycle count and the same memory image.
    const Tree t = build_tree(GetParam());
    const std::vector<std::uint64_t> args = {GetParam() & 0xffff};

    sim::Cycle ref_cycles = 0;
    for (const bool use_wheel : {false, true}) {
        auto cfg = test::tiny_config(2);
        cfg.nodes = 3;
        cfg.use_wheel = use_wheel;
        Machine machine(cfg, t.prog);
        machine.launch(args);
        const RunResult res = machine.run();
        if (!use_wheel) {
            ref_cycles = res.cycles;
        } else {
            EXPECT_EQ(res.cycles, ref_cycles);
        }
        for (std::uint32_t id = 0; id < t.nodes.size(); ++id) {
            EXPECT_EQ(machine.memory().read_u32(kOut + 4ull * id),
                      t.expected[id])
                << (use_wheel ? "wheel" : "dense") << " node " << id;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDataflow,
                         ::testing::Range<std::uint64_t>(100, 115));

}  // namespace
}  // namespace dta::core
