#include "workloads/dataflow_gen.hpp"

#include <utility>

#include "isa/builder.hpp"
#include "sim/check.hpp"
#include "sim/rng.hpp"

namespace dta::workloads {

using isa::CodeBlock;
using isa::CodeBuilder;
using isa::r;

namespace {
constexpr std::uint64_t kMix = 0x85EBCA6Bull;
}  // namespace

DataflowGen::DataflowGen(const DataflowGenParams& p) : p_(p) {
    DTA_SIM_REQUIRE(p_.max_threads >= 1, "dataflow_gen needs >= 1 thread");
    DTA_SIM_REQUIRE(p_.max_fanout >= 1, "dataflow_gen needs fanout >= 1");
    DTA_SIM_REQUIRE(p_.table_words >= 1, "dataflow_gen needs a table word");
    generate_shape();
    emit_code();
    expected_.assign(nodes_.size(), 0);
    fill_expected(0, p_.seed & 0xffff);
}

void DataflowGen::generate_shape() {
    sim::Xoshiro256 rng(p_.seed);
    nodes_.push_back(Node{});
    std::vector<std::uint32_t> frontier = {0};
    std::size_t head = 0;
    while (head < frontier.size() && nodes_.size() < p_.max_threads) {
        const std::uint32_t id = frontier[head++];
        const auto remaining =
            static_cast<std::uint32_t>(p_.max_threads - nodes_.size());
        std::uint32_t kids =
            static_cast<std::uint32_t>(rng.next_below(p_.max_fanout + 1));
        // The root always forks at least once so single-thread programs only
        // occur when max_threads itself is 1.
        if (id == 0 && kids == 0) {
            kids = 1;
        }
        // A join consumes one extra slot of the thread budget.
        bool join = kids >= 2 && rng.next_below(100) < p_.join_percent;
        if (kids + (join ? 1u : 0u) > remaining) {
            join = false;
            kids = std::min(kids, remaining);
        }
        for (std::uint32_t k = 0; k < kids; ++k) {
            const auto cid = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{});
            nodes_.back().id = cid;
            nodes_[id].children.push_back(cid);
            frontier.push_back(cid);
        }
        if (join) {
            const auto jid = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{});
            Node& j = nodes_.back();
            j.id = jid;
            j.is_join = true;
            j.arity = kids;
            nodes_[id].join = jid;
            for (std::uint32_t k = 0; k < kids; ++k) {
                nodes_[nodes_[id].children[k]].join_word = k;
            }
            if (kids > min_frame_words_) {
                min_frame_words_ = kids;
            }
        }
    }
}

std::uint32_t DataflowGen::table_at(std::uint32_t word) const {
    // Its own SplitMix stream so table contents and tree shape are
    // independent draws of the same seed.
    sim::SplitMix64 sm(p_.seed ^ 0x7ab1eULL ^ word);
    return static_cast<std::uint32_t>(sm.next() & 0xffffffffULL);
}

void DataflowGen::init_memory(mem::MainMemory& mem) const {
    for (std::uint32_t w = 0; w < p_.table_words; ++w) {
        mem.write_u32(p_.table_base + 4ull * w, table_at(w));
    }
}

std::uint32_t DataflowGen::transform(std::uint64_t input,
                                     std::uint32_t id) const {
    auto v = static_cast<std::uint32_t>(((input + id) * kMix) & 0xffffffffULL);
    if (p_.table_reads) {
        v ^= table_at(id % p_.table_words);
    }
    return v;
}

void DataflowGen::fill_expected(std::uint32_t id, std::uint64_t input) {
    const Node& n = nodes_[id];
    const std::uint32_t v = transform(input, id);
    expected_[id] = v;
    for (std::size_t i = 0; i < n.children.size(); ++i) {
        fill_expected(n.children[i], v + static_cast<std::uint64_t>(i));
    }
    if (n.join >= 0) {
        // The join sums its input words (the children's results) in 64-bit
        // register arithmetic before the common transform.
        std::uint64_t sum = 0;
        for (const std::uint32_t cid : n.children) {
            sum += expected_[cid];
        }
        const auto jid = static_cast<std::uint32_t>(n.join);
        expected_[jid] = transform(sum, jid);
    }
}

void DataflowGen::emit_code() {
    prog_.name = "dataflow_gen(seed=" + std::to_string(p_.seed) + ")";
    for (const Node& n : nodes_) {
        const std::uint32_t num_inputs =
            n.is_join ? n.arity : (n.join_word >= 0 ? 2u : 1u);
        CodeBuilder b((n.is_join ? "join" : "node") + std::to_string(n.id),
                      num_inputs);

        std::int16_t region = isa::kNoRegion;
        if (p_.table_reads) {
            isa::RegionAnnotation ann;
            CodeBuilder ab("table_addr", 0);
            ab.block(CodeBlock::kPf)
                .movi(r(30), static_cast<std::int64_t>(p_.table_base));
            ann.addr_code = std::move(ab).build_unchecked().code;
            ann.addr_reg = 30;
            ann.bytes = p_.table_words * 4;
            region = b.annotate(std::move(ann));
        }

        // PL: fold the input words into r1 (joins sum all of theirs), and
        // fetch the parent-provided join handle if we feed one.
        b.block(CodeBlock::kPl).load(r(1), 0);
        if (n.is_join) {
            for (std::uint32_t w = 1; w < n.arity; ++w) {
                b.load(r(2), w).add(r(1), r(1), r(2));
            }
        } else if (n.join_word >= 0) {
            b.load(r(10), 1);
        }

        // EX: the common transform, then the single output WRITE.
        b.block(CodeBlock::kEx)
            .addi(r(2), r(1), n.id)
            .muli(r(2), r(2), static_cast<std::int64_t>(kMix))
            .andi(r(2), r(2), 0xffffffff);
        if (p_.table_reads) {
            b.movi(r(3), static_cast<std::int64_t>(p_.table_base))
                .read(r(4), r(3), 4ll * (n.id % p_.table_words), region)
                .xor_(r(2), r(2), r(4));
        }
        b.movi(r(5), static_cast<std::int64_t>(p_.out_base + 4ull * n.id))
            .write(r(2), r(5), 0);

        // PS: allocate the join (if any) and the children, feed them, then
        // count down the parent's join if we participate in one.  Every
        // fourth thread frees its frame first and works on past its stores.
        const bool late_free = n.id % 4 == 3;
        b.block(CodeBlock::kPs);
        if (late_free) {
            b.ffree();
        }
        if (n.join >= 0) {
            b.falloc(r(7), static_cast<sim::ThreadCodeId>(n.join));
        }
        for (std::size_t i = 0; i < n.children.size(); ++i) {
            b.falloc(r(6), n.children[i])
                .addi(r(8), r(2), static_cast<std::int64_t>(i))
                .store(r(8), r(6), 0);
            if (n.join >= 0) {
                b.store(r(7), r(6), 1);
            }
        }
        if (n.join_word >= 0) {
            b.store(r(2), r(10), n.join_word);
        }
        for (int i = 0; late_free && i < 20; ++i) {
            b.addi(r(9), r(9), 1);
        }
        if (!late_free) {
            b.ffree();
        }
        b.stop();
        prog_.add(std::move(b).build());
    }
    prog_.entry = 0;
}

bool DataflowGen::check(const mem::MainMemory& mem, std::string* why) const {
    for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
        const std::uint32_t got = mem.read_u32(p_.out_base + 4ull * id);
        if (got != expected_[id]) {
            if (why != nullptr) {
                *why = "thread " + std::to_string(id) + " wrote " +
                       std::to_string(got) + ", expected " +
                       std::to_string(expected_[id]);
            }
            return false;
        }
    }
    return true;
}

}  // namespace dta::workloads
