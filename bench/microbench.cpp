/// \file microbench.cpp
/// \brief google-benchmark microbenchmarks of the simulator itself:
///        component tick rates and whole-machine simulation speed.  These
///        guard against performance regressions of the simulator (host
///        cycles per simulated cycle), not of the simulated architecture.
///
/// Like the figure benches, this binary honours DTA_BENCH_JSON: a custom
/// reporter appends one NDJSON object per benchmark through the shared
/// bench_emit.hpp path, keyed by the same "benchmark" field, so CI can
/// archive micro and macro results from a single file.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_emit.hpp"
#include "core/machine.hpp"
#include "dma/mfc.hpp"
#include "mem/local_store.hpp"
#include "mem/main_memory.hpp"
#include "noc/interconnect.hpp"
#include "sim/wheel.hpp"
#include "workloads/mmul.hpp"
#include "workloads/zoom.hpp"

namespace {

using namespace dta;

void BM_InterconnectTick(benchmark::State& state) {
    noc::Interconnect fabric(noc::InterconnectConfig{}, 11);
    sim::Cycle now = 0;
    std::uint64_t seq = 0;
    for (auto _ : state) {
        // Keep modest load on the fabric.
        noc::Packet p;
        p.dst = static_cast<noc::EndpointId>(seq % 11);
        p.dst_final = p.dst;
        p.size_bytes = 16;
        (void)fabric.try_inject(static_cast<noc::EndpointId>((seq + 1) % 11),
                                std::move(p), now);
        fabric.tick(now++);
        noc::Packet out;
        for (noc::EndpointId ep = 0; ep < 11; ++ep) {
            while (fabric.pop_delivered(ep, out)) {
            }
        }
        ++seq;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_InterconnectTick);

void BM_LocalStoreTick(benchmark::State& state) {
    mem::LocalStore ls(mem::LocalStoreConfig{});
    sim::Cycle now = 0;
    for (auto _ : state) {
        mem::LsRequest rq;
        rq.id = now;
        rq.addr = static_cast<sim::LsAddr>((now * 64) % (128 * 1024));
        rq.size = 8;
        ls.enqueue(mem::LsClient::kSpu, std::move(rq));
        ls.tick(now++);
        mem::LsResponse resp;
        while (ls.pop_response(mem::LsClient::kSpu, resp)) {
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LocalStoreTick);

void BM_MainMemoryTick(benchmark::State& state) {
    mem::MainMemory mm(mem::MainMemoryConfig{});
    sim::Cycle now = 0;
    for (auto _ : state) {
        if ((now & 3) == 0) {
            mem::MemRequest rq;
            rq.addr = (now * 128) % (1 << 20);
            rq.size = 128;
            mm.enqueue(std::move(rq));
        }
        mm.tick(now++);
        mem::MemResponse resp;
        while (mm.pop_response(resp)) {
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MainMemoryTick);

void BM_MachineCyclesPerSecond_MmulPrefetch(benchmark::State& state) {
    workloads::MatMul::Params p;
    p.n = 16;
    p.threads = 8;
    const workloads::MatMul wl(p);
    std::uint64_t sim_cycles = 0;
    for (auto _ : state) {
        core::Machine m(workloads::MatMul::machine_config(8),
                        wl.prefetch_program());
        wl.init_memory(m.memory());
        m.launch({});
        const auto res = m.run();
        sim_cycles += res.cycles;
        benchmark::DoNotOptimize(res.cycles);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(sim_cycles));
    state.counters["sim_cycles_per_run"] = static_cast<double>(
        sim_cycles / std::max<std::uint64_t>(1, state.iterations()));
}
BENCHMARK(BM_MachineCyclesPerSecond_MmulPrefetch)
    ->Unit(benchmark::kMillisecond);

void BM_MachineCyclesPerSecond_ZoomOriginal(benchmark::State& state) {
    workloads::Zoom::Params p;
    p.n = 16;
    p.factor = 4;
    p.threads = 8;
    const workloads::Zoom wl(p);
    std::uint64_t sim_cycles = 0;
    for (auto _ : state) {
        core::Machine m(workloads::Zoom::machine_config(8), wl.program());
        wl.init_memory(m.memory());
        m.launch({});
        const auto res = m.run();
        sim_cycles += res.cycles;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(sim_cycles));
}
BENCHMARK(BM_MachineCyclesPerSecond_ZoomOriginal)
    ->Unit(benchmark::kMillisecond);

// Full checkpoint + restore round trip of a launched 8-SPE machine: one
// snapshot write to disk plus one restore into a fresh machine per
// iteration.  Guards the serialization path itself — a checkpointing run
// pays this cost at every cut, so it has to stay cheap relative to the
// simulation between cuts.
void BM_SnapshotSaveRestore(benchmark::State& state) {
    workloads::MatMul::Params p;
    p.n = 16;
    p.threads = 8;
    const workloads::MatMul wl(p);
    const core::MachineConfig cfg = workloads::MatMul::machine_config(8);
    const std::string path = "bm_snapshot.dtasnap";
    core::Machine src(cfg, wl.prefetch_program());
    wl.init_memory(src.memory());
    src.launch({});
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        src.checkpoint(path);
        core::Machine dst(cfg, wl.prefetch_program());
        dst.restore(path);
        benchmark::DoNotOptimize(dst.start_cycle());
    }
    {
        std::FILE* f = std::fopen(path.c_str(), "rb");
        if (f != nullptr) {
            std::fseek(f, 0, SEEK_END);
            bytes = static_cast<std::uint64_t>(std::ftell(f));
            std::fclose(f);
        }
    }
    std::remove(path.c_str());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SnapshotSaveRestore)->Unit(benchmark::kMillisecond);

void BM_TimingWheelInsertCollect(benchmark::State& state) {
    // 1e6 insert+collect pairs per iteration on the bare calendar queue,
    // with the horizon mix the machine produces: mostly short (L0 page),
    // some mid-range (L1), a tail beyond the 64Ki epoch (overflow).
    constexpr std::uint64_t kOps = 1'000'000;
    std::vector<std::uint32_t> out;
    for (auto _ : state) {
        sim::TimingWheel wheel;
        std::uint64_t rng = 0x9e3779b97f4a7c15ull;
        sim::Cycle now = 0;
        std::uint64_t popped = 0;
        for (std::uint64_t i = 0; i < kOps; ++i) {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            const std::uint64_t r = rng >> 33;
            const sim::Cycle delta = r % 100 < 90   ? 1 + r % 16
                                     : r % 100 < 99 ? 256 + r % 4096
                                                    : 70'000 + r % 100'000;
            wheel.insert(now + delta, static_cast<std::uint32_t>(i & 1023));
            out.clear();
            wheel.collect(now, out);
            popped += out.size();
            ++now;
        }
        benchmark::DoNotOptimize(popped);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kOps));
}
BENCHMARK(BM_TimingWheelInsertCollect);

/// Fixed-stride dummy: re-arms itself `stride` cycles after every visit,
/// so the scheduler's full pop -> lazy-skip -> tick -> re-arm path runs at
/// a steady, deterministic event rate.
class StrideComponent final : public sim::Component {
public:
    StrideComponent(std::string name, sim::Cycle stride)
        : sim::Component(std::move(name)), stride_(stride) {}
    void tick(sim::Cycle now) override {
        ++ticks_;
        last_ = now;
    }
    [[nodiscard]] bool quiescent() const override { return false; }
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) const override {
        return now + stride_;
    }

private:
    sim::Cycle stride_;
    sim::Cycle last_ = 0;
    std::uint64_t ticks_ = 0;
};

void BM_WheelSchedulerPopRearm(benchmark::State& state) {
    // 1e6 component visits through the real scheduler: wheel pop, lazy
    // skip of the slept span, tick, next_activity() re-arm.  Strides are
    // spread over 1..13 cycles so only a fraction of the 64 components is
    // due per cycle (the partially-idle regime the wheel exists for).
    constexpr std::uint64_t kOps = 1'000'000;
    std::vector<std::unique_ptr<StrideComponent>> owners;
    std::vector<sim::Component*> comps;
    for (int i = 0; i < 64; ++i) {
        owners.push_back(std::make_unique<StrideComponent>(
            "c" + std::to_string(i), 1 + (i * 7) % 13));
        comps.push_back(owners.back().get());
    }
    for (auto _ : state) {
        sim::WheelScheduler sched;
        sched.attach(comps);
        sched.start(0);
        std::uint64_t t = 0;
        std::uint64_t pops = 0;
        sim::Cycle now = 0;
        while (pops < kOps) {
            pops += sched.run_cycle(now, nullptr, t);
            now = sched.next_due();
        }
        benchmark::DoNotOptimize(pops);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kOps));
}
BENCHMARK(BM_WheelSchedulerPopRearm);

/// Re-arms with the horizon mix measured on mmul(32)/pf: 73% of visits at
/// +1, 6% at +2, 13% at +3..8, 7% at +9..256 and 1% never, uniform within
/// each range.  A component that sleeps for good is woken by the next
/// visit of any component, as inbound traffic would wake it.
class MixComponent final : public sim::Component {
public:
    MixComponent(std::uint32_t id, sim::WheelScheduler* sched,
                 std::vector<std::uint32_t>* sleepers)
        : sim::Component("m" + std::to_string(id)),
          id_(id),
          rng_(0x9e3779b97f4a7c15ull * (id + 1)),
          sched_(sched),
          sleepers_(sleepers) {}
    void tick(sim::Cycle now) override {
        if (!sleepers_->empty()) {
            const std::uint32_t s = sleepers_->back();
            sleepers_->pop_back();
            sched_->wake(s);
        }
        rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t pct = (rng_ >> 33) % 100;
        const std::uint64_t x = rng_ >> 17;
        if (pct < 73) {
            next_ = now + 1;
        } else if (pct < 79) {
            next_ = now + 2;
        } else if (pct < 92) {
            next_ = now + 3 + x % 6;
        } else if (pct < 99) {
            next_ = now + 9 + x % 248;
        } else {
            next_ = sim::kIdleForever;
            sleepers_->push_back(id_);
        }
    }
    [[nodiscard]] bool quiescent() const override { return false; }
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) const override {
        (void)now;
        return next_;
    }

private:
    std::uint32_t id_;
    std::uint64_t rng_;
    sim::WheelScheduler* sched_;
    std::vector<std::uint32_t>* sleepers_;
    sim::Cycle next_ = sim::kIdleForever;
};

void BM_WheelSchedulerPopRearmMmulPfMix(benchmark::State& state) {
    // 1e6 visits of mmul(32)/pf's 12 components (fabric, DSE, memory
    // interface, 8 PEs, router) under its measured re-arm mix: most
    // re-arms land at now+1, in the scheduler's next-cycle lane.
    constexpr std::uint64_t kOps = 1'000'000;
    for (auto _ : state) {
        sim::WheelScheduler sched;
        std::vector<std::uint32_t> sleepers;
        std::vector<std::unique_ptr<MixComponent>> owners;
        std::vector<sim::Component*> comps;
        for (std::uint32_t i = 0; i < 12; ++i) {
            owners.push_back(
                std::make_unique<MixComponent>(i, &sched, &sleepers));
            comps.push_back(owners.back().get());
        }
        sched.attach(comps);
        sched.start(0);
        std::uint64_t t = 0;
        std::uint64_t pops = 0;
        sim::Cycle now = 0;
        while (pops < kOps && !sched.idle()) {
            pops += sched.run_cycle(now, nullptr, t);
            now = sched.next_due();
        }
        benchmark::DoNotOptimize(pops);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kOps));
}
BENCHMARK(BM_WheelSchedulerPopRearmMmulPfMix);

void BM_ProgramConstruction(benchmark::State& state) {
    for (auto _ : state) {
        workloads::MatMul::Params p;
        p.n = 16;
        p.threads = 8;
        const workloads::MatMul wl(p);
        benchmark::DoNotOptimize(wl.prefetch_program().codes.size());
    }
}
BENCHMARK(BM_ProgramConstruction);

/// ConsoleReporter plus the DTA_BENCH_JSON side channel: every non-error
/// run appends `{"benchmark": "micro/<name>", ...}` via the same emit path
/// the figure benches use, so one NDJSON file collects both kinds.
class JsonLineReporter : public benchmark::ConsoleReporter {
public:
    void ReportRuns(const std::vector<Run>& reports) override {
        ConsoleReporter::ReportRuns(reports);
        if (bench::bench_json_path() == nullptr) {
            return;
        }
        for (const Run& run : reports) {
            if (run.error_occurred) {
                continue;
            }
            const double iters =
                run.iterations > 0 ? static_cast<double>(run.iterations)
                                   : 1.0;
            char buf[512];
            std::snprintf(
                buf, sizeof buf,
                "{\"benchmark\": \"micro/%s\", \"iterations\": %lld, "
                "\"real_time_s\": %.9g, \"cpu_time_s\": %.9g",
                stats::json_escape(run.benchmark_name()).c_str(),
                static_cast<long long>(run.iterations),
                run.real_accumulated_time / iters,
                run.cpu_accumulated_time / iters);
            std::string line = buf;
            for (const auto& [name, counter] : run.counters) {
                std::snprintf(buf, sizeof buf, ", \"%s\": %.9g",
                              stats::json_escape(name).c_str(),
                              static_cast<double>(counter.value));
                line += buf;
            }
            line += "}";
            bench::emit_bench_line(line);
        }
    }
};

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    JsonLineReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
}
