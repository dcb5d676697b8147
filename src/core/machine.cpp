#include "core/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "isa/validate.hpp"
#include "sim/check.hpp"
#include "sim/epoch.hpp"
#include "sim/snapshot.hpp"

namespace dta::core {

// ---------------------------------------------------------------------------
// RunResult helpers
// ---------------------------------------------------------------------------

Breakdown RunResult::total_breakdown() const {
    Breakdown b;
    for (const auto& pe : pes) {
        b += pe.breakdown;
    }
    return b;
}

InstrStats RunResult::total_instrs() const {
    InstrStats s;
    for (const auto& pe : pes) {
        s += pe.instrs;
    }
    return s;
}

double RunResult::pipeline_usage() const {
    if (cycles == 0 || pes.empty()) {
        return 0.0;
    }
    std::uint64_t with_issue = 0;
    for (const auto& pe : pes) {
        with_issue += pe.cycles_with_issue;
    }
    return static_cast<double>(with_issue) /
           (static_cast<double>(cycles) * static_cast<double>(pes.size()));
}

double RunResult::slot_utilisation() const {
    if (cycles == 0 || pes.empty()) {
        return 0.0;
    }
    std::uint64_t slots = 0;
    for (const auto& pe : pes) {
        slots += pe.issue_slots_used;
    }
    return static_cast<double>(slots) /
           (2.0 * static_cast<double>(cycles) * static_cast<double>(pes.size()));
}

// ---------------------------------------------------------------------------
// Construction and wiring
// ---------------------------------------------------------------------------

Machine::Machine(MachineConfig cfg, isa::Program prog)
    : cfg_(std::move(cfg)),
      prog_(std::move(prog)),
      topo_{cfg_.nodes, cfg_.spes_per_node},
      layout_{cfg_.spes_per_node, cfg_.nodes > 1},
      mem_(cfg_.memory) {
    DTA_SIM_REQUIRE(cfg_.nodes > 0 && cfg_.spes_per_node > 0,
                    "machine needs at least one node and one SPE");
    isa::validate_program(prog_);
    decoded_ = isa::predecode(prog_);
    // FALLOC requests carry the code id in 16 wire bits (the upper bits of
    // the word carry the parent thread uid — see sched::pack_carried_uid).
    DTA_SIM_REQUIRE(prog_.codes.size() <= 0x10000,
                    "programs with more than 65536 thread codes are not "
                    "representable in the FALLOC wire format");
    if (cfg_.collect_events) {
        // Thread uids ride in the upper 48 bits of existing scheduler
        // message words (see sched::pack_carried_uid), which requires the
        // uid's PE half to fit 16 bits while tracing is on.  Checked here —
        // before any PE (and its local store) is allocated — so an
        // out-of-range config fails fast instead of first committing
        // gigabytes of local-store memory.
        DTA_SIM_REQUIRE(cfg_.total_pes() <= 0xffff,
                        "event collection needs total PEs <= 65535 (thread "
                        "uids pack the PE index into 16 wire bits)");
    }
    fast_forward_ =
        cfg_.fast_forward && std::getenv("DTA_NO_FASTFORWARD") == nullptr;
    use_wheel_ = cfg_.use_wheel && std::getenv("DTA_NO_WHEEL") == nullptr;

    // Resolve the host-thread request into a shard count: one shard is a
    // whole node (its DSE, PEs, MFCs, local stores and router), so the
    // useful parallelism is capped at the node count; shards get contiguous
    // node ranges so the intra-node fabric and most ring edges stay
    // thread-local.  shard_count_ == 1 selects the single-threaded
    // reference loop (bit-identical results either way).
    std::uint32_t requested = cfg_.host_threads == 0
                                  ? std::thread::hardware_concurrency()
                                  : cfg_.host_threads;
    if (requested == 0) {
        requested = 1;
    }
    shard_count_ = std::min<std::uint32_t>(requested, cfg_.nodes);
    node_shard_.resize(cfg_.nodes, 0);
    for (std::uint32_t s = 0; s < shard_count_; ++s) {
        for (std::uint16_t n = first_node_of(s); n < first_node_of(s + 1);
             ++n) {
            node_shard_[n] = static_cast<std::uint16_t>(s);
        }
    }
    if (shard_count_ > 1) {
        // Shard-local sinks, sized up front: components keep pointers into
        // these for the machine's lifetime.
        shard_metrics_.resize(shard_count_);
        shard_spans_.resize(shard_count_);
        shard_dma_spans_.resize(shard_count_);
        shard_gauges_.resize(shard_count_);
        shard_events_.resize(shard_count_);
    }

    // Containers that components keep pointers into are sized up front so
    // the port bindings below stay valid.
    fabrics_.reserve(cfg_.nodes);
    dses_.reserve(cfg_.nodes);
    for (std::uint16_t n = 0; n < cfg_.nodes; ++n) {
        fabrics_.emplace_back(cfg_.noc, layout_.endpoint_count());
        fabrics_.back().set_name("noc" + std::to_string(n));
        dses_.emplace_back(topo_, n, cfg_.lse.frames,
                           cfg_.lse.virtual_frames);
    }
    if (cfg_.nodes > 1) {
        links_.reserve(cfg_.nodes);
        for (std::uint16_t n = 0; n < cfg_.nodes; ++n) {
            links_.emplace_back(cfg_.link);
            links_.back().set_name("link" + std::to_string(n));
        }
    }
    pes_.reserve(cfg_.total_pes());
    for (sim::GlobalPeId id = 0; id < cfg_.total_pes(); ++id) {
        pes_.push_back(std::make_unique<Pe>(cfg_, topo_, id, prog_, decoded_,
                                             logger_));
        // Parking is the PE's own cheap idle shortcut for the dense loop.
        // Under the wheel a parked PE is never visited before its horizon,
        // so parking would only compute next_activity twice per quiet tick.
        pes_.back()->set_parking(fast_forward_ && !use_wheel_);
        if (cfg_.capture_spans) {
            // Sharded machines write spans into shard-local vectors (no
            // cross-thread sharing); run_sharded() merges them back into
            // spans_ in the single-threaded push order.
            pes_.back()->set_span_sink(
                shard_count_ > 1
                    ? &shard_spans_[node_shard_[id / cfg_.spes_per_node]]
                    : &spans_);
        }
    }
    memif_ = std::make_unique<MemInterface>(mem_);
    routers_.reserve(cfg_.nodes);
    for (std::uint16_t n = 0; n < cfg_.nodes; ++n) {
        std::vector<Pe*> local;
        local.reserve(cfg_.spes_per_node);
        for (std::uint16_t l = 0; l < cfg_.spes_per_node; ++l) {
            local.push_back(pes_[topo_.global_pe(n, l)].get());
        }
        routers_.push_back(std::make_unique<NodeRouter>(
            n, cfg_.nodes, layout_, fabrics_[n], dses_[n], std::move(local),
            n == kMemoryNode ? memif_.get() : nullptr,
            cfg_.nodes > 1 ? &links_[n] : nullptr));
    }

    // Wiring, declared once: fabric endpoints deliver straight into the
    // owning component's rx port; ring links deliver into the next node's
    // router.
    for (std::uint16_t n = 0; n < cfg_.nodes; ++n) {
        noc::Interconnect& fab = fabrics_[n];
        for (std::uint16_t l = 0; l < cfg_.spes_per_node; ++l) {
            fab.bind_endpoint(layout_.spe_ep(l),
                              &pes_[topo_.global_pe(n, l)]->rx_port());
        }
        fab.bind_endpoint(layout_.dse_ep(), &dses_[n].rx_port());
        if (n == kMemoryNode) {
            fab.bind_endpoint(layout_.mem_ep(), &memif_->rx_port());
        }
        if (cfg_.nodes > 1) {
            fab.bind_endpoint(layout_.bridge_ep(),
                              &routers_[n]->bridge_out_port());
            routers_[n]->set_forward_to(
                &routers_[(n + 1) % cfg_.nodes]->arrivals_port());
        }
    }

    // Scheduler list, in the seed's dependency order: fabric maturation
    // first, then the consumers of its deliveries (DSEs, memory interface,
    // PEs), then the per-node injection engines.  Routers run in node
    // order so a link delivery to a higher-numbered node is forwarded the
    // same cycle, exactly as the seed's injection_phase did.
    components_.reserve(2 * static_cast<std::size_t>(cfg_.nodes) + 1 +
                        pes_.size() + routers_.size());
    for (auto& fab : fabrics_) {
        components_.push_back(&fab);
    }
    for (auto& dse : dses_) {
        components_.push_back(&dse);
    }
    components_.push_back(memif_.get());
    for (auto& pe : pes_) {
        components_.push_back(pe.get());
    }
    for (auto& router : routers_) {
        components_.push_back(router.get());
    }

    if (cfg_.collect_events) {
        // Each emitter writes into its owning shard's private log (the
        // whole machine shares events_ in single-threaded mode);
        // run_sharded() concatenates and canonicalizes at the end.  Router
        // ordinals live above the PE id range so the two never collide.
        for (sim::GlobalPeId id = 0; id < cfg_.total_pes(); ++id) {
            sim::EventLog& log =
                shard_count_ > 1
                    ? shard_events_[node_shard_[id / cfg_.spes_per_node]]
                    : events_;
            pes_[id]->attach_events(&log);
        }
        for (std::uint16_t n = 0; n < cfg_.nodes; ++n) {
            sim::EventLog& log =
                shard_count_ > 1 ? shard_events_[node_shard_[n]] : events_;
            routers_[n]->attach_events(&log, cfg_.total_pes() + n);
        }
    }

    if (cfg_.collect_metrics) {
        DTA_SIM_REQUIRE(cfg_.metrics_sample_interval > 0,
                        "metrics_sample_interval must be non-zero");
        if (shard_count_ > 1) {
            // Each shard gets a private registry over its own components;
            // run_sharded() merges them into metrics_ (counters add,
            // histograms merge, gauges sum point-wise — all
            // order-independent, so the merged registry is bit-identical
            // to one shared registry).
            for (std::uint32_t s = 0; s < shard_count_; ++s) {
                sim::MetricsRegistry& reg = shard_metrics_[s];
                ShardGauges& g = shard_gauges_[s];
                reg.enable();
                for (std::uint16_t n = first_node_of(s);
                     n < first_node_of(s + 1); ++n) {
                    for (std::uint16_t l = 0; l < cfg_.spes_per_node; ++l) {
                        pes_[topo_.global_pe(n, l)]->attach_metrics(
                            reg, &shard_dma_spans_[s]);
                    }
                    fabrics_[n].attach_metrics(reg);
                    g.noc_pending.push_back(
                        reg.gauge("noc" + std::to_string(n) + ".pending"));
                    dses_[n].attach_metrics(reg);
                }
                g.dma_cmds = reg.gauge("dma.commands_in_flight");
                g.dma_lines = reg.gauge("dma.lines_in_flight");
                if (node_shard_[kMemoryNode] == s) {
                    g.mem_queue = reg.gauge("mem.queue_depth");
                }
            }
        } else {
            metrics_.enable();
            for (auto& pe : pes_) {
                pe->attach_metrics(metrics_, &dma_spans_);
            }
            g_noc_pending_.reserve(fabrics_.size());
            for (std::size_t n = 0; n < fabrics_.size(); ++n) {
                fabrics_[n].attach_metrics(metrics_);
                g_noc_pending_.push_back(
                    metrics_.gauge("noc" + std::to_string(n) + ".pending"));
            }
            for (auto& dse : dses_) {
                dse.attach_metrics(metrics_);
            }
            g_dma_cmds_ = metrics_.gauge("dma.commands_in_flight");
            g_dma_lines_ = metrics_.gauge("dma.lines_in_flight");
            g_mem_queue_ = metrics_.gauge("mem.queue_depth");
        }
    }

    if (cfg_.audit.enabled) {
        audit_interval_ = cfg_.audit.effective_interval();
        // The machine-wide auditor carries every per-component check plus
        // the final quiescence checks; the single-threaded loop sweeps it
        // at audit_interval_, and both loops run it once more at the end.
        register_audit_checks(auditor_, 0, cfg_.nodes);
        register_final_checks();
        if (shard_count_ > 1) {
            // Mid-run each shard audits only its own components (a check
            // must not read another shard's state from this thread); the
            // machine-wide pass runs after the join.
            shard_auditors_.resize(shard_count_);
            for (std::uint32_t s = 0; s < shard_count_; ++s) {
                register_audit_checks(shard_auditors_[s], first_node_of(s),
                                      first_node_of(s + 1));
            }
        }
    }

    if (cfg_.telemetry.enabled) {
        telemetry_ = std::make_unique<sim::TelemetrySampler>(cfg_.telemetry);
        telemetry_->set_stall_info([this](sim::TelemetryStall& s) {
            s.components = non_quiescent_names(s.cycle);
            if (!last_ckpt_path_.empty()) {
                s.replay = replay_hint_ + " --restore " + last_ckpt_path_;
            }
        });
    }

    if (cfg_.profile) {
        // One buffer per shard, sized once: shards, links and routers keep
        // pointers into prof_ for the machine's lifetime.
        prof_.resize(shard_count_);
        if (shard_count_ == 1) {
            prof_[0].reset(components_.size());
        }
    }

    if (shard_count_ > 1) {
        // Ring edges that cross a shard boundary exchange packets through
        // SPSC channels instead of a direct port push.  Capacity covers the
        // worst burst a free-running sender can stage before the receiver's
        // next drain (a handful of epochs of back-to-back serialisations);
        // overflow is a wiring bug, not backpressure, and trips a check.
        const std::size_t cap =
            static_cast<std::size_t>(4 * epoch_length() + 64);
        for (std::uint16_t n = 0; n < cfg_.nodes; ++n) {
            const auto m = static_cast<std::uint16_t>((n + 1) % cfg_.nodes);
            if (node_shard_[n] == node_shard_[m]) {
                continue;
            }
            channels_.push_back(
                std::make_unique<sim::SpscChannel<noc::Packet>>(cap));
            // The wrap edge (receiver node < sender node) drains one cycle
            // later than the stamped delivery: in the single-threaded
            // schedule routers tick in node order, so a forward-edge
            // delivery is forwarded the same cycle but a wrap-edge one only
            // on the next (see docs/ARCHITECTURE.md).
            links_[n].attach_channel(channels_.back().get(), m < n ? 1 : 0);
            routers_[m]->set_inbound_channel(channels_.back().get());
            if (cfg_.profile) {
                // Serialisation is charged to the sending shard (the link
                // ticks inside its node's router), draining to the
                // receiving one; both sites sit inside a component tick and
                // are subtracted from it via the orphan-child mechanism.
                links_[n].set_prof(&prof_[node_shard_[n]]);
                routers_[m]->set_prof(&prof_[node_shard_[m]]);
            }
        }
        build_shards();
    }

    if (use_wheel_) {
        // Event-driven core: one scheduler per run loop.  When the wheel is
        // off (--no-wheel / DTA_NO_WHEEL) no waker is ever bound, so the
        // dense oracle pays nothing and behaves exactly as before.
        if (shard_count_ > 1) {
            // Each inbound cross-shard channel re-arms its consuming router
            // at the entry of every epoch window (Shard::run_until); map
            // each channel to that router's shard-local scheduler index, in
            // the same edge order build_shards used.
            std::vector<std::vector<std::uint32_t>> consumers(shard_count_);
            for (std::uint16_t n = 0; n < cfg_.nodes; ++n) {
                const auto m = static_cast<std::uint16_t>((n + 1) % cfg_.nodes);
                if (node_shard_[n] == node_shard_[m]) {
                    continue;
                }
                const std::uint16_t s = node_shard_[m];
                const auto& comps = shards_[s]->components();
                std::uint32_t idx = 0;
                while (idx < comps.size() && comps[idx] != routers_[m].get()) {
                    ++idx;
                }
                DTA_CHECK_MSG(idx < comps.size(),
                              "inbound channel consumer not in its shard");
                consumers[s].push_back(idx);
            }
            for (std::uint32_t s = 0; s < shard_count_; ++s) {
                shards_[s]->enable_wheel(std::move(consumers[s]));
                attach_wakers(*shards_[s]->wheel(), shards_[s]->components(),
                              first_node_of(s), first_node_of(s + 1));
            }
        } else {
            wheel_.attach(components_);
            if (cfg_.profile) {
                wheel_.set_prof(&prof_[0]);
            }
            attach_wakers(wheel_, components_, 0, cfg_.nodes);
        }
    }
}

void Machine::attach_wakers(sim::WheelScheduler& sched,
                            const std::vector<sim::Component*>& comps,
                            std::uint16_t node_lo, std::uint16_t node_hi) {
    const auto index_of = [&comps](const sim::Component* c) {
        for (std::uint32_t i = 0; i < comps.size(); ++i) {
            if (comps[i] == c) {
                return i;
            }
        }
        DTA_CHECK_MSG(false, "wake target not on this scheduler's list");
        return 0u;  // unreachable
    };
    // Every queue a component drains wakes that component when written; the
    // scheduler's dense-order rule decides whether the wake joins the
    // producer's cycle (producer index below consumer index — the dense
    // loop would tick the consumer later the same cycle) or the next one.
    for (std::uint16_t n = node_lo; n < node_hi; ++n) {
        const std::uint32_t router_idx = index_of(routers_[n].get());
        fabrics_[n].set_waker(&sched, index_of(&fabrics_[n]));
        dses_[n].rx_port().set_waker(&sched, index_of(&dses_[n]));
        // Pull-model outboxes: the router drains them, so the router is the
        // component a push must re-arm.
        dses_[n].outbox_port().set_waker(&sched, router_idx);
        routers_[n]->arrivals_port().set_waker(&sched, router_idx);
        routers_[n]->bridge_out_port().set_waker(&sched, router_idx);
        for (std::uint16_t l = 0; l < cfg_.spes_per_node; ++l) {
            Pe& pe = *pes_[topo_.global_pe(n, l)];
            pe.rx_port().set_waker(&sched, index_of(&pe));
            pe.outgoing_port().set_waker(&sched, router_idx);
        }
        if (n == kMemoryNode) {
            memif_->rx_port().set_waker(&sched, index_of(memif_.get()));
            memif_->tx_port().set_waker(&sched, router_idx);
        }
    }
}

void Machine::build_shards() {
    // Per-shard inbound channel lists, in the same edge order the channels
    // were created.
    std::vector<std::vector<sim::ChannelBase*>> inbound(shard_count_);
    std::size_t ci = 0;
    for (std::uint16_t n = 0; n < cfg_.nodes; ++n) {
        const auto m = static_cast<std::uint16_t>((n + 1) % cfg_.nodes);
        if (node_shard_[n] == node_shard_[m]) {
            continue;
        }
        inbound[node_shard_[m]].push_back(channels_[ci++].get());
    }
    shards_.reserve(shard_count_);
    for (std::uint32_t s = 0; s < shard_count_; ++s) {
        const std::uint16_t lo = first_node_of(s);
        const std::uint16_t hi = first_node_of(s + 1);
        const std::uint32_t pe_lo =
            static_cast<std::uint32_t>(lo) * cfg_.spes_per_node;
        const std::uint32_t pe_hi =
            static_cast<std::uint32_t>(hi) * cfg_.spes_per_node;
        // Shard-local scheduler list in the same relative order as the
        // global components_ list (fabrics, DSEs, memif, PEs, routers).
        std::vector<sim::Component*> comps;
        for (std::uint16_t n = lo; n < hi; ++n) {
            comps.push_back(&fabrics_[n]);
        }
        for (std::uint16_t n = lo; n < hi; ++n) {
            comps.push_back(&dses_[n]);
        }
        if (node_shard_[kMemoryNode] == s) {
            comps.push_back(memif_.get());
        }
        for (std::uint32_t id = pe_lo; id < pe_hi; ++id) {
            comps.push_back(pes_[id].get());
        }
        for (std::uint16_t n = lo; n < hi; ++n) {
            comps.push_back(routers_[n].get());
        }
        sim::Shard::Hooks hooks;
        hooks.fast_forward = fast_forward_;
        if (cfg_.profile) {
            prof_[s].reset(comps.size());
            hooks.prof = &prof_[s];
        }
        hooks.fingerprint = [this, s, lo, hi, pe_lo, pe_hi] {
            std::uint64_t fp = 0;
            if (node_shard_[kMemoryNode] == s) {
                fp += mem_.reads_served() + mem_.writes_served();
            }
            for (std::uint16_t n = lo; n < hi; ++n) {
                fp += fabrics_[n].stats().packets_delivered;
            }
            for (std::uint32_t id = pe_lo; id < pe_hi; ++id) {
                fp += pes_[id]->issue_slots_used() +
                      pes_[id]->lse().stats().dispatches;
            }
            return fp;
        };
        if (cfg_.collect_metrics) {
            hooks.sample = [this, s](sim::Cycle now) {
                sample_shard_gauges(s, now);
            };
            hooks.sample_interval = cfg_.metrics_sample_interval;
        }
        if (cfg_.audit.enabled) {
            hooks.audit = [this, s](sim::Cycle now) {
                shard_auditors_[s].run(now);
            };
            hooks.audit_interval = audit_interval_;
        }
        if (s == 0) {
            // Shard 0 is driven by the calling thread; its epoch-entry hook
            // carries the user-visible progress heartbeat (scoped to shard
            // 0's PEs — cross-shard state is off limits mid-run).
            hooks.progress = [this, pe_lo, pe_hi](sim::Cycle now) {
                report_progress(now, pe_lo, pe_hi);
            };
        }
        shards_.push_back(std::make_unique<sim::Shard>(
            "shard" + std::to_string(s), std::move(comps),
            std::move(inbound[s]), std::move(hooks)));
    }
}

void Machine::register_audit_checks(sim::Auditor& a, std::uint16_t node_lo,
                                    std::uint16_t node_hi) {
    const std::uint32_t frames = cfg_.lse.frames;
    const bool vf = cfg_.lse.virtual_frames;
    for (std::uint16_t n = node_lo; n < node_hi; ++n) {
        noc::Interconnect* fab = &fabrics_[n];
        a.add(fab->name(),
              [fab](const sim::AuditCtx& ctx) { fab->audit(ctx); });
        // DSE frame books: the conservative message-based view can lag the
        // LSEs but must never exceed the physical supply while the DSE is
        // the only granter (with virtual frames it can run ahead, because
        // grants at free == 0 skip the decrement).
        const sched::Dse* dse = &dses_[n];
        const std::uint16_t spes = cfg_.spes_per_node;
        a.add(dse->name(),
              [dse, spes, frames, vf](const sim::AuditCtx& ctx) {
                  for (std::uint16_t l = 0; l < spes; ++l) {
                      if (!vf && dse->free_frames(l) > frames) {
                          ctx.fail("frame-accounting",
                                   "PE " + std::to_string(l) + " shows " +
                                       std::to_string(dse->free_frames(l)) +
                                       " free frames, over the supply of " +
                                       std::to_string(frames) +
                                       " (double-free of a frame)");
                      }
                  }
              });
        for (std::uint16_t l = 0; l < cfg_.spes_per_node; ++l) {
            const sim::GlobalPeId id = topo_.global_pe(n, l);
            Pe* pe = pes_[id].get();
            a.add("pe" + std::to_string(id) + "/lse",
                  [pe](const sim::AuditCtx& ctx) { pe->lse().audit(ctx); });
            a.add("pe" + std::to_string(id) + "/mfc",
                  [pe](const sim::AuditCtx& ctx) { pe->mfc().audit(ctx); });
        }
    }
}

void Machine::register_final_checks() {
    auditor_.add_final("machine", [this](const sim::AuditCtx& ctx) {
        // Frame supply: at quiescence every frame is back with its DSE.
        // With virtual frames the count may exceed the supply (grants taken
        // at free == 0 skip the decrement) but never undershoot it.
        for (std::uint16_t n = 0; n < cfg_.nodes; ++n) {
            for (std::uint16_t l = 0; l < cfg_.spes_per_node; ++l) {
                const std::uint32_t free_frames = dses_[n].free_frames(l);
                const bool bad = cfg_.lse.virtual_frames
                                     ? free_frames < cfg_.lse.frames
                                     : free_frames != cfg_.lse.frames;
                if (bad) {
                    ctx.fail("frame-accounting",
                             "dse" + std::to_string(n) + " ended with " +
                                 std::to_string(free_frames) +
                                 " free frames on local PE " +
                                 std::to_string(l) + " (supply is " +
                                 std::to_string(cfg_.lse.frames) +
                                 "): a frame leaked or double-freed");
                }
            }
        }
        // SC conservation across the NoC: every remote store emitted by
        // some LSE must have been received by another.
        std::uint64_t sent = 0;
        std::uint64_t received = 0;
        for (const auto& pe : pes_) {
            sent += pe->lse().stats().remote_stores_out;
            received += pe->lse().stats().remote_stores_in;
        }
        if (sent != received) {
            ctx.fail("sc-conservation",
                     std::to_string(sent) + " remote stores were sent but " +
                         std::to_string(received) + " arrived");
        }
        // Drained engines, fabrics and memory: quiescence said so; the
        // auditor does not take quiescent()'s word for it.
        for (std::size_t id = 0; id < pes_.size(); ++id) {
            const auto& mfc = pes_[id]->mfc();
            if (mfc.lines_in_flight() != 0 || mfc.commands_in_flight() != 0) {
                ctx.fail("line-accounting",
                         "pe" + std::to_string(id) + "'s MFC ended with " +
                             std::to_string(mfc.commands_in_flight()) +
                             " commands / " +
                             std::to_string(mfc.lines_in_flight()) +
                             " lines still in flight");
            }
        }
        for (const auto& fab : fabrics_) {
            if (fab.pending() != 0) {
                ctx.fail("packet-conservation",
                         fab.name() + " ended with " +
                             std::to_string(fab.pending()) +
                             " packets still in the fabric");
            }
        }
        if (mem_.queue_depth() != 0) {
            ctx.fail("packet-conservation",
                     "main memory ended with " +
                         std::to_string(mem_.queue_depth()) +
                         " requests still queued");
        }
    });
}

void Machine::launch(std::span<const std::uint64_t> args) {
    DTA_SIM_REQUIRE(!launched_, "launch() called twice");
    const isa::ThreadCode& entry = prog_.at(prog_.entry);
    DTA_SIM_REQUIRE(args.size() <= cfg_.lse.frame_words,
                    "entry arguments do not fit in a frame");
    Pe& pe0 = *pes_[0];
    const std::uint32_t slot = pe0.lse().bootstrap_frame(prog_.entry, 0);
    for (std::size_t i = 0; i < args.size(); ++i) {
        pe0.lse().write_frame_word(slot, static_cast<std::uint32_t>(i),
                                   args[i]);
    }
    dses_[0].steal_frame(0);
    launched_ = true;
    logger_.log(sim::LogLevel::kInfo, 0, "machine",
                "launched entry thread '" + entry.name + "' with " +
                    std::to_string(args.size()) + " args");
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------

namespace {

std::string hex64(std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// Program digest element: every field that affects execution (annotations
/// only steer the offline prefetch pass, so they stay out).
void save_instruction(sim::StateSink& s, const isa::Instruction& ins) {
    s.u8(static_cast<std::uint8_t>(ins.op));
    s.u8(ins.rd);
    s.u8(ins.ra);
    s.u8(ins.rb);
    s.i64(ins.imm);
    s.u8(static_cast<std::uint8_t>(ins.block));
    s.u16(static_cast<std::uint16_t>(ins.region));
    s.flag(ins.dma.has_value());
    if (ins.dma.has_value()) {
        s.u8(ins.dma->region);
        s.u32(ins.dma->ls_offset);
        s.u32(ins.dma->bytes);
        s.u32(ins.dma->stride);
        s.u32(ins.dma->elem_bytes);
    }
}

void save_thread_span(sim::StateSink& s, const ThreadSpan& t) {
    s.u32(t.pe);
    s.u64(t.begin);
    s.u64(t.end);
    s.u32(t.code);
    s.u32(t.slot);
    s.flag(t.resumed);
}

void load_thread_span(sim::StateSource& s, ThreadSpan& t) {
    t.pe = s.u32();
    t.begin = s.u64();
    t.end = s.u64();
    t.code = s.u32();
    t.slot = s.u32();
    t.resumed = s.flag();
}

void save_dma_span(sim::StateSink& s, const dma::DmaSpan& d) {
    s.u32(d.pe);
    s.u32(d.tag);
    s.u8(static_cast<std::uint8_t>(d.op));
    s.u32(d.bytes);
    s.u64(d.begin);
    s.u64(d.end);
}

void load_dma_span(sim::StateSource& s, dma::DmaSpan& d) {
    d.pe = s.u32();
    d.tag = s.u32();
    d.op = static_cast<dma::MfcOp>(s.u8());
    d.bytes = s.u32();
    d.begin = s.u64();
    d.end = s.u64();
}

}  // namespace

void structural_config_echo(sim::StateSink& s, const MachineConfig& cfg,
                            std::uint32_t shard_count,
                            const isa::Program& prog) {
    // Structural knobs only: everything that shapes what the machine *is*
    // (and therefore the snapshot's section layout and semantics).  Observer
    // knobs — audit, log_level, profile, fast_forward, use_wheel — are
    // deliberately absent so a snapshot can be replayed with different
    // instrumentation (the time-travel use case).  Note collect_metrics /
    // collect_events / capture_spans ARE structural: they decide whether
    // the corresponding state exists at all.
    s.u16(cfg.nodes);
    s.u16(cfg.spes_per_node);
    s.u64(cfg.memory.size_bytes);
    s.u32(cfg.memory.latency);
    s.u32(cfg.memory.ports);
    s.u32(cfg.memory.bank_busy);
    s.u32(cfg.memory.max_request_bytes);
    s.u32(cfg.local_store.size_bytes);
    s.u32(cfg.local_store.latency);
    s.u32(cfg.local_store.ports);
    s.u32(cfg.local_store.max_request_bytes);
    s.u32(cfg.noc.num_buses);
    s.u32(cfg.noc.bytes_per_cycle);
    s.u32(cfg.noc.hop_latency);
    s.u32(cfg.noc.inject_queue_depth);
    s.u32(cfg.link.latency);
    s.u32(cfg.link.bytes_per_cycle);
    s.u32(cfg.link.queue_depth);
    s.u32(cfg.mfc.queue_depth);
    s.u32(cfg.mfc.command_latency);
    s.u32(cfg.mfc.line_bytes);
    s.u32(cfg.mfc.max_outstanding_lines);
    s.u32(cfg.lse.frames);
    s.u32(cfg.lse.frame_words);
    s.u32(cfg.lse.dispatch_latency);
    s.u32(cfg.lse.frame_area_base);
    s.u32(cfg.lse.staging_base);
    s.u32(cfg.lse.staging_bytes_per_frame);
    s.flag(cfg.lse.virtual_frames);
    s.u32(cfg.lse.max_virtual_frames);
    s.u32(cfg.spu.alu_latency);
    s.u32(cfg.spu.mul_latency);
    s.u32(cfg.spu.div_latency);
    s.u32(cfg.spu.branch_penalty);
    s.u32(cfg.spu.thread_start_overhead);
    s.u32(cfg.spu.dma_program_cycles);
    s.u32(cfg.spu.outbox_depth);
    s.u32(cfg.spu.max_outstanding_reads);
    s.flag(cfg.spu.non_blocking_dma);
    s.flag(cfg.spu.count_dma_idle_as_prefetch);
    s.u64(cfg.max_cycles);
    s.u64(cfg.no_progress_limit);
    s.flag(cfg.capture_spans);
    s.flag(cfg.collect_metrics);
    s.u32(cfg.metrics_sample_interval);
    s.flag(cfg.collect_events);
    // The *resolved* shard count, not the raw host_threads request:
    // host_threads == 0 resolves per host, and only the resolved count
    // changes the schedule.
    s.u32(shard_count);
    // Program digest: a snapshot must never be resumed under a different
    // program (thread state embeds instruction pointers).
    s.str(prog.name);
    s.u32(prog.entry);
    s.u64(static_cast<std::uint64_t>(prog.codes.size()));
    for (const isa::ThreadCode& tc : prog.codes) {
        s.str(tc.name);
        s.u32(tc.num_inputs);
        s.u32(tc.pl_begin);
        s.u32(tc.ex_begin);
        s.u32(tc.ps_begin);
        sim::save_seq(s, tc.code, save_instruction);
    }
}

std::uint64_t structural_fingerprint(const MachineConfig& cfg,
                                     std::uint32_t shard_count,
                                     const isa::Program& prog) {
    sim::StateSink s;
    structural_config_echo(s, cfg, shard_count, prog);
    return sim::fnv1a64(s.data().data(), s.size());
}

void Machine::config_echo(sim::StateSink& s) const {
    structural_config_echo(s, cfg_, shard_count_, prog_);
}

std::uint64_t Machine::config_fingerprint() const {
    sim::StateSink s;
    config_echo(s);
    return sim::fnv1a64(s.data().data(), s.size());
}

void Machine::save_snapshot_file(sim::Cycle cycle,
                                 const std::string& path) const {
    sim::SnapshotWriter w(config_fingerprint(), cycle);
    config_echo(w.section("config"));
    w.section("machine").u64(skipped_);
    mem_.save_state(w.section("mem"));
    for (const sim::Component* c : components_) {
        c->save_state(w.section(c->name()));
    }
    for (const noc::Link& link : links_) {
        link.save_state(w.section(link.name()));
    }
    for (std::size_t k = 0; k < channels_.size(); ++k) {
        channels_[k]->save_state(w.section("chan" + std::to_string(k)),
                                 noc::save_packet);
    }
    if (shard_count_ > 1) {
        for (std::uint32_t sh = 0; sh < shard_count_; ++sh) {
            sim::StateSink& s = w.section("shard" + std::to_string(sh));
            s.u64(shards_[sh]->cycles_ticked());
            s.u64(shards_[sh]->cycles_skipped());
            sim::StateSink& sp = w.section("spans" + std::to_string(sh));
            sim::save_seq(sp, shard_spans_[sh], save_thread_span);
            sim::save_seq(sp, shard_dma_spans_[sh], save_dma_span);
            shard_events_[sh].save_state(
                w.section("events" + std::to_string(sh)));
            shard_metrics_[sh].save_state(
                w.section("metrics" + std::to_string(sh)));
        }
    } else {
        sim::StateSink& sp = w.section("spans");
        sim::save_seq(sp, spans_, save_thread_span);
        sim::save_seq(sp, dma_spans_, save_dma_span);
        events_.save_state(w.section("events"));
        metrics_.save_state(w.section("metrics"));
    }
    w.write(path);
}

void Machine::write_snapshot(sim::Cycle cycle) {
    if (shards_.empty() && wheel_.started()) {
        // Under the wheel, sleepers lag behind on skip bookkeeping; settle
        // it so the snapshot is the exact dense-loop state at the cut.
        // Wheel entries themselves are untouched (and never serialised —
        // restore re-arms from component horizons).
        wheel_.catch_up(cycle);
    }
    const std::string path =
        checkpoint_prefix_ + ".c" + std::to_string(cycle) + ".dtasnap";
    save_snapshot_file(cycle, path);
    last_ckpt_cycle_ = cycle;
    last_ckpt_path_ = path;
    logger_.log(sim::LogLevel::kInfo, cycle, "machine",
                "checkpoint written to " + path);
}

void Machine::checkpoint(const std::string& path) {
    DTA_SIM_REQUIRE(launched_,
                    "checkpoint() needs a launched (or restored) machine");
    DTA_SIM_REQUIRE(!ran_,
                    "checkpoint() after run(); use set_checkpoints() for "
                    "mid-run snapshots");
    save_snapshot_file(restore_cycle_, path);
}

void Machine::set_checkpoints(sim::Cycle every, std::string prefix) {
    DTA_SIM_REQUIRE(every == 0 || !prefix.empty(),
                    "periodic checkpoints need a path prefix");
    checkpoint_every_ = every;
    checkpoint_prefix_ = std::move(prefix);
}

void Machine::restore(const std::string& path) {
    DTA_SIM_REQUIRE(!launched_ && !ran_,
                    "restore() must target a freshly built machine (before "
                    "launch()/run())");
    const sim::SnapshotReader reader(path);
    const std::uint64_t mine = config_fingerprint();
    if (reader.config_fingerprint() != mine) {
        DTA_SIM_ERROR("snapshot '" + path + "' (format v" +
                      std::to_string(reader.version()) +
                      ", config fingerprint " +
                      hex64(reader.config_fingerprint()) +
                      ") does not match this machine (config fingerprint " +
                      hex64(mine) +
                      "): it was taken on a different machine config or "
                      "program");
    }
    restore_cycle_ = reader.cycle();
    {
        sim::StateSource s = reader.section("machine");
        skipped_ = s.u64();
        s.finish();
    }
    {
        sim::StateSource s = reader.section("mem");
        mem_.load_state(s);
        s.finish();
    }
    for (sim::Component* c : components_) {
        sim::StateSource s = reader.section(c->name());
        c->load_state(s);
        s.finish();
    }
    for (noc::Link& link : links_) {
        sim::StateSource s = reader.section(link.name());
        link.load_state(s);
        s.finish();
    }
    for (std::size_t k = 0; k < channels_.size(); ++k) {
        sim::StateSource s = reader.section("chan" + std::to_string(k));
        channels_[k]->load_state(s, noc::load_packet);
        s.finish();
    }
    if (shard_count_ > 1) {
        for (std::uint32_t sh = 0; sh < shard_count_; ++sh) {
            sim::StateSource s =
                reader.section("shard" + std::to_string(sh));
            const sim::Cycle ticked = s.u64();
            const sim::Cycle skipped = s.u64();
            s.finish();
            shards_[sh]->restore_clock(restore_cycle_, ticked, skipped);
            sim::StateSource sp =
                reader.section("spans" + std::to_string(sh));
            sim::load_seq(sp, shard_spans_[sh], load_thread_span);
            sim::load_seq(sp, shard_dma_spans_[sh], load_dma_span);
            sp.finish();
            sim::StateSource ev =
                reader.section("events" + std::to_string(sh));
            shard_events_[sh].load_state(ev);
            ev.finish();
            sim::StateSource me =
                reader.section("metrics" + std::to_string(sh));
            shard_metrics_[sh].load_state(me);
            me.finish();
        }
    } else {
        sim::StateSource sp = reader.section("spans");
        sim::load_seq(sp, spans_, load_thread_span);
        sim::load_seq(sp, dma_spans_, load_dma_span);
        sp.finish();
        sim::StateSource ev = reader.section("events");
        events_.load_state(ev);
        ev.finish();
        sim::StateSource me = reader.section("metrics");
        metrics_.load_state(me);
        me.finish();
    }
    launched_ = true;
    logger_.log(sim::LogLevel::kInfo, restore_cycle_, "machine",
                "restored from " + path + " at cycle " +
                    std::to_string(restore_cycle_));
    if (cfg_.audit.enabled) {
        // The restored state must satisfy every machine invariant before a
        // single cycle runs; a snapshot that does not is rejected here, not
        // discovered as divergence later.
        auditor_.run(restore_cycle_);
    }
}

sim::Cycle Machine::next_cut(sim::Cycle now) const {
    sim::Cycle cut = sim::kCycleNever;
    if (checkpoint_every_ != 0) {
        cut = (now / checkpoint_every_ + 1) * checkpoint_every_;
    }
    if (stop_at_ > now) {
        cut = std::min(cut, stop_at_);
    }
    return cut;
}

RunResult Machine::stop_early(sim::Cycle cycle) {
    logger_.log(sim::LogLevel::kInfo, cycle, "machine",
                "stopped at cycle " + std::to_string(cycle) +
                    " (stop-at); machine not quiescent");
    if (shards_.empty() && wheel_.started()) {
        wheel_.catch_up(cycle);
    }
    events_.canonicalize();
    return gather(cycle);
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

namespace {

/// One link in a chained profiling timer: charge the span since the last
/// boundary (minus time already claimed by nested scopes) and advance the
/// boundary.  Chaining instead of per-segment RAII scopes leaves no
/// un-attributed gaps inside the run loop (see Shard::run_until).
inline void prof_charge(sim::ProfBuffer* pb, std::uint64_t& t,
                        std::uint32_t slot, sim::ProfPhase phase) {
    const std::uint64_t t2 = sim::prof_now_ns();
    pb->add(slot, phase, t2 - t - pb->take_orphan_child_ns());
    t = t2;
}

}  // namespace

void Machine::tick_cycle(sim::Cycle now, std::uint64_t& t) {
    sim::ProfBuffer* const pb = prof_.empty() ? nullptr : &prof_[0];
    if (pb == nullptr) {
        for (sim::Component* c : components_) {
            c->tick(now);
        }
    } else {
        for (std::size_t i = 0; i < components_.size(); ++i) {
            components_[i]->tick(now);
            prof_charge(pb, t, static_cast<std::uint32_t>(i + 1),
                        sim::ProfPhase::kTick);
        }
    }
    if (metrics_.enabled() && now % cfg_.metrics_sample_interval == 0) {
        sample_gauges(now);
        if (pb != nullptr) {
            prof_charge(pb, t, sim::ProfBuffer::kShardSlot,
                        sim::ProfPhase::kSample);
        }
    }
    if (telemetry_ != nullptr && now == telemetry_next_) {
        capture_telemetry(now);
        if (pb != nullptr) {
            prof_charge(pb, t, sim::ProfBuffer::kShardSlot,
                        sim::ProfPhase::kSample);
        }
    }
    if (audit_interval_ != 0 && now % audit_interval_ == 0) {
        auditor_.run(now);
        if (pb != nullptr) {
            prof_charge(pb, t, sim::ProfBuffer::kShardSlot,
                        sim::ProfPhase::kAudit);
        }
    }
}

void Machine::capture_telemetry(sim::Cycle now) {
    if (telemetry_ == nullptr) {
        return;
    }
    sim::TelemetryFrame f;
    f.cycle = now;
    for (const auto& pe : pes_) {
        f.pes_running += pe->spu_bound() ? 1u : 0u;
        f.threads_ready += pe->lse().ready_count();
        f.threads_waitdma += pe->lse().waitdma_count();
        f.frames_live +=
            pe->lse().live_frames() + pe->lse().virtual_frames_live();
        f.mfc_commands +=
            static_cast<std::uint32_t>(pe->mfc().commands_in_flight());
        f.dma_bytes += static_cast<std::uint64_t>(pe->mfc().lines_in_flight()) *
                       cfg_.mfc.line_bytes;
        f.instrs_retired += pe->instr_stats().total();
    }
    f.mem_queue = static_cast<std::uint32_t>(mem_.queue_depth());
    for (const auto& fab : fabrics_) {
        f.noc_pending += static_cast<std::uint32_t>(fab.pending());
    }
    f.activity_fp = fingerprint();
    telemetry_next_ = now + cfg_.telemetry.interval;
    // Host-side tail (NDJSON stream / Perfetto only; never the JSON report).
    f.host_ns = sim::prof_now_ns();
    if (!shards_.empty()) {
        for (const auto& s : shards_) {
            if (s->wheel() != nullptr && s->wheel()->started()) {
                f.wheel_armed += s->wheel()->armed();
                f.wheel_pops += s->wheel()->stats().pops;
            }
        }
    } else if (wheel_.started()) {
        f.wheel_armed = wheel_.armed();
        f.wheel_pops = wheel_.stats().pops;
    }
    telemetry_->record(f, check_quiescent());
}

void Machine::sample_gauges(sim::Cycle now) {
    std::int64_t cmds = 0;
    std::int64_t lines = 0;
    for (const auto& pe : pes_) {
        cmds += static_cast<std::int64_t>(pe->mfc().commands_in_flight());
        lines += static_cast<std::int64_t>(pe->mfc().lines_in_flight());
    }
    g_dma_cmds_->sample(now, cmds);
    g_dma_lines_->sample(now, lines);
    g_mem_queue_->sample(now, static_cast<std::int64_t>(mem_.queue_depth()));
    for (std::size_t n = 0; n < fabrics_.size(); ++n) {
        g_noc_pending_[n]->sample(
            now, static_cast<std::int64_t>(fabrics_[n].pending()));
    }
    if (!prof_.empty()) {
        // Cumulative phase totals at the gauge cadence: the host counter
        // tracks rendered next to the simulated Perfetto tracks.
        prof_[0].snapshot(now);
    }
    if (wheel_.started()) {
        wheel_.sample(now);
    }
}

bool Machine::check_quiescent() const {
    // Start at the last witness: in a busy stretch the component that was
    // not quiescent last cycle usually still is, so the sweep stops at once.
    const std::size_t n = components_.size();
    for (std::size_t k = 0, i = quiet_witness_; k < n; ++k) {
        if (!components_[i]->quiescent()) {
            quiet_witness_ = i;
            return false;
        }
        i = i + 1 == n ? 0 : i + 1;
    }
    return true;
}

std::uint64_t Machine::fingerprint() const {
    std::uint64_t fp = mem_.reads_served() + mem_.writes_served();
    for (const auto& fab : fabrics_) {
        fp += fab.stats().packets_delivered;
    }
    for (const auto& pe : pes_) {
        fp += pe->issue_slots_used() + pe->lse().stats().dispatches;
    }
    return fp;
}

std::string Machine::non_quiescent_names(sim::Cycle now) const {
    // Each stuck component is tagged with its owning shard and the epoch
    // that shard's clock is in, so deadlock dumps from a sharded run say
    // which thread was holding what (single-threaded runs are all shard 0).
    const sim::Cycle epoch_len = epoch_length();
    std::string who;
    const auto append = [&who](const sim::Component* c, std::uint32_t shard,
                               sim::Cycle epoch) {
        if (c->quiescent()) {
            return;
        }
        if (!who.empty()) {
            who += ", ";
        }
        who += c->name() + " [shard " + std::to_string(shard) + ", epoch " +
               std::to_string(epoch) + "]";
    };
    if (!shards_.empty()) {
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            for (const sim::Component* c : shards_[s]->components()) {
                append(c, static_cast<std::uint32_t>(s),
                       shards_[s]->epoch_of(epoch_len));
            }
        }
    } else {
        for (const sim::Component* c : components_) {
            append(c, 0, now / epoch_len);
        }
    }
    return who;
}

void Machine::throw_deadlock(sim::Cycle now, sim::Cycle stalled,
                             bool idle_forever) const {
    std::uint64_t parked = 0;
    for (const auto& dse : dses_) {
        parked += dse.pending();
    }
    const std::string tail =
        " (stuck: " + non_quiescent_names(now) + "; " + std::to_string(parked) +
        " FALLOCs parked at DSEs; the program's live-thread "
        "peak likely exceeds the frame supply)";
    if (idle_forever) {
        DTA_SIM_ERROR("deadlock at cycle " + std::to_string(now) +
                      ": every component is idle forever yet the machine is "
                      "not quiescent" +
                      tail);
    }
    DTA_SIM_ERROR("deadlock: no progress for " + std::to_string(stalled) +
                  " cycles" + tail);
}

void Machine::fast_forward_span(sim::Cycle from, sim::Cycle to,
                                std::uint64_t& last_fp,
                                sim::Cycle& last_progress) {
    sim::ProfBuffer* const pb = prof_.empty() ? nullptr : &prof_[0];
    const sim::ProfScope prof(pb, sim::ProfBuffer::kShardSlot,
                              sim::ProfPhase::kFastforwardScan);
    for (sim::Component* c : components_) {
        c->skip(from, to);
    }
    skipped_ += to - from;
    // Replay the gauge samples the per-cycle loop would have taken.  No
    // component state changes on a skipped cycle (that is what the horizon
    // guarantees), so every sample in the span reads the current values.
    if (metrics_.enabled()) {
        const sim::Cycle step = cfg_.metrics_sample_interval;
        for (sim::Cycle c = ((from + step - 1) / step) * step; c < to;
             c += step) {
            const sim::ProfScope ps(pb, sim::ProfBuffer::kShardSlot,
                                    sim::ProfPhase::kSample);
            sample_gauges(c);
        }
    }
    // Telemetry frames follow the same replay rule: state is frozen across
    // the span, so each missed sample cycle reads the current values.
    if (telemetry_ != nullptr) {
        while (telemetry_next_ < to) {
            capture_telemetry(telemetry_next_);
        }
    }
    // Replay the deadlock checkpoints (cycles ending in 0xfff).  The
    // fingerprint is frozen across the span for the same reason.
    const std::uint64_t fp = fingerprint();
    for (sim::Cycle c = from | 0xfff; c < to; c += 0x1000) {
        if (fp != last_fp) {
            last_fp = fp;
            last_progress = c;
        } else if (c - last_progress > cfg_.no_progress_limit) {
            throw_deadlock(c, c - last_progress, false);
        }
    }
}

RunResult Machine::run() {
    DTA_SIM_REQUIRE(launched_, "run() before launch()");
    DTA_SIM_REQUIRE(!ran_, "run() called twice");
    ran_ = true;
    if (telemetry_ != nullptr) {
        // First owed frame: the first interval multiple at or after the
        // starting cycle (cycle 0 on a fresh run, mirroring `% == 0`).
        const sim::Cycle step = cfg_.telemetry.interval;
        telemetry_next_ = ((restore_cycle_ + step - 1) / step) * step;
    }
    if (shard_count_ > 1) {
        return run_sharded();
    }
    if (use_wheel_) {
        return run_wheel();
    }
    sim::ProfBuffer* const pb = prof_.empty() ? nullptr : &prof_[0];
    const std::uint64_t wall0 = pb != nullptr ? sim::prof_now_ns() : 0;
    // Chained timing boundary: starts at the wall-clock origin so the loop
    // has no un-attributed gaps (every span between boundaries is charged
    // to exactly one phase; nested scopes subtract as orphan child time).
    std::uint64_t t = wall0;
    sim::Cycle now = restore_cycle_;
    std::uint64_t last_fp = ~0ull;
    sim::Cycle last_progress = restore_cycle_;
    std::uint64_t prev_fp = ~0ull;  ///< gate: last cycle's fingerprint
    while (now < cfg_.max_cycles) {
        // Checkpoint/stop cuts land at the top of the iteration, before the
        // tick of `now`: all accounting covers exactly [start, now), which
        // is the state a restore resumes from.
        if (checkpoint_every_ != 0 && now != restore_cycle_ &&
            now % checkpoint_every_ == 0) {
            write_snapshot(now);
        }
        if (stop_at_ != 0 && now >= stop_at_) {
            if (pb != nullptr) {
                pb->set_wall_ns(sim::prof_now_ns() - wall0);
            }
            return stop_early(now);
        }
        tick_cycle(now, t);
        if (progress_interval_ != 0) {
            report_progress(now, 0, static_cast<std::uint32_t>(pes_.size()));
        }
        const bool quiet = check_quiescent();
        if (pb != nullptr) {
            prof_charge(pb, t, sim::ProfBuffer::kShardSlot,
                        sim::ProfPhase::kQuiescence);
        }
        if (quiet) {
            logger_.log(sim::LogLevel::kInfo, now, "machine",
                        "quiescent; simulation complete");
            if (cfg_.audit.enabled) {
                auditor_.run_final(now);
            }
            events_.canonicalize();
            if (pb != nullptr) {
                pb->set_wall_ns(sim::prof_now_ns() - wall0);
            }
            return gather(now + 1);
        }
        const std::uint64_t fp = fingerprint();
        // No-progress (deadlock) detection.  A live machine issues
        // instructions, delivers packets or completes memory accesses; if
        // the activity fingerprint freezes for longer than any
        // architectural latency, the run is stuck — typically FALLOCs
        // blocking a pipeline while every free-able frame needs that
        // pipeline to finish.
        if ((now & 0xfff) == 0xfff) {
            if (fp != last_fp) {
                last_fp = fp;
                last_progress = now;
            } else if (now - last_progress > cfg_.no_progress_limit) {
                throw_deadlock(now, now - last_progress, false);
            }
        }
        sim::Cycle next = now + 1;
        // Horizons are only worth consulting when the tick just taken made
        // no observable progress: a cycle that issued an instruction,
        // delivered a packet or retired a memory access is the middle of a
        // busy stretch, and some component would report now+1 anyway.  The
        // fingerprint is a dozen counter loads — far cheaper than asking
        // every component for its horizon.
        if (fast_forward_ && fp == prev_fp) {
            sim::Cycle h = sim::kIdleForever;
            for (const sim::Component* c : components_) {
                h = std::min(h, c->next_activity(now));
                if (h <= next) {
                    break;  // can't skip anything; stop asking
                }
            }
            if (h == sim::kIdleForever) {
                // Nothing in flight anywhere can ever change state again:
                // a certain deadlock the fingerprint check would only
                // confirm after no_progress_limit cycles.
                throw_deadlock(now, 0, true);
            }
            DTA_CHECK_MSG(h > now, "component horizon not in the future");
            h = std::min<sim::Cycle>(h, cfg_.max_cycles);
            // Land exactly on checkpoint/stop cuts (result-neutral: by the
            // horizon contract a skipped cycle equals a ticked one).
            h = std::min(h, next_cut(now));
            if (h > next) {
                fast_forward_span(next, h, last_fp, last_progress);
                next = h;
            }
        }
        prev_fp = fp;
        now = next;
        // The fingerprint, the horizon scan, and the loop tail all belong
        // to the idle-detection machinery; a fast-forward span inside (its
        // own scope) was already claimed and subtracts as orphan child
        // time.
        if (pb != nullptr) {
            prof_charge(pb, t, sim::ProfBuffer::kShardSlot,
                        sim::ProfPhase::kNextActivity);
        }
    }
    DTA_SIM_ERROR("simulation exceeded max_cycles (" +
                  std::to_string(cfg_.max_cycles) + ")");
}

RunResult Machine::run_wheel() {
    sim::ProfBuffer* const pb = prof_.empty() ? nullptr : &prof_[0];
    const std::uint64_t wall0 = pb != nullptr ? sim::prof_now_ns() : 0;
    std::uint64_t t = wall0;
    wheel_.start(restore_cycle_);
    sim::Cycle now = restore_cycle_;
    std::uint64_t last_fp = ~0ull;
    sim::Cycle last_progress = restore_cycle_;
    std::uint64_t prev_fp = ~0ull;  ///< fingerprint after the previous cycle
    while (now < cfg_.max_cycles) {
        if (checkpoint_every_ != 0 && now != restore_cycle_ &&
            now % checkpoint_every_ == 0) {
            write_snapshot(now);
        }
        if (stop_at_ != 0 && now >= stop_at_) {
            if (pb != nullptr) {
                pb->set_wall_ns(sim::prof_now_ns() - wall0);
            }
            return stop_early(now);
        }
        wheel_.run_cycle(now, pb, t);
        if (metrics_.enabled() && now % cfg_.metrics_sample_interval == 0) {
            sample_gauges(now);
            if (pb != nullptr) {
                prof_charge(pb, t, sim::ProfBuffer::kShardSlot,
                            sim::ProfPhase::kSample);
            }
        }
        if (telemetry_ != nullptr && now == telemetry_next_) {
            capture_telemetry(now);
            if (pb != nullptr) {
                prof_charge(pb, t, sim::ProfBuffer::kShardSlot,
                            sim::ProfPhase::kSample);
            }
        }
        if (audit_interval_ != 0 && now % audit_interval_ == 0) {
            auditor_.run(now);
            if (pb != nullptr) {
                prof_charge(pb, t, sim::ProfBuffer::kShardSlot,
                            sim::ProfPhase::kAudit);
            }
        }
        if (progress_interval_ != 0) {
            report_progress(now, 0, static_cast<std::uint32_t>(pes_.size()));
        }
        const bool quiet = check_quiescent();
        if (pb != nullptr) {
            prof_charge(pb, t, sim::ProfBuffer::kShardSlot,
                        sim::ProfPhase::kQuiescence);
        }
        if (quiet) {
            logger_.log(sim::LogLevel::kInfo, now, "machine",
                        "quiescent; simulation complete");
            {
                // Sleepers may still lag behind: apply their deferred skip
                // bookkeeping so breakdowns cover [0, now + 1) exactly.
                const sim::ProfScope ff(pb, sim::ProfBuffer::kShardSlot,
                                        sim::ProfPhase::kFastforwardScan);
                wheel_.catch_up(now + 1);
            }
            if (cfg_.audit.enabled) {
                auditor_.run_final(now);
            }
            events_.canonicalize();
            if (pb != nullptr) {
                pb->set_wall_ns(sim::prof_now_ns() - wall0);
            }
            return gather(now + 1);
        }
        const std::uint64_t fp = fingerprint();
        if ((now & 0xfff) == 0xfff) {
            if (fp != last_fp) {
                last_fp = fp;
                last_progress = now;
            } else if (now - last_progress > cfg_.no_progress_limit) {
                throw_deadlock(now, now - last_progress, false);
            }
        }
        if (wheel_.idle()) {
            // Every horizon came back kIdleForever with the machine still
            // non-quiescent: certain deadlock.  The dense loop scans
            // horizons only once its fingerprint freezes, so it reports one
            // cycle later when the final tick still made progress — mirror
            // that for byte-identical failure text.
            throw_deadlock(fp == prev_fp ? now : now + 1, 0, true);
        }
        sim::Cycle next = wheel_.next_due();
        next = std::min<sim::Cycle>(next, cfg_.max_cycles);
        next = std::min(next, next_cut(now));
        if (next > now + 1) {
            // Inactive span [now + 1, next): no live wheel entry, so by the
            // horizon contract observable state is frozen.  Replay the side
            // effects the dense loop takes per cycle — gauge samples and
            // deadlock checkpoints — against that frozen state; component
            // skip() bookkeeping stays lazy (applied at each next visit).
            const sim::ProfScope ff(pb, sim::ProfBuffer::kShardSlot,
                                    sim::ProfPhase::kFastforwardScan);
            skipped_ += next - (now + 1);
            if (metrics_.enabled()) {
                const sim::Cycle step = cfg_.metrics_sample_interval;
                for (sim::Cycle c = ((now + 1 + step - 1) / step) * step;
                     c < next; c += step) {
                    const sim::ProfScope ps(pb, sim::ProfBuffer::kShardSlot,
                                            sim::ProfPhase::kSample);
                    sample_gauges(c);
                }
            }
            if (telemetry_ != nullptr) {
                while (telemetry_next_ < next) {
                    capture_telemetry(telemetry_next_);
                }
            }
            for (sim::Cycle c = (now + 1) | 0xfff; c < next; c += 0x1000) {
                if (fp != last_fp) {
                    last_fp = fp;
                    last_progress = c;
                } else if (c - last_progress > cfg_.no_progress_limit) {
                    throw_deadlock(c, c - last_progress, false);
                }
            }
        }
        prev_fp = fp;
        now = next;
        if (pb != nullptr) {
            prof_charge(pb, t, sim::ProfBuffer::kShardSlot,
                        sim::ProfPhase::kNextActivity);
        }
    }
    DTA_SIM_ERROR("simulation exceeded max_cycles (" +
                  std::to_string(cfg_.max_cycles) + ")");
}

void Machine::sample_shard_gauges(std::uint32_t shard, sim::Cycle now) {
    ShardGauges& g = shard_gauges_[shard];
    std::int64_t cmds = 0;
    std::int64_t lines = 0;
    const std::uint32_t pe_lo =
        static_cast<std::uint32_t>(first_node_of(shard)) * cfg_.spes_per_node;
    const std::uint32_t pe_hi =
        static_cast<std::uint32_t>(first_node_of(shard + 1)) *
        cfg_.spes_per_node;
    for (std::uint32_t id = pe_lo; id < pe_hi; ++id) {
        cmds += static_cast<std::int64_t>(pes_[id]->mfc().commands_in_flight());
        lines += static_cast<std::int64_t>(pes_[id]->mfc().lines_in_flight());
    }
    g.dma_cmds->sample(now, cmds);
    g.dma_lines->sample(now, lines);
    if (g.mem_queue != nullptr) {
        g.mem_queue->sample(now, static_cast<std::int64_t>(mem_.queue_depth()));
    }
    std::size_t i = 0;
    for (std::uint16_t n = first_node_of(shard); n < first_node_of(shard + 1);
         ++n, ++i) {
        g.noc_pending[i]->sample(
            now, static_cast<std::int64_t>(fabrics_[n].pending()));
    }
    if (!prof_.empty()) {
        prof_[shard].snapshot(now);
    }
    if (shards_[shard]->wheel() != nullptr &&
        shards_[shard]->wheel()->started()) {
        shards_[shard]->wheel()->sample(now);
    }
}

RunResult Machine::run_sharded() {
    std::vector<sim::Shard*> shards;
    shards.reserve(shards_.size());
    for (const auto& s : shards_) {
        shards.push_back(s.get());
    }
    sim::EpochRunner::Config ec;
    ec.epoch = epoch_length();
    ec.max_cycles = cfg_.max_cycles;
    ec.no_progress_limit = cfg_.no_progress_limit;
    ec.start = restore_cycle_;
    ec.stop_at = stop_at_;
    ec.checkpoint_every = checkpoint_every_;
    if (telemetry_ != nullptr) {
        // Telemetry cuts: epoch bounds land one past each sample cycle, so
        // the coordinator captures a machine-wide frame — post-tick state of
        // the sample cycle, every shard parked in the barrier — at exactly
        // the cycles the single-threaded loops sample.  Result-neutral like
        // checkpoint cuts: bound clamping only changes where barriers land.
        ec.sample_every = cfg_.telemetry.interval;
        ec.on_sample = [this](sim::Cycle cycle) { capture_telemetry(cycle); };
    }
    if (checkpoint_every_ != 0) {
        ec.on_cut = [this](sim::Cycle cut) {
            // All shard threads are parked in the barrier.  Settle every
            // shard's accounting to the cut (safe: nothing in flight drains
            // before it, and the machine was not quiescent at or before the
            // cut), then serialise the globally-consistent state.
            for (const auto& shard : shards_) {
                shard->catch_up(cut);
            }
            write_snapshot(cut);
        };
    }
    sim::EpochRunner runner(
        std::move(shards), ec,
        [this](sim::EpochRunner::Fail kind, sim::Cycle now,
               sim::Cycle stalled) {
            if (kind == sim::EpochRunner::Fail::kMaxCycles) {
                DTA_SIM_ERROR("simulation exceeded max_cycles (" +
                              std::to_string(cfg_.max_cycles) + ")");
            }
            throw_deadlock(now, stalled,
                           kind == sim::EpochRunner::Fail::kIdleForever);
        });
    const sim::Cycle cycles = runner.run();
    const bool stopped_early = stop_at_ != 0 && cycles == stop_at_;
    logger_.log(sim::LogLevel::kInfo, cycles == 0 ? 0 : cycles - 1, "machine",
                stopped_early ? "stopped by stop-at; machine not quiescent"
                              : "quiescent; simulation complete");
    for (const auto& shard : shards_) {
        skipped_ += shard->cycles_skipped();
    }
    if (cfg_.audit.enabled && !stopped_early) {
        // The worker threads have joined: a machine-wide pass (including
        // the cross-shard final checks) is safe now.  A stop-at run skips
        // it — the final checks assert quiescence, which an early stop
        // deliberately does not have.
        auditor_.run_final(cycles == 0 ? 0 : cycles - 1);
    }

    // Deterministic merge of the shard-local sinks.  Spans: the
    // single-threaded loop pushes them in (end cycle, PE index) order — a
    // span ends when its PE's tick at end-1 retires it, PEs tick in index
    // order within a cycle, and one PE closes at most one thread span (and
    // pushes DMA spans tag-ascending) per cycle — so a stable sort of the
    // concatenated per-shard vectors by that key reproduces the exact
    // single-threaded push order.
    for (const auto& v : shard_spans_) {
        spans_.insert(spans_.end(), v.begin(), v.end());
    }
    std::stable_sort(spans_.begin(), spans_.end(),
                     [](const ThreadSpan& a, const ThreadSpan& b) {
                         return a.end != b.end ? a.end < b.end : a.pe < b.pe;
                     });
    for (const auto& v : shard_dma_spans_) {
        dma_spans_.insert(dma_spans_.end(), v.begin(), v.end());
    }
    std::stable_sort(dma_spans_.begin(), dma_spans_.end(),
                     [](const dma::DmaSpan& a, const dma::DmaSpan& b) {
                         return a.end != b.end ? a.end < b.end : a.pe < b.pe;
                     });
    if (cfg_.collect_metrics) {
        metrics_.enable();
        for (const sim::MetricsRegistry& reg : shard_metrics_) {
            metrics_.merge_from(reg);
        }
    }
    // Events: concatenate the shard logs, then restore the single-threaded
    // emission order (each (cycle, ordinal) group lives on one shard, so
    // the stable sort reproduces it byte for byte).
    for (const sim::EventLog& log : shard_events_) {
        events_.append_from(log);
    }
    events_.canonicalize();
    return gather(cycles);
}

std::vector<Machine::ShardStat> Machine::shard_stats() const {
    std::vector<ShardStat> out;
    out.reserve(shards_.size());
    for (const auto& s : shards_) {
        out.push_back({s->name(), s->cycles_ticked(), s->cycles_skipped()});
    }
    return out;
}

RunResult Machine::gather(sim::Cycle cycles) const {
    RunResult r;
    r.cycles = cycles;
    r.pes.reserve(pes_.size());
    for (const auto& pe : pes_) {
        PeReport pr;
        pr.breakdown = pe->breakdown();
        pr.instrs = pe->instr_stats();
        pr.issue_slots_used = pe->issue_slots_used();
        pr.cycles_with_issue = pe->cycles_with_issue();
        pr.threads_executed = pe->threads_executed();
        pr.lse = pe->lse().stats();
        r.pes.push_back(pr);
        r.dma_commands += pe->mfc().commands_completed();
        r.dma_bytes += pe->mfc().bytes_transferred();
    }
    for (const auto& fab : fabrics_) {
        const auto& s = fab.stats();
        r.noc.packets_injected += s.packets_injected;
        r.noc.packets_delivered += s.packets_delivered;
        r.noc.bytes_transferred += s.bytes_transferred;
        r.noc.bus_busy_cycles += s.bus_busy_cycles;
        r.noc.inject_stall_events += s.inject_stall_events;
    }
    r.mem_reads = mem_.reads_served();
    r.mem_writes = mem_.writes_served();
    r.mem_bytes_read = mem_.bytes_read();
    r.mem_bytes_written = mem_.bytes_written();
    r.mem_peak_queue = mem_.peak_queue_depth();
    for (const auto& dse : dses_) {
        r.dse_requests += dse.stats().requests;
        r.dse_queued += dse.stats().queued;
        r.dse_peak_pending =
            std::max(r.dse_peak_pending, dse.stats().peak_pending);
    }
    // Per-thread-code profile, aggregated over every PE.
    r.profile.resize(prog_.codes.size());
    r.code_names.reserve(prog_.codes.size());
    for (std::size_t c = 0; c < prog_.codes.size(); ++c) {
        r.profile[c].name = prog_.codes[c].name;
        r.code_names.push_back(prog_.codes[c].name);
        for (const auto& pe : pes_) {
            r.profile[c].threads_started += pe->code_starts()[c];
            r.profile[c].dispatches += pe->code_dispatches()[c];
            r.profile[c].pipeline_cycles += pe->code_cycles()[c];
            r.profile[c].instructions += pe->code_instrs()[c];
        }
    }
    r.spans = spans_;
    r.metrics = metrics_;
    r.dma_spans = dma_spans_;
    r.events = events_;
    if (!prof_.empty()) {
        const auto names_of = [](const std::vector<sim::Component*>& comps) {
            std::vector<std::string> names;
            names.reserve(comps.size());
            for (const sim::Component* c : comps) {
                names.push_back(c->name());
            }
            return names;
        };
        if (!shards_.empty()) {
            for (std::uint32_t s = 0; s < shard_count_; ++s) {
                sim::merge_prof_buffer(r.host_profile, s, shards_[s]->name(),
                                       prof_[s],
                                       names_of(shards_[s]->components()));
            }
        } else {
            sim::merge_prof_buffer(r.host_profile, 0, "shard0", prof_[0],
                                   names_of(components_));
        }
    }
    if (use_wheel_) {
        if (!shards_.empty()) {
            for (std::uint32_t s = 0; s < shard_count_; ++s) {
                r.wheel.merge_from(shards_[s]->wheel()->stats(), s);
            }
        } else {
            r.wheel = wheel_.stats();
        }
    }
    if (telemetry_ != nullptr) {
        r.telemetry = telemetry_->result();
    }
    return r;
}

void Machine::report_progress(sim::Cycle now, std::uint32_t pe_lo,
                              std::uint32_t pe_hi) {
    if (!progress_ || progress_interval_ == 0 || now < next_progress_) {
        return;
    }
    std::uint64_t live = 0;
    for (std::uint32_t id = pe_lo; id < pe_hi; ++id) {
        live += pes_[id]->lse().live_frames() +
                pes_[id]->lse().virtual_frames_live();
    }
    Progress p;
    p.cycle = now;
    p.live_threads = live;
    if (!shards_.empty()) {
        // Shard 0's host-effort split only: its counters are the only ones
        // this thread may read mid-run.
        p.ticked = shards_[0]->cycles_ticked();
        p.skipped = shards_[0]->cycles_skipped();
    } else {
        p.ticked = now > skipped_ ? now - skipped_ : 0;
        p.skipped = skipped_;
    }
    if (telemetry_ != nullptr) {
        // Live-telemetry summary: the latest frame was written either by
        // this thread or by the epoch coordinator with every shard parked,
        // so the barrier's ordering makes this read race-free.
        const sim::TelemetryFrame& f = telemetry_->latest();
        p.instrs_retired = f.instrs_retired;
        p.sample_cycle = f.cycle;
        // Busiest component over the PEs this thread may read (shard 0's
        // range mid-run; everything in single-threaded mode): the deepest
        // combined scheduler + DMA queue.
        std::uint64_t best = 0;
        for (std::uint32_t id = pe_lo; id < pe_hi; ++id) {
            const auto& pe = *pes_[id];
            const std::uint64_t score = pe.lse().ready_count() +
                                        pe.lse().waitdma_count() +
                                        pe.mfc().commands_in_flight();
            if (score > best) {
                best = score;
                p.busiest = pe.name();
            }
        }
    }
    progress_(p);
    next_progress_ = (now / progress_interval_ + 1) * progress_interval_;
}

}  // namespace dta::core
