#include "core/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "isa/validate.hpp"
#include "sim/check.hpp"
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
    DTA_SIM_REQUIRE(cfg_.host_threads == 1,
                    "MachineConfig::host_threads must be 1 (got " +
                        std::to_string(cfg_.host_threads) +
                        "): a machine runs on one host thread; run "
                        "independent jobs in parallel instead");
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
        }
    }
    pes_.reserve(cfg_.total_pes());
    for (sim::GlobalPeId id = 0; id < cfg_.total_pes(); ++id) {
        pes_.push_back(std::make_unique<Pe>(cfg_, topo_, id, prog_, decoded_,
                                             logger_));
        if (cfg_.capture_spans) {
            pes_.back()->set_span_sink(&spans_);
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
        // Router ordinals live above the PE id range so the two never
        // collide.
        for (auto& pe : pes_) {
            pe->attach_events(&events_);
        }
        for (std::uint16_t n = 0; n < cfg_.nodes; ++n) {
            routers_[n]->attach_events(&events_, cfg_.total_pes() + n);
        }
    }

    if (cfg_.collect_metrics) {
        DTA_SIM_REQUIRE(cfg_.metrics_sample_interval > 0,
                        "metrics_sample_interval must be non-zero");
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

    if (cfg_.audit.enabled) {
        audit_interval_ = cfg_.audit.effective_interval();
        // The auditor carries every per-component check plus the final
        // quiescence checks; the run loop sweeps it at audit_interval_ and
        // run the final checks once at the end.
        register_audit_checks();
        register_final_checks();
    }

    if (cfg_.telemetry.enabled) {
        telemetry_ = std::make_unique<sim::TelemetrySampler>(cfg_.telemetry);
        telemetry_->set_stall_info([this](sim::TelemetryStall& s) {
            s.components = non_quiescent_names();
            if (!last_ckpt_path_.empty()) {
                s.replay = replay_hint_ + " --restore " + last_ckpt_path_;
            }
        });
    }

    if (cfg_.profile) {
        prof_.reset(components_.size());
    }

    wheel_.attach(components_);
    wheel_.set_prof(prof_buffer());
    attach_wakers();
}

void Machine::attach_wakers() {
    const auto index_of = [this](const sim::Component* c) {
        for (std::uint32_t i = 0; i < components_.size(); ++i) {
            if (components_[i] == c) {
                return i;
            }
        }
        DTA_CHECK_MSG(false, "wake target not on the scheduler list");
        return 0u;  // unreachable
    };
    sim::WheelScheduler& sched = wheel_;
    // Every queue a component drains wakes that component when written; the
    // scheduler's list-order rule decides whether the wake joins the
    // producer's cycle (producer index below consumer index — a per-cycle
    // loop would tick the consumer later the same cycle) or the next one.
    for (std::uint16_t n = 0; n < cfg_.nodes; ++n) {
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

void Machine::register_audit_checks() {
    sim::Auditor& a = auditor_;
    const std::uint32_t frames = cfg_.lse.frames;
    const bool vf = cfg_.lse.virtual_frames;
    for (std::uint16_t n = 0; n < cfg_.nodes; ++n) {
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

/// Comma-separated names of the components whose index \p pick selects.
template <typename Pick>
std::string names_where(const std::vector<sim::Component*>& comps,
                        Pick pick) {
    std::string who;
    for (std::uint32_t i = 0; i < comps.size(); ++i) {
        if (pick(i)) {
            who += who.empty() ? "" : ", ";
            who += comps[i]->name();
        }
    }
    return who;
}

}  // namespace

void structural_config_echo(sim::StateSink& s, const MachineConfig& cfg,
                            const isa::Program& prog) {
    // Structural knobs only: everything that shapes what the machine *is*
    // (and therefore the snapshot's section layout and semantics).  Observer
    // knobs — audit, log_level, profile, telemetry, use_wheel — are
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
                                     const isa::Program& prog) {
    sim::StateSink s;
    structural_config_echo(s, cfg, prog);
    return sim::fnv1a64(s.data().data(), s.size());
}

void Machine::config_echo(sim::StateSink& s) const {
    structural_config_echo(s, cfg_, prog_);
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
    for (std::size_t n = 0; n < links_.size(); ++n) {
        links_[n].save_state(w.section("link" + std::to_string(n)));
    }
    sim::StateSink& sp = w.section("spans");
    sim::save_seq(sp, spans_, save_thread_span);
    sim::save_seq(sp, dma_spans_, save_dma_span);
    events_.save_state(w.section("events"));
    metrics_.save_state(w.section("metrics"));
    w.write(path);
}

void Machine::write_snapshot(sim::Cycle cycle) {
    // Sleepers lag behind on skip bookkeeping; settle it so the snapshot is
    // the exact per-cycle state at the cut.  The due array itself is
    // untouched (and never serialised — restore re-arms every component).
    wheel_.catch_up(cycle);
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
    for (std::size_t n = 0; n < links_.size(); ++n) {
        sim::StateSource s = reader.section("link" + std::to_string(n));
        links_[n].load_state(s);
        s.finish();
    }
    {
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
    wheel_.catch_up(cycle);
    events_.canonicalize();
    return gather(cycle);
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

using sim::prof_charge;

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
    f.wheel_armed = wheel_.armed();
    f.wheel_pops = wheel_.stats().pops;
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
    if (cfg_.profile) {
        // Cumulative phase totals at the gauge cadence: the host counter
        // tracks rendered next to the simulated Perfetto tracks.
        prof_.snapshot(now);
    }
    wheel_.sample(now);
}

void Machine::sample_span(sim::Cycle from, sim::Cycle to) {
    sim::ProfBuffer* const pb = prof_buffer();
    if (metrics_.enabled()) {
        const sim::Cycle step = cfg_.metrics_sample_interval;
        for (sim::Cycle c = ((from + step - 1) / step) * step; c < to;
             c += step) {
            const sim::ProfScope ps(pb, sim::ProfBuffer::kLoopSlot,
                                    sim::ProfPhase::kSample);
            sample_gauges(c);
        }
    }
    if (telemetry_ != nullptr) {
        while (telemetry_next_ < to) {
            const sim::ProfScope ps(pb, sim::ProfBuffer::kLoopSlot,
                                    sim::ProfPhase::kSample);
            capture_telemetry(telemetry_next_);
        }
    }
}

bool Machine::check_quiescent() const {
    return std::all_of(components_.begin(), components_.end(),
                       [](const sim::Component* c) { return c->quiescent(); });
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

std::string Machine::non_quiescent_names() const {
    return names_where(components_, [this](std::uint32_t i) {
        return !components_[i]->quiescent();
    });
}

std::string Machine::armed_names() const {
    return names_where(components_, [this](std::uint32_t i) {
        return wheel_.due(i) != sim::kIdleForever;
    });
}

void Machine::throw_deadlock(sim::Cycle now, sim::Cycle stalled,
                             bool idle_forever) const {
    std::uint64_t parked = 0;
    for (const auto& dse : dses_) {
        parked += dse.pending();
    }
    const std::string tail =
        " (stuck: " + non_quiescent_names() + "; " + std::to_string(parked) +
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

void Machine::check_progress(sim::Cycle c, std::uint64_t fp) {
    if (fp != watch_fp_) {
        watch_fp_ = fp;
        watch_since_ = c;
    } else if (c - watch_since_ > cfg_.no_progress_limit) {
        // A quiescent machine that never ended is a simulator bug, not a
        // program that outgrew its frames: a horizon broke the end-of-run rule.
        DTA_CHECK_MSG(!check_quiescent(),
                      "quiescent machine never went idle (no progress for " +
                          std::to_string(c - watch_since_) +
                          " cycles; horizon still armed: " + armed_names() +
                          ")");
        throw_deadlock(c, c - watch_since_, false);
    }
}

void Machine::replay_span(sim::Cycle from, sim::Cycle to) {
    const sim::ProfScope prof(prof_buffer(), sim::ProfBuffer::kLoopSlot,
                              sim::ProfPhase::kFastforwardScan);
    skipped_ += to - from;
    sample_span(from, to);
    // The span's no-progress checkpoints all read the same frozen
    // fingerprint, so it is computed once.
    sim::Cycle c = from | 0xfff;
    if (c < to) {
        const std::uint64_t fp = fingerprint();
        for (; c < to; c += 0x1000) {
            check_progress(c, fp);
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
    sim::ProfBuffer* const pb = prof_buffer();
    const std::uint64_t wall0 = pb != nullptr ? sim::prof_now_ns() : 0;
    // Chained timing boundary: starts at the wall-clock origin so the loop
    // has no un-attributed gaps (every span between boundaries is charged
    // to exactly one phase; nested scopes subtract as orphan child time).
    std::uint64_t t = wall0;
    wheel_.start(restore_cycle_);
    watch_since_ = restore_cycle_;
    sim::Cycle now = restore_cycle_;
    while (now < cfg_.max_cycles) {
        // Checkpoint/stop cuts land at the top of the iteration, before the
        // visits of `now`: all accounting covers exactly [start, now), which
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
        wheel_.run_cycle(now, pb, t);
        if (!cfg_.use_wheel) {
            // The per-cycle reference policy: every component is due again
            // next cycle, so each one is ticked every cycle in list order
            // and no horizon decides a visit.  It checks, every cycle, the
            // end-of-run rule the default policy ends on (sim/component.hpp).
            const bool quiet = check_quiescent();
            DTA_CHECK_MSG(!quiet || wheel_.idle(),
                          "quiescent machine at cycle " + std::to_string(now) +
                              " with a horizon still armed: " +
                              armed_names());
            if (!quiet) {
                wheel_.arm_all(now + 1);
            }
        }
        sample_span(now, now + 1);
        if (audit_interval_ != 0 && now % audit_interval_ == 0) {
            auditor_.run(now);
            if (pb != nullptr) {
                prof_charge(pb, t, sim::ProfBuffer::kLoopSlot,
                            sim::ProfPhase::kAudit);
            }
        }
        if (progress_interval_ != 0) {
            report_progress(now);
        }
        // By the end-of-run rule a quiescent machine has nothing armed, so
        // quiescence is asked only once nothing is.
        const bool idle = wheel_.idle();
        if (idle && check_quiescent()) {
            logger_.log(sim::LogLevel::kInfo, now, "machine",
                        "quiescent; simulation complete");
            {
                // Sleepers may still lag behind: apply their deferred skip
                // bookkeeping so breakdowns cover [0, now + 1) exactly.
                const sim::ProfScope ff(pb, sim::ProfBuffer::kLoopSlot,
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
        // No-progress (deadlock) detection.  A live machine issues
        // instructions, delivers packets or completes memory accesses; if
        // the activity fingerprint freezes for longer than any
        // architectural latency, the run is stuck — typically FALLOCs
        // blocking a pipeline while every free-able frame needs that
        // pipeline to finish.
        if ((now & 0xfff) == 0xfff) {
            check_progress(now, fingerprint());
        }
        if (idle) {
            // This cycle's visits left every horizon at kIdleForever with
            // the machine still non-quiescent: nothing in flight can ever
            // change state again, a certain deadlock the no-progress check
            // would only confirm after no_progress_limit cycles.
            throw_deadlock(now, 0, true);
        }
        const sim::Cycle next =
            std::min({wheel_.next_due(), cfg_.max_cycles, next_cut(now)});
        if (next > now + 1) {
            replay_span(now + 1, next);
        }
        now = next;
        if (pb != nullptr) {
            prof_charge(pb, t, sim::ProfBuffer::kLoopSlot,
                        sim::ProfPhase::kNextActivity);
        }
    }
    DTA_SIM_ERROR("simulation exceeded max_cycles (" +
                  std::to_string(cfg_.max_cycles) + ")");
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
    if (cfg_.profile) {
        std::vector<std::string> names;
        names.reserve(components_.size());
        for (const sim::Component* c : components_) {
            names.push_back(c->name());
        }
        sim::merge_prof_buffer(r.host_profile, prof_, names);
    }
    r.wheel = wheel_.stats();
    if (telemetry_ != nullptr) {
        r.telemetry = telemetry_->result();
    }
    return r;
}

void Machine::report_progress(sim::Cycle now) {
    if (!progress_ || progress_interval_ == 0 || now < next_progress_) {
        return;
    }
    std::uint64_t live = 0;
    for (const auto& pe : pes_) {
        live += pe->lse().live_frames() + pe->lse().virtual_frames_live();
    }
    Progress p;
    p.cycle = now;
    p.live_threads = live;
    p.ticked = now > skipped_ ? now - skipped_ : 0;
    p.skipped = skipped_;
    if (telemetry_ != nullptr) {
        // Live-telemetry summary from the latest frame, plus the busiest
        // PE: the deepest combined scheduler + DMA queue.
        const sim::TelemetryFrame& f = telemetry_->latest();
        p.instrs_retired = f.instrs_retired;
        p.sample_cycle = f.cycle;
        std::uint64_t best = 0;
        for (const auto& pe_ptr : pes_) {
            const Pe& pe = *pe_ptr;
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
