#include "dma/mfc.hpp"

#include <algorithm>
#include <utility>

#include "sim/audit.hpp"
#include "sim/check.hpp"
#include "sim/snapshot.hpp"

namespace dta::dma {
namespace {

/// Internal line phases are implicit in which container a line sits in; the
/// line table only tracks lines between emission and completion.
enum class LinePhase : std::uint8_t { kGet, kPut };

void save_command(sim::StateSink& s, const MfcCommand& c) {
    s.u8(static_cast<std::uint8_t>(c.op));
    s.u32(c.tag);
    s.u64(c.mem_addr);
    s.u32(c.ls_addr);
    s.u32(c.bytes);
    s.u32(c.stride);
    s.u32(c.elem_bytes);
    s.u64(c.owner);
}

void load_command(sim::StateSource& s, MfcCommand& c) {
    c.op = static_cast<MfcOp>(s.u8());
    c.tag = s.u32();
    c.mem_addr = s.u64();
    c.ls_addr = s.u32();
    c.bytes = s.u32();
    c.stride = s.u32();
    c.elem_bytes = s.u32();
    c.owner = s.u64();
}

}  // namespace

void save_dma_span(sim::StateSink& s, const DmaSpan& d) {
    s.u32(d.pe);
    s.u32(d.tag);
    s.u8(static_cast<std::uint8_t>(d.op));
    s.u32(d.bytes);
    s.u64(d.begin);
    s.u64(d.end);
}

void load_dma_span(sim::StateSource& s, DmaSpan& d) {
    d.pe = s.u32();
    d.tag = s.u32();
    d.op = static_cast<MfcOp>(s.u8());
    d.bytes = s.u32();
    d.begin = s.u64();
    d.end = s.u64();
}

Mfc::Mfc(const MfcConfig& cfg, mem::LocalStore& ls) : cfg_(cfg), ls_(ls) {
    DTA_SIM_REQUIRE(cfg.queue_depth > 0, "MFC queue depth must be non-zero");
    DTA_SIM_REQUIRE(cfg.line_bytes > 0 &&
                        cfg.line_bytes <= ls.config().max_request_bytes,
                    "MFC line size incompatible with local store");
    DTA_SIM_REQUIRE(cfg.max_outstanding_lines > 0,
                    "MFC needs at least one outstanding line");
}

sim::Cycle Mfc::next_activity(sim::Cycle now) const {
    // Outputs waiting for the owning PE to drain them: retry next cycle.
    if (!completions_.empty() || !ready_lines_.empty()) {
        return now + 1;
    }
    if (decoding_) {
        return decode_done_at_ > now ? decode_done_at_ : now + 1;
    }
    if (!queue_.empty()) {
        return now + 1;  // start_decode would run on the next tick
    }
    // Lines in flight (line_table_) and fully-emitted active commands wait
    // on external data/acks; the carrier's horizon bounds the jump.
    return sim::kIdleForever;
}

std::uint32_t Mfc::count_lines(const MfcCommand& cmd,
                               std::uint32_t line_bytes) {
    if (cmd.stride != 0) {
        return cmd.bytes / cmd.elem_bytes;
    }
    return (cmd.bytes + line_bytes - 1) / line_bytes;
}

bool Mfc::try_enqueue(MfcCommand cmd) {
    DTA_SIM_REQUIRE(cmd.bytes > 0, "MFC command transfers zero bytes");
    if (cmd.stride != 0) {
        DTA_SIM_REQUIRE(cmd.elem_bytes > 0 && cmd.bytes % cmd.elem_bytes == 0,
                        "strided MFC command with inconsistent element size");
        DTA_SIM_REQUIRE(cmd.elem_bytes <= cfg_.line_bytes,
                        "strided MFC element larger than one line");
        DTA_SIM_REQUIRE(cmd.elem_bytes <= cmd.stride,
                        "strided MFC elements overlap");
    }
    // The staged data is packed contiguously in the LS (gather semantics).
    DTA_SIM_REQUIRE(static_cast<std::uint64_t>(cmd.ls_addr) + cmd.bytes <=
                        ls_.config().size_bytes,
                    "MFC command overflows the local store");
    if (!can_enqueue()) {
        ++rejections_;
        return false;
    }
    queue_.push_back(Queued{cmd, now_});
    return true;
}

std::size_t Mfc::commands_in_flight() const {
    std::size_t n = queue_.size() + (decoding_ ? 1 : 0);
    for (const auto& ac : active_) {
        if (ac.lines_total != 0 && !ac.done()) {
            ++n;
        }
    }
    return n;
}

void Mfc::attach_metrics(sim::MetricsRegistry& reg) {
    tag_latency_ = reg.histogram("dma.tag_latency");
    commands_ctr_ = reg.counter("dma.commands");
    bytes_ctr_ = reg.counter("dma.bytes");
}

void Mfc::finish_if_done(std::size_t active_idx, sim::Cycle now) {
    ActiveCommand& ac = active_[active_idx];
    if (!ac.done()) {
        return;
    }
    completions_.push_back(MfcCompletion{ac.cmd.tag, ac.cmd.owner});
    ++commands_completed_;
    if (tag_latency_ != nullptr) {
        tag_latency_->record(now - ac.enqueued_at);
    }
    if (commands_ctr_ != nullptr) {
        commands_ctr_->add();
    }
    if (bytes_ctr_ != nullptr) {
        bytes_ctr_->add(ac.cmd.bytes);
    }
    if (span_sink_ != nullptr) {
        span_sink_->push_back(DmaSpan{span_pe_, ac.cmd.tag, ac.cmd.op,
                                      ac.cmd.bytes, ac.enqueued_at, now + 1});
    }
    ac.lines_total = 0;  // mark slot reusable
    free_slots_.push_back(active_idx);
}

void Mfc::start_decode(sim::Cycle now) {
    if (decoding_ || queue_.empty()) {
        return;
    }
    const Queued q = queue_.take_front();
    decode_cmd_ = q.cmd;
    decode_cmd_enq_at_ = q.enqueued_at;
    decoding_ = true;
    decode_done_at_ = now + cfg_.command_latency;
}

void Mfc::emit_lines() {
    // Walk active commands in slot order; emission order within a command
    // is sequential.  The walk stops once the outstanding-line limit is
    // reached or every command with lines left to emit has been visited.
    std::uint32_t unvisited = emitting_;
    for (std::size_t idx = 0; unvisited > 0 && idx < active_.size() &&
                              lines_in_flight_ < cfg_.max_outstanding_lines;
         ++idx) {
        ActiveCommand& ac = active_[idx];
        if (ac.lines_total == 0 || ac.lines_emitted == ac.lines_total) {
            continue;
        }
        --unvisited;
        while (ac.lines_emitted < ac.lines_total &&
               lines_in_flight_ < cfg_.max_outstanding_lines) {
            const std::uint32_t i = ac.lines_emitted++;
            ++lines_in_flight_;
            MfcLineRequest line;
            line.line_id = next_line_id_++;
            line.op = ac.cmd.op;
            LineInfo info;
            info.active_idx = idx;
            if (ac.cmd.stride != 0) {
                line.mem_addr = ac.cmd.mem_addr +
                                static_cast<sim::MemAddr>(i) * ac.cmd.stride;
                line.bytes = ac.cmd.elem_bytes;
                info.ls_addr = ac.cmd.ls_addr + i * ac.cmd.elem_bytes;
            } else {
                const std::uint32_t off = i * cfg_.line_bytes;
                line.mem_addr = ac.cmd.mem_addr + off;
                line.bytes = std::min(cfg_.line_bytes, ac.cmd.bytes - off);
                info.ls_addr = ac.cmd.ls_addr + off;
            }
            info.bytes = line.bytes;
            line_table_.emplace_back(line.line_id, info);
            if (ac.cmd.op == MfcOp::kGet) {
                ready_lines_.push_back(std::move(line));
            } else {
                // PUT: fetch the payload from the LS first.
                mem::LsRequest rq;
                rq.id = line.line_id;
                rq.is_write = false;
                rq.addr = info.ls_addr;
                rq.size = line.bytes;
                rq.meta = line.line_id;
                ls_.enqueue(mem::LsClient::kMfc, std::move(rq));
            }
        }
        if (ac.lines_emitted == ac.lines_total) {
            --emitting_;
        }
    }
}

void Mfc::advance(sim::Cycle now) {
    // 1. Drain LS responses belonging to the MFC.
    mem::LsResponse resp;
    while (ls_.pop_response(mem::LsClient::kMfc, resp)) {
        const auto it = std::find_if(
            line_table_.begin(), line_table_.end(),
            [&](const auto& e) { return e.first == resp.meta; });
        DTA_CHECK_MSG(it != line_table_.end(), "MFC got LS response for unknown line");
        const LineInfo info = it->second;
        ActiveCommand& ac = active_[info.active_idx];
        if (resp.is_write) {
            // GET line landed in the LS: the line is finished.
            line_table_.erase(it);
            DTA_CHECK(lines_in_flight_ > 0);
            --lines_in_flight_;
            ++ac.lines_finished;
            bytes_ += info.bytes;
            finish_if_done(info.active_idx, now);
        } else {
            // PUT line payload read from LS: ready to ship to memory.
            MfcLineRequest line;
            line.line_id = resp.meta;
            line.op = MfcOp::kPut;
            const std::uint32_t i_bytes = info.bytes;
            // Recover the memory address from the command layout.
            const MfcCommand& cmd = ac.cmd;
            const std::uint32_t ls_delta = info.ls_addr - cmd.ls_addr;
            if (cmd.stride != 0) {
                const std::uint32_t idx = ls_delta / cmd.elem_bytes;
                line.mem_addr =
                    cmd.mem_addr + static_cast<sim::MemAddr>(idx) * cmd.stride;
            } else {
                line.mem_addr = cmd.mem_addr + ls_delta;
            }
            line.bytes = i_bytes;
            line.data.assign(resp.data.begin(), resp.data.end());
            ready_lines_.push_back(std::move(line));
            // A PUT line is not finished here: it completes only when
            // memory acknowledges it (ack_put_line), which is where the
            // command-completion check runs for PUTs.
        }
    }

    // 2. Finish decoding the current command.
    if (decoding_ && now >= decode_done_at_) {
        decoding_ = false;
        ActiveCommand ac;
        ac.cmd = decode_cmd_;
        ac.enqueued_at = decode_cmd_enq_at_;
        ac.lines_total = count_lines(decode_cmd_, cfg_.line_bytes);
        DTA_CHECK(ac.lines_total > 0);
        ++emitting_;
        if (!free_slots_.empty()) {
            const std::size_t slot = free_slots_.take_front();
            active_[slot] = std::move(ac);
        } else {
            active_.push_back(std::move(ac));
        }
    }

    // 3. Begin decoding the next queued command.
    start_decode(now);

    // 4. Emit line requests up to the outstanding limit.
    emit_lines();
}

bool Mfc::pop_line_request(MfcLineRequest& out) {
    if (ready_lines_.empty()) {
        return false;
    }
    out = ready_lines_.take_front();
    return true;
}

void Mfc::deliver_line_data(std::uint64_t line_id,
                            std::span<const std::uint8_t> data) {
    const auto it = std::find_if(
        line_table_.begin(), line_table_.end(),
        [&](const auto& e) { return e.first == line_id; });
    DTA_CHECK_MSG(it != line_table_.end(), "data delivered for unknown DMA line");
    const LineInfo& info = it->second;
    DTA_SIM_REQUIRE(data.size() == info.bytes, "DMA line data size mismatch");
    mem::LsRequest rq;
    rq.id = line_id;
    rq.is_write = true;
    rq.addr = info.ls_addr;
    rq.size = info.bytes;
    rq.data.assign(data.begin(), data.end());
    rq.meta = line_id;
    ls_.enqueue(mem::LsClient::kMfc, std::move(rq));
}

void Mfc::ack_put_line(std::uint64_t line_id) {
    const auto it = std::find_if(
        line_table_.begin(), line_table_.end(),
        [&](const auto& e) { return e.first == line_id; });
    DTA_CHECK_MSG(it != line_table_.end(), "ack for unknown DMA PUT line");
    const LineInfo info = it->second;
    line_table_.erase(it);
    DTA_CHECK(lines_in_flight_ > 0);
    --lines_in_flight_;
    ActiveCommand& ac = active_[info.active_idx];
    ++ac.lines_finished;
    bytes_ += info.bytes;
    finish_if_done(info.active_idx, now_);
}

bool Mfc::pop_completion(MfcCompletion& out) {
    if (completions_.empty()) {
        return false;
    }
    out = completions_.take_front();
    return true;
}

void Mfc::audit(const sim::AuditCtx& ctx) const {
    if (queue_.size() > cfg_.queue_depth) {
        ctx.fail("queue-accounting",
                 "command queue holds " + std::to_string(queue_.size()) +
                     " commands, over the depth of " +
                     std::to_string(cfg_.queue_depth));
    }
    if (lines_in_flight_ != line_table_.size()) {
        ctx.fail("line-accounting",
                 "lines_in_flight says " + std::to_string(lines_in_flight_) +
                     " but the line table holds " +
                     std::to_string(line_table_.size()) + " lines");
    }
    if (lines_in_flight_ > cfg_.max_outstanding_lines) {
        ctx.fail("line-accounting",
                 std::to_string(lines_in_flight_) +
                     " lines in flight, over the limit of " +
                     std::to_string(cfg_.max_outstanding_lines));
    }
    // Per-command line ledger: the in-flight lines of slot i are exactly
    // lines_emitted - lines_finished, and the counters never run backwards
    // or past the total.
    std::vector<std::uint32_t> table_lines(active_.size(), 0);
    for (const auto& [line_id, info] : line_table_) {
        if (info.active_idx >= active_.size()) {
            ctx.fail("line-accounting",
                     "line " + std::to_string(line_id) +
                         " references unknown command slot " +
                         std::to_string(info.active_idx));
        }
        if (active_[info.active_idx].lines_total == 0) {
            ctx.fail("tag-accounting",
                     "line " + std::to_string(line_id) +
                         " belongs to an already-completed command slot "
                         "(tag reuse hazard)");
        }
        if (static_cast<std::uint64_t>(info.ls_addr) + info.bytes >
            ls_.config().size_bytes) {
            ctx.fail("ls-range", "in-flight line " + std::to_string(line_id) +
                                     " targets LS bytes past the local store");
        }
        ++table_lines[info.active_idx];
    }
    std::uint32_t emitting = 0;
    for (std::size_t idx = 0; idx < active_.size(); ++idx) {
        const ActiveCommand& ac = active_[idx];
        if (ac.lines_total == 0) {
            continue;  // free slot
        }
        if (ac.lines_emitted < ac.lines_total) {
            ++emitting;
        }
        if (ac.lines_emitted > ac.lines_total ||
            ac.lines_finished > ac.lines_emitted) {
            ctx.fail("line-accounting",
                     "command slot " + std::to_string(idx) +
                         " ledger out of order: emitted " +
                         std::to_string(ac.lines_emitted) + ", finished " +
                         std::to_string(ac.lines_finished) + ", total " +
                         std::to_string(ac.lines_total));
        }
        if (table_lines[idx] != ac.lines_emitted - ac.lines_finished) {
            ctx.fail("line-accounting",
                     "command slot " + std::to_string(idx) + " has " +
                         std::to_string(table_lines[idx]) +
                         " lines in the table but its ledger says " +
                         std::to_string(ac.lines_emitted - ac.lines_finished));
        }
    }
    if (emitting != emitting_) {
        ctx.fail("line-accounting",
                 "emit counter says " + std::to_string(emitting_) +
                     " commands have lines left to emit but the command "
                     "ledger holds " +
                     std::to_string(emitting));
    }
    // Free-slot list: exactly the completed slots, each once.
    std::size_t completed_slots = 0;
    for (const ActiveCommand& ac : active_) {
        completed_slots += ac.lines_total == 0 ? 1 : 0;
    }
    if (completed_slots != free_slots_.size()) {
        ctx.fail("tag-accounting",
                 "free-slot list holds " + std::to_string(free_slots_.size()) +
                     " entries but " + std::to_string(completed_slots) +
                     " command slots are free");
    }
    std::vector<bool> seen(active_.size(), false);
    for (const std::size_t idx : free_slots_) {
        if (idx >= active_.size()) {
            ctx.fail("tag-accounting", "free-slot list holds out-of-range "
                                       "slot " + std::to_string(idx));
        }
        if (active_[idx].lines_total != 0) {
            ctx.fail("tag-accounting",
                     "slot " + std::to_string(idx) +
                         " sits in the free list while its command is "
                         "still transferring");
        }
        if (seen[idx]) {
            ctx.fail("tag-accounting", "slot " + std::to_string(idx) +
                                           " appears twice in the free list");
        }
        seen[idx] = true;
    }
}

void Mfc::save_state(sim::StateSink& s) const {
    sim::save_seq(s, queue_, [](sim::StateSink& k, const Queued& q) {
        save_command(k, q.cmd);
        k.u64(q.enqueued_at);
    });
    s.flag(decoding_);
    s.u64(decode_done_at_);
    save_command(s, decode_cmd_);
    s.u64(decode_cmd_enq_at_);
    sim::save_seq(s, active_, [](sim::StateSink& k, const ActiveCommand& ac) {
        save_command(k, ac.cmd);
        k.u64(ac.enqueued_at);
        k.u32(ac.lines_total);
        k.u32(ac.lines_emitted);
        k.u32(ac.lines_finished);
    });
    sim::save_seq(s, free_slots_,
                  [](sim::StateSink& k, std::size_t idx) { k.u64(idx); });
    sim::save_seq(s, ready_lines_,
                  [](sim::StateSink& k, const MfcLineRequest& ln) {
                      k.u64(ln.line_id);
                      k.u8(static_cast<std::uint8_t>(ln.op));
                      k.u64(ln.mem_addr);
                      k.u32(ln.bytes);
                      k.u64(ln.data.size());
                      k.blob(ln.data.data(), ln.data.size());
                  });
    s.u64(next_line_id_);
    sim::save_seq(s, line_table_, [](sim::StateSink& k, const auto& e) {
        k.u64(e.first);
        k.u64(e.second.active_idx);
        k.u32(e.second.ls_addr);
        k.u32(e.second.bytes);
    });
    s.u32(lines_in_flight_);
    sim::save_seq(s, completions_,
                  [](sim::StateSink& k, const MfcCompletion& c) {
                      k.u32(c.tag);
                      k.u64(c.owner);
                  });
    s.u64(commands_completed_);
    s.u64(bytes_);
    s.u64(rejections_);
    s.u64(now_);
}

void Mfc::load_state(sim::StateSource& s) {
    sim::load_seq(s, queue_, [](sim::StateSource& k, Queued& q) {
        load_command(k, q.cmd);
        q.enqueued_at = k.u64();
    });
    decoding_ = s.flag();
    decode_done_at_ = s.u64();
    load_command(s, decode_cmd_);
    decode_cmd_enq_at_ = s.u64();
    sim::load_seq(s, active_, [](sim::StateSource& k, ActiveCommand& ac) {
        load_command(k, ac.cmd);
        ac.enqueued_at = k.u64();
        ac.lines_total = k.u32();
        ac.lines_emitted = k.u32();
        ac.lines_finished = k.u32();
    });
    emitting_ = 0;
    for (const ActiveCommand& ac : active_) {
        if (ac.lines_total != 0 && ac.lines_emitted < ac.lines_total) {
            ++emitting_;
        }
    }
    sim::load_seq(s, free_slots_,
                  [](sim::StateSource& k, std::size_t& idx) { idx = k.u64(); });
    sim::load_seq(s, ready_lines_,
                  [](sim::StateSource& k, MfcLineRequest& ln) {
                      ln.line_id = k.u64();
                      ln.op = static_cast<MfcOp>(k.u8());
                      ln.mem_addr = k.u64();
                      ln.bytes = k.u32();
                      ln.data.resize(k.u64());
                      k.blob(ln.data.data(), ln.data.size());
                  });
    next_line_id_ = s.u64();
    sim::load_seq(s, line_table_, [](sim::StateSource& k, auto& e) {
        e.first = k.u64();
        e.second.active_idx = k.u64();
        e.second.ls_addr = k.u32();
        e.second.bytes = k.u32();
    });
    lines_in_flight_ = s.u32();
    sim::load_seq(s, completions_,
                  [](sim::StateSource& k, MfcCompletion& c) {
                      c.tag = k.u32();
                      c.owner = k.u64();
                  });
    commands_completed_ = s.u64();
    bytes_ = s.u64();
    rejections_ = s.u64();
    now_ = s.u64();
}

bool Mfc::quiescent() const {
    if (!queue_.empty() || decoding_ || !ready_lines_.empty() ||
        !line_table_.empty() || !completions_.empty()) {
        return false;
    }
    for (const auto& ac : active_) {
        if (ac.lines_total != 0 && !ac.done()) {
            return false;
        }
    }
    return true;
}

}  // namespace dta::dma
