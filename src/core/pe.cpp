#include "core/pe.hpp"

#include <utility>

#include "core/wire.hpp"
#include "isa/alu.hpp"
#include "sim/check.hpp"

namespace dta::core {

using isa::Instruction;
using isa::IssuePort;
using isa::Opcode;

Pe::Pe(const MachineConfig& cfg, const sched::Topology& topo,
       sim::GlobalPeId self, const isa::Program& prog,
       const isa::DecodedProgram& decoded, const sim::Logger& log)
    : cfg_(cfg.spu),
      lse_cfg_(cfg.lse),
      topo_(topo),
      layout_{cfg.spes_per_node, cfg.nodes > 1},
      self_(self),
      prog_(prog),
      decoded_(decoded),
      log_(log),
      ls_(cfg.local_store),
      lse_(cfg.lse, topo, self, ls_),
      mfc_(cfg.mfc, ls_) {
    reg_ready_.fill(0);
    reg_src_.fill(RegSrc::kNone);
    code_cycles_.assign(prog.codes.size(), 0);
    code_instrs_.assign(prog.codes.size(), 0);
    code_starts_.assign(prog.codes.size(), 0);
    code_dispatches_.assign(prog.codes.size(), 0);
    set_name("pe" + std::to_string(self));
}

// ---------------------------------------------------------------------------
// Packet plumbing
// ---------------------------------------------------------------------------

void Pe::deliver(noc::Packet pkt) { inbox_.push(std::move(pkt)); }

bool Pe::pop_outgoing(noc::Packet& out) { return outgoing_.pop(out); }

void Pe::push_packet(noc::Packet pkt) { outgoing_.push(std::move(pkt)); }

void Pe::send_sched_msg(const sched::SchedMsg& msg) {
    const std::uint16_t own_node = topo_.node_of(self_);
    const std::uint16_t own_pe = topo_.local_pe_of(self_);
    // Self-addressed scheduler messages (e.g. a FALLOC granted to the
    // requesting PE itself) never touch the fabric.
    if (!msg.dst_is_dse && msg.dst_node == own_node && msg.dst_pe == own_pe) {
        switch (msg.kind) {
            case sched::MsgKind::kFallocResp:
                lse_.on_falloc_resp(sim::FrameHandle::unpack(msg.a),
                                    sched::FallocCtx::unpack(msg.c));
                return;
            case sched::MsgKind::kFallocFwd:
                lse_.on_falloc_fwd(sched::carried_low16(msg.a),
                                   static_cast<std::uint32_t>(msg.b),
                                   sched::FallocCtx::unpack(msg.c),
                                   sched::carried_uid(msg.a));
                return;
            default:
                DTA_CHECK_MSG(false, "unexpected self-addressed message");
        }
    }
    noc::Packet pkt;
    pkt.kind = static_cast<std::uint16_t>(msg.kind);
    pkt.dst_node = msg.dst_node;
    pkt.dst_final = msg.dst_is_dse ? layout_.dse_ep()
                                   : layout_.spe_ep(msg.dst_pe);
    pkt.size_bytes = sched::kCtrlMsgBytes;
    pkt.a = msg.a;
    pkt.b = msg.b;
    pkt.c = msg.c;
    push_packet(std::move(pkt));
}

void Pe::pump_outgoing_producers() {
    while (outgoing_.size() < kOutgoingPullCap) {
        sched::SchedMsg msg;
        if (lse_.pop_outgoing(msg)) {
            send_sched_msg(msg);
            continue;
        }
        dma::MfcLineRequest line;
        if (mfc_.pop_line_request(line)) {
            noc::Packet pkt;
            pkt.dst_node = kMemoryNode;
            pkt.dst_final = layout_.mem_ep();
            pkt.a = line.mem_addr;
            pkt.b = line.line_id;
            pkt.c = DmaWireCtx{topo_.node_of(self_),
                               static_cast<std::uint16_t>(layout_.spe_ep(
                                   topo_.local_pe_of(self_))),
                               line.bytes}
                        .pack();
            if (line.op == dma::MfcOp::kGet) {
                pkt.kind = static_cast<std::uint16_t>(
                    sched::MsgKind::kDmaLineReq);
                pkt.size_bytes = sched::kCtrlMsgBytes;
            } else {
                pkt.kind = static_cast<std::uint16_t>(
                    sched::MsgKind::kDmaPutReq);
                pkt.size_bytes = sched::kCtrlMsgBytes + line.bytes;
                pkt.data = std::move(line.data);
            }
            push_packet(std::move(pkt));
            continue;
        }
        break;
    }
}

// ---------------------------------------------------------------------------
// Per-cycle phases
// ---------------------------------------------------------------------------

void Pe::tick_local_store(sim::Cycle now) { ls_.tick(now); }

void Pe::tick_units(sim::Cycle now) {
    // 1. Decode fabric deliveries.
    noc::Packet pkt;
    while (inbox_.pop(pkt)) {
        switch (static_cast<sched::MsgKind>(pkt.kind)) {
            case sched::MsgKind::kFallocFwd:
                lse_.on_falloc_fwd(sched::carried_low16(pkt.a),
                                   static_cast<std::uint32_t>(pkt.b),
                                   sched::FallocCtx::unpack(pkt.c),
                                   sched::carried_uid(pkt.a));
                break;
            case sched::MsgKind::kFallocResp:
                lse_.on_falloc_resp(sim::FrameHandle::unpack(pkt.a),
                                    sched::FallocCtx::unpack(pkt.c));
                break;
            case sched::MsgKind::kRemoteStore:
                lse_.on_remote_store(sim::FrameHandle::unpack(pkt.a),
                                     sched::carried_low16(pkt.c), pkt.b,
                                     sched::carried_uid(pkt.c));
                break;
            case sched::MsgKind::kMemReadResp:
                apply_read_response(static_cast<std::uint8_t>(pkt.c), pkt.b,
                                    now);
                break;
            case sched::MsgKind::kDmaLineResp:
                mfc_.deliver_line_data(pkt.a, pkt.data);
                break;
            case sched::MsgKind::kDmaPutAck:
                mfc_.ack_put_line(pkt.a);
                break;
            default:
                DTA_CHECK_MSG(false, "PE received unexpected packet kind " +
                                         std::to_string(pkt.kind));
        }
    }

    // 2. Advance the MFC and deliver its completions to the LSE.
    mfc_.tick(now);
    dma::MfcCompletion comp;
    while (mfc_.pop_completion(comp)) {
        const auto owner = static_cast<std::uint32_t>(comp.owner);
        if (events_ != nullptr) {
            // Emitted before dma_completed so a same-cycle kReady resume
            // sorts after its cause.
            emit_event(sim::EventKind::kDmaComplete, now, lse_.uid_of(owner),
                       0, 0, static_cast<std::uint8_t>(comp.tag));
        }
        lse_.dma_completed(owner);
    }

    // 3. LSE: frame-write completions decrement SCs.
    lse_.tick(now);

    // 4. SPU-side local-store completions (frame LOAD / LSLOAD data).
    mem::LsResponse resp;
    while (ls_.pop_response(mem::LsClient::kSpu, resp)) {
        if (resp.is_write) {
            continue;  // posted LSSTORE; nothing to apply
        }
        const auto rd = static_cast<std::uint8_t>(resp.meta & 0xff);
        const bool wide = (resp.meta & 0x100) != 0;
        DTA_CHECK_MSG(bound_ && outstanding_lsloads_ > 0,
                      "LS data returned with no load outstanding");
        --outstanding_lsloads_;
        const std::uint64_t value = decode_le(resp.data, wide ? 8 : 4);
        if (rd != 0) {
            regs_[rd] = value;
            reg_ready_[rd] = now;
            reg_src_[rd] = RegSrc::kNone;
        }
    }

    // 5. Completed FALLOCs land in their destination register.
    sched::FallocDone fd;
    while (lse_.pop_falloc_response(fd)) {
        DTA_CHECK_MSG(bound_ && outstanding_fallocs_ > 0,
                      "FALLOC response with none outstanding");
        --outstanding_fallocs_;
        if (fd.rd != 0) {
            regs_[fd.rd] = fd.handle.pack();
            reg_ready_[fd.rd] = now;
            reg_src_[fd.rd] = RegSrc::kNone;
        }
    }

    // 6. Move producer traffic into the outgoing queue.
    pump_outgoing_producers();
}

void Pe::apply_read_response(std::uint8_t rd, std::uint64_t value,
                             sim::Cycle now) {
    DTA_CHECK_MSG(bound_ && outstanding_reads_ > 0,
                  "memory READ response with none outstanding");
    --outstanding_reads_;
    if (rd != 0) {
        regs_[rd] = value;
        reg_ready_[rd] = now;
        reg_src_[rd] = RegSrc::kNone;
    }
}

// ---------------------------------------------------------------------------
// Dispatch / bind
// ---------------------------------------------------------------------------

void Pe::handle_dispatch(sim::Cycle now) {
    if (!lse_.dispatch_requested()) {
        lse_.request_dispatch(now);
    }
    sched::Dispatch d;
    if (lse_.pop_dispatch(now, d)) {
        bind_thread(d, now);
        breakdown_.charge(CycleBucket::kLseStall);
        return;
    }
    if (lse_.ready_count() > 0) {
        // A thread is ready; we are inside the SPU<->LSE handshake.
        breakdown_.charge(CycleBucket::kLseStall);
    } else if (lse_.waitdma_count() > 0 && cfg_.count_dma_idle_as_prefetch) {
        // Only suspended prefetching threads exist: this idleness is the
        // unoverlapped part of the prefetch cost.
        breakdown_.charge(CycleBucket::kPrefetch);
    } else {
        breakdown_.charge(CycleBucket::kIdle);
    }
}

void Pe::bind_thread(const sched::Dispatch& d, sim::Cycle now) {
    DTA_CHECK(!bound_);
    DTA_CHECK(outstanding_reads_ == 0 && outstanding_lsloads_ == 0 &&
              outstanding_fallocs_ == 0);
    bound_ = true;
    slot_ = d.slot;
    code_id_ = d.code;
    code_ = &prog_.at(d.code);
    facts_ = decoded_[d.code].data();
    ip_ = d.resume_ip;
    freed_ = false;
    if (d.has_snapshot) {
        regs_ = d.snapshot.regs;
        regions_ = d.snapshot.regions;
    } else {
        regs_.fill(0);
        regions_.fill(sched::RegionEntry{});
        ++threads_executed_;
        ++code_starts_[code_id_];
    }
    ++code_dispatches_[code_id_];
    if (events_ != nullptr) {
        // Cache the uid for the whole bound stretch: after FFREE the LSE
        // may release the slot and re-materialize a waiting virtual frame
        // into it while this thread is still executing its PS block, so a
        // later uid_of(slot_) lookup would name the new occupant.
        cur_uid_ = lse_.uid_of(slot_);
        emit_event(sim::EventKind::kDispatch, now, cur_uid_, 0,
                   sim::pack_grant(code_id_, false) |
                       (static_cast<std::uint64_t>(slot_) << 40),
                   d.has_snapshot ? 1 : 0);
    }
    phase_block_ = -1;
    if (spans_ != nullptr) {
        open_span_.pe = self_;
        open_span_.begin = now;
        open_span_.code = code_id_;
        open_span_.slot = slot_;
        open_span_.resumed = d.has_snapshot;
    }
    reg_ready_.fill(0);
    reg_src_.fill(RegSrc::kNone);
    busy_until_ = now + cfg_.thread_start_overhead;
    busy_reason_ = BusyReason::kThreadStart;
    lse_.thread_running(slot_);
    if (log_.enabled(sim::LogLevel::kDebug)) {
        log_.log(sim::LogLevel::kDebug, now, "pe" + std::to_string(self_),
                 "bind thread '" + code_->name + "' slot " +
                     std::to_string(slot_) + " ip " + std::to_string(ip_));
    }
}

void Pe::unbind(sim::Cycle now) {
    if (spans_ != nullptr) {
        open_span_.end = now + 1;  // the unbinding cycle still belonged to it
        spans_->push_back(open_span_);
    }
    bound_ = false;
    code_ = nullptr;
    facts_ = nullptr;
    busy_until_ = 0;
    busy_reason_ = BusyReason::kNone;
}

// ---------------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------------

CycleBucket Pe::stall_bucket(RegSrc src) const {
    switch (src) {
        case RegSrc::kMem: return CycleBucket::kMemStall;
        case RegSrc::kLs: return CycleBucket::kLsStall;
        case RegSrc::kLse: return CycleBucket::kLseStall;
        case RegSrc::kAlu:
        case RegSrc::kMul: return CycleBucket::kPipeStall;
        case RegSrc::kNone: break;
    }
    return CycleBucket::kPipeStall;
}

std::optional<CycleBucket> Pe::operand_block(const isa::IssueFacts& f,
                                             sim::Cycle now) const {
    for (std::uint8_t k = 0; k < f.num_regs; ++k) {
        const std::uint8_t r = f.regs[k];
        if (reg_ready_[r] > now) {
            return stall_bucket(reg_src_[r]);
        }
    }
    return std::nullopt;
}

Pe::IssueCheck Pe::can_issue(std::uint32_t ip, sim::Cycle now) const {
    const isa::IssueFacts& f = facts_[ip];
    const auto as_pf = [&](CycleBucket b) {
        return f.in_pf ? CycleBucket::kPrefetch : b;
    };
    if (auto b = operand_block(f, now)) {
        return {false, as_pf(*b)};
    }
    switch (f.op) {
        case Opcode::kRead:
            if (outstanding_reads_ >= cfg_.max_outstanding_reads) {
                return {false, as_pf(CycleBucket::kMemStall)};
            }
            [[fallthrough]];
        case Opcode::kWrite:
            if (outgoing_.size() >= cfg_.outbox_depth) {
                return {false, as_pf(CycleBucket::kMemStall)};
            }
            break;
        case Opcode::kStore:
        case Opcode::kStoreX: {
            const auto h = sim::FrameHandle::unpack(reg(code_->code[ip].rb));
            if (h.global_pe != self_ &&
                outgoing_.size() >= kOutgoingPullCap) {
                return {false, as_pf(CycleBucket::kLseStall)};
            }
            break;
        }
        case Opcode::kDmaGet:
            if (!mfc_.can_enqueue()) {
                return {false, CycleBucket::kPrefetch};
            }
            break;
        case Opcode::kDmaPut:
            if (!mfc_.can_enqueue()) {
                return {false, as_pf(CycleBucket::kMemStall)};
            }
            break;
        case Opcode::kStop:
            if (outstanding_reads_ > 0) {
                return {false, CycleBucket::kMemStall};
            }
            if (outstanding_lsloads_ > 0) {
                return {false, CycleBucket::kLsStall};
            }
            if (outstanding_fallocs_ > 0) {
                return {false, CycleBucket::kLseStall};
            }
            break;
        case Opcode::kDmaWait:
            if (outstanding_lsloads_ > 0 || outstanding_fallocs_ > 0 ||
                outstanding_reads_ > 0) {
                return {false, CycleBucket::kPrefetch};
            }
            if (!cfg_.non_blocking_dma && lse_.dma_pending(slot_) > 0) {
                // Blocking ablation: spin on the pipeline until done.
                return {false, CycleBucket::kPrefetch};
            }
            break;
        default:
            break;
    }
    return {true, CycleBucket::kWorking};
}

void Pe::tick_spu(sim::Cycle now) {
    if (!bound_) {
        handle_dispatch(now);
        return;
    }
    ++code_cycles_[code_id_];
    if (now < busy_until_) {
        switch (busy_reason_) {
            case BusyReason::kThreadStart:
                breakdown_.charge(CycleBucket::kLseStall);
                break;
            case BusyReason::kBranch:
                breakdown_.charge(CycleBucket::kPipeStall);
                break;
            case BusyReason::kDmaProgram:
                breakdown_.charge(CycleBucket::kPrefetch);
                break;
            case BusyReason::kNone:
                breakdown_.charge(CycleBucket::kPipeStall);
                break;
        }
        return;
    }

    std::uint32_t issued = 0;
    CycleBucket first_bucket = CycleBucket::kWorking;
    std::optional<CycleBucket> stall;
    std::optional<IssuePort> first_port;
    for (int pipe = 0; pipe < 2; ++pipe) {
        DTA_CHECK_MSG(ip_ < code_->size(), "instruction pointer ran off code");
        const isa::IssueFacts& f = facts_[ip_];
        if (pipe == 1) {
            // Second slot: must use the other pipe; control ops serialise.
            if (f.port == IssuePort::kControl || !first_port ||
                f.port == *first_port) {
                break;
            }
        }
        const IssueCheck chk = can_issue(ip_, now);
        if (!chk.ok) {
            if (pipe == 0) {
                stall = chk.stall;
            }
            break;
        }
        if (pipe == 0) {
            first_bucket =
                f.in_pf ? CycleBucket::kPrefetch : CycleBucket::kWorking;
            first_port = f.port;
        }
        const Instruction& ins = code_->code[ip_];
        if (events_ != nullptr &&
            static_cast<std::int8_t>(ins.block) != phase_block_) {
            phase_block_ = static_cast<std::int8_t>(ins.block);
            emit_event(sim::EventKind::kPhase, now, cur_uid_, 0,
                       static_cast<std::uint64_t>(ins.block),
                       static_cast<std::uint8_t>(ins.block));
        }
        instrs_.count(f.op);
        ++code_instrs_[code_id_];
        ++issued;
        const bool continue_cycle = execute(ins, now);
        if (!continue_cycle || !bound_ || now < busy_until_) {
            break;
        }
    }

    if (issued > 0) {
        breakdown_.charge(first_bucket);
        slots_used_ += issued;
        ++cycles_with_issue_;
    } else {
        breakdown_.charge(stall.value_or(CycleBucket::kPipeStall));
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void Pe::set_reg(std::uint8_t rd, std::uint64_t value, sim::Cycle ready_at,
                 RegSrc src) {
    if (rd == 0) {
        return;  // r0 is hard-wired zero
    }
    regs_[rd] = value;
    reg_ready_[rd] = ready_at;
    reg_src_[rd] = src;
}

bool Pe::execute(const Instruction& ins, sim::Cycle now) {
    switch (ins.op) {
        // control flow
        case Opcode::kBeq:
        case Opcode::kBne:
        case Opcode::kBlt:
        case Opcode::kBge:
        case Opcode::kJmp: {
            const bool taken =
                isa::eval_branch(ins, reg(ins.ra), reg(ins.rb));
            if (taken) {
                ip_ = static_cast<std::uint32_t>(ins.imm);
                if (cfg_.branch_penalty > 0) {
                    busy_until_ = now + cfg_.branch_penalty;
                    busy_reason_ = BusyReason::kBranch;
                }
                return false;
            }
            ++ip_;
            return true;
        }
        // memory & threads
        case Opcode::kLoad:
        case Opcode::kLoadX: exec_load(ins); ++ip_; return true;
        case Opcode::kStore:
        case Opcode::kStoreX: exec_store(ins, now); ++ip_; return true;
        case Opcode::kRead: exec_read(ins); ++ip_; return true;
        case Opcode::kWrite: exec_write(ins); ++ip_; return true;
        case Opcode::kLsLoad: exec_lsload(ins); ++ip_; return true;
        case Opcode::kLsStore: exec_lsstore(ins); ++ip_; return true;
        case Opcode::kFalloc:
        case Opcode::kFallocN: exec_falloc(ins, now); ++ip_; return true;
        case Opcode::kFfree:
            lse_.ffree(slot_);
            freed_ = true;
            ++ip_;
            return true;
        case Opcode::kDmaGet:
        case Opcode::kDmaPut:
            exec_dmaget(ins, now);
            ++ip_;
            return true;
        case Opcode::kRegSet:
            exec_regset(ins);
            ++ip_;
            return true;
        case Opcode::kDmaWait:
            return exec_dmawait(now);
        case Opcode::kStop:
            exec_stop(now);
            return false;
        default:
            exec_compute(ins, now);
            ++ip_;
            return true;
    }
}

void Pe::exec_compute(const Instruction& ins, sim::Cycle now) {
    if (ins.op == Opcode::kNop) {
        return;
    }
    // Value semantics are shared with the reference interpreter
    // (isa/alu.hpp); only the latency model lives here.
    const std::uint64_t result =
        isa::eval_compute(ins, reg(ins.ra), reg(ins.rb),
                          sim::FrameHandle{self_, slot_}.pack());
    std::uint32_t latency = cfg_.alu_latency;
    RegSrc src = RegSrc::kAlu;
    switch (ins.op) {
        case Opcode::kMul:
        case Opcode::kMulI:
            latency = cfg_.mul_latency;
            src = RegSrc::kMul;
            break;
        case Opcode::kDiv:
        case Opcode::kRem:
            latency = cfg_.div_latency;
            src = RegSrc::kMul;
            break;
        default:
            break;
    }
    set_reg(ins.rd, result, now + latency, src);
}

void Pe::exec_load(const Instruction& ins) {
    std::int64_t word = ins.imm;
    if (ins.op == Opcode::kLoadX) {
        word += static_cast<std::int64_t>(reg(ins.ra));
    }
    DTA_SIM_REQUIRE(word >= 0 &&
                        word < static_cast<std::int64_t>(lse_cfg_.frame_words),
                    "frame LOAD offset out of range");
    mem::LsRequest rq;
    rq.id = ls_req_seq_++;
    rq.is_write = false;
    rq.addr = lse_.frame_ls_base(slot_) +
              static_cast<std::uint32_t>(word) * 8;
    rq.size = 8;
    rq.meta = static_cast<std::uint64_t>(ins.rd) | 0x100u;  // 64-bit load
    ls_.enqueue(mem::LsClient::kSpu, std::move(rq));
    ++outstanding_lsloads_;
    // r0 never goes pending (set_reg ignores it), but the LS response will
    // still decrement the outstanding counter when it arrives.
    set_reg(ins.rd, 0, sim::kCycleNever, RegSrc::kLs);
}

std::uint32_t Pe::resolve_ls_addr(const Instruction& ins,
                                  std::uint32_t access_bytes) const {
    const std::uint8_t addr_reg =
        ins.op == Opcode::kLsStore ? ins.rb : ins.ra;
    const std::uint64_t vaddr = reg(addr_reg) + static_cast<std::uint64_t>(ins.imm);
    if (ins.region == isa::kNoRegion) {
        // Raw local-store addressing.
        DTA_SIM_REQUIRE(vaddr + access_bytes <= ls_.config().size_bytes,
                        "raw LS access out of bounds");
        return static_cast<std::uint32_t>(vaddr);
    }
    DTA_SIM_REQUIRE(ins.region >= 0 &&
                        static_cast<std::size_t>(ins.region) <
                            sched::kNumRegions,
                    "LS access names an invalid region");
    const sched::RegionEntry& re = regions_[static_cast<std::size_t>(ins.region)];
    DTA_SIM_REQUIRE(re.valid, "LS access through an unfilled region entry");
    DTA_SIM_REQUIRE(vaddr >= re.mem_base,
                    "LS access below its region's base address");
    const std::uint64_t delta = vaddr - re.mem_base;
    if (re.mem_stride == 0) {
        DTA_SIM_REQUIRE(delta + access_bytes <= re.bytes,
                        "LS access past the end of its region");
        return re.ls_base + static_cast<std::uint32_t>(delta);
    }
    const std::uint64_t elem = delta / re.mem_stride;
    const std::uint64_t within = delta % re.mem_stride;
    DTA_SIM_REQUIRE(within + access_bytes <= re.mem_elem_bytes,
                    "strided LS access crosses an element boundary");
    DTA_SIM_REQUIRE(elem < re.bytes / re.mem_elem_bytes,
                    "strided LS access past the last element");
    return re.ls_base +
           static_cast<std::uint32_t>(elem * re.mem_elem_bytes + within);
}

void Pe::exec_lsload(const Instruction& ins) {
    mem::LsRequest rq;
    rq.id = ls_req_seq_++;
    rq.is_write = false;
    rq.addr = resolve_ls_addr(ins, 4);
    rq.size = 4;
    rq.meta = static_cast<std::uint64_t>(ins.rd);  // 32-bit load
    ls_.enqueue(mem::LsClient::kSpu, std::move(rq));
    ++outstanding_lsloads_;
    set_reg(ins.rd, 0, sim::kCycleNever, RegSrc::kLs);
}

void Pe::exec_lsstore(const Instruction& ins) {
    mem::LsRequest rq;
    rq.id = ls_req_seq_++;
    rq.is_write = true;
    rq.addr = resolve_ls_addr(ins, 4);
    rq.size = 4;
    const auto v = static_cast<std::uint32_t>(reg(ins.ra));
    rq.data = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
               static_cast<std::uint8_t>(v >> 16),
               static_cast<std::uint8_t>(v >> 24)};
    rq.meta = 0;
    ls_.enqueue(mem::LsClient::kSpu, std::move(rq));
}

void Pe::exec_store(const Instruction& ins, sim::Cycle now) {
    const auto h = sim::FrameHandle::unpack(reg(ins.rb));
    DTA_SIM_REQUIRE(h.global_pe < topo_.total_pes(),
                    "STORE to a handle with an invalid PE");
    std::int64_t word = ins.imm;
    if (ins.op == Opcode::kStoreX) {
        word += static_cast<std::int64_t>(reg(ins.rd));
    }
    DTA_SIM_REQUIRE(word >= 0, "frame STORE offset negative");
    const auto off = static_cast<std::uint32_t>(word);
    const bool remote = h.global_pe != self_;
    std::uint64_t producer = 0;
    if (events_ != nullptr) {
        producer = cur_uid_;
        emit_event(sim::EventKind::kStoreIssue, now, producer, 0,
                   sim::pack_store_dest(h.global_pe, h.slot, off),
                   remote ? 1 : 0);
    }
    if (remote) {
        lse_.store_remote(h, off, reg(ins.ra), producer);
    } else {
        lse_.store_local(h, off, reg(ins.ra), producer);
    }
}

void Pe::exec_read(const Instruction& ins) {
    noc::Packet pkt;
    pkt.kind = static_cast<std::uint16_t>(sched::MsgKind::kMemReadReq);
    pkt.dst_node = kMemoryNode;
    pkt.dst_final = layout_.mem_ep();
    pkt.size_bytes = 8;
    pkt.a = reg(ins.ra) + static_cast<std::uint64_t>(ins.imm);
    pkt.b = sched::GlobalEndpoint{topo_.node_of(self_),
                                  layout_.spe_ep(topo_.local_pe_of(self_))}
                .pack();
    pkt.c = ins.rd;
    push_packet(std::move(pkt));
    ++outstanding_reads_;
    set_reg(ins.rd, 0, sim::kCycleNever, RegSrc::kMem);
}

void Pe::exec_write(const Instruction& ins) {
    noc::Packet pkt;
    pkt.kind = static_cast<std::uint16_t>(sched::MsgKind::kMemWriteReq);
    pkt.dst_node = kMemoryNode;
    pkt.dst_final = layout_.mem_ep();
    pkt.size_bytes = 16;
    pkt.a = reg(ins.rb) + static_cast<std::uint64_t>(ins.imm);
    pkt.b = static_cast<std::uint32_t>(reg(ins.ra));
    push_packet(std::move(pkt));
}

void Pe::exec_falloc(const Instruction& ins, sim::Cycle now) {
    const auto code = static_cast<sim::ThreadCodeId>(ins.imm);
    std::uint32_t sc = 0;
    if (ins.op == Opcode::kFalloc) {
        sc = prog_.at(code).num_inputs;
    } else {
        const std::uint64_t v = reg(ins.ra);
        DTA_SIM_REQUIRE(v <= 0xffffffffull, "FALLOCN SC exceeds 32 bits");
        sc = static_cast<std::uint32_t>(v);
    }
    std::uint64_t parent = 0;
    if (events_ != nullptr) {
        parent = cur_uid_;
        emit_event(sim::EventKind::kFallocIssue, now, parent, 0, code,
                   ins.rd);
    }
    lse_.falloc(ins.rd, code, sc, parent);
    ++outstanding_fallocs_;
    set_reg(ins.rd, 0, sim::kCycleNever, RegSrc::kLse);
}

void Pe::exec_regset(const Instruction& ins) {
    DTA_CHECK(ins.dma.has_value());
    const isa::DmaArgs& args = *ins.dma;
    DTA_SIM_REQUIRE(args.region < sched::kNumRegions,
                    "REGSET region index out of range");
    DTA_SIM_REQUIRE(static_cast<std::uint64_t>(args.ls_offset) + args.bytes <=
                        lse_cfg_.staging_bytes_per_frame,
                    "REGSET overflows the thread's staging area");
    sched::RegionEntry re;
    re.valid = true;
    re.mem_base = reg(ins.ra);
    re.mem_stride = args.stride;
    re.mem_elem_bytes = args.elem_bytes;
    re.ls_base = lse_.staging_ls_base(slot_) + args.ls_offset;
    re.bytes = args.bytes;
    regions_[args.region] = re;
}

void Pe::exec_dmaget(const Instruction& ins, sim::Cycle now) {
    DTA_CHECK(ins.dma.has_value());
    const isa::DmaArgs& args = *ins.dma;
    const bool is_put = ins.op == Opcode::kDmaPut;
    DTA_SIM_REQUIRE(args.region < sched::kNumRegions,
                    "DMA region index out of range");
    DTA_SIM_REQUIRE(static_cast<std::uint64_t>(args.ls_offset) + args.bytes <=
                        lse_cfg_.staging_bytes_per_frame,
                    "DMA command overflows the thread's staging area");
    const std::uint32_t ls_addr =
        lse_.staging_ls_base(slot_) + args.ls_offset;
    dma::MfcCommand cmd;
    cmd.op = is_put ? dma::MfcOp::kPut : dma::MfcOp::kGet;
    cmd.tag = args.region;
    cmd.mem_addr = reg(ins.ra);
    cmd.ls_addr = ls_addr;
    cmd.bytes = args.bytes;
    cmd.stride = args.stride;
    cmd.elem_bytes = args.elem_bytes;
    cmd.owner = slot_;
    const bool ok = mfc_.try_enqueue(cmd);
    DTA_CHECK_MSG(ok, "MFC rejected a command can_issue approved");
    lse_.mark_dma_issued(slot_);
    if (!is_put) {
        // GETs additionally fill the runtime region table so LSLOADs can
        // translate main-memory addresses onto the staged copy.
        sched::RegionEntry re;
        re.valid = true;
        re.mem_base = cmd.mem_addr;
        re.mem_stride = args.stride;
        re.mem_elem_bytes = args.elem_bytes;
        re.ls_base = ls_addr;
        re.bytes = args.bytes;
        regions_[args.region] = re;
    }
    // Programming the MFC costs SPU cycles (this is the visible part of the
    // paper's "Prefetching" overhead; write-back programming is charged the
    // same way).
    if (cfg_.dma_program_cycles > 0) {
        busy_until_ = now + cfg_.dma_program_cycles;
        busy_reason_ = BusyReason::kDmaProgram;
    }
    if (events_ != nullptr) {
        emit_event(sim::EventKind::kDmaIssue, now, cur_uid_, 0,
                   args.bytes, static_cast<std::uint8_t>(args.region));
    }
}

bool Pe::exec_dmawait(sim::Cycle now) {
    if (lse_.dma_pending(slot_) == 0) {
        // Every tag already completed: fall straight through to PL
        // (the "Ready" fast path of Fig. 4).
        ++ip_;
        return false;  // control op: serialise the cycle anyway
    }
    DTA_CHECK_MSG(cfg_.non_blocking_dma,
                  "blocking DMAWAIT should spin in can_issue");
    sched::ThreadSnapshot snap;
    snap.regs = regs_;
    snap.regions = regions_;
    lse_.suspend_for_dma(slot_, ip_ + 1, snap);
    if (events_ != nullptr) {
        emit_event(sim::EventKind::kSuspend, now, cur_uid_, 0, 0, 0);
    }
    if (log_.enabled(sim::LogLevel::kDebug)) {
        log_.log(sim::LogLevel::kDebug, now, "pe" + std::to_string(self_),
                 "thread slot " + std::to_string(slot_) +
                     " suspended in Wait-for-DMA");
    }
    unbind(now);
    return false;
}

void Pe::exec_stop(sim::Cycle now) {
    if (events_ != nullptr) {
        // Before stop_thread: the slot's uid is gone once the LSE releases
        // it (and the kFree event must sort after the kStop).
        emit_event(sim::EventKind::kStop, now, cur_uid_, 0, 0, 0);
    }
    lse_.stop_thread(slot_, freed_);
    unbind(now);
}

void Pe::emit_event(sim::EventKind kind, sim::Cycle now, std::uint64_t thread,
                    std::uint64_t other, std::uint64_t arg, std::uint8_t aux) {
    sim::Event e;
    e.cycle = now;
    e.thread = thread;
    e.other = other;
    e.arg = arg;
    e.stall = breakdown_[CycleBucket::kMemStall];
    e.ordinal = self_;
    e.kind = kind;
    e.aux = aux;
    events_->push(e);
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

bool Pe::quiescent() const {
    return !bound_ && inbox_.empty() && outgoing_.empty() && ls_.quiescent() &&
           mfc_.quiescent() && lse_.quiescent() && outstanding_reads_ == 0 &&
           outstanding_lsloads_ == 0 && outstanding_fallocs_ == 0;
}

// ---------------------------------------------------------------------------
// Activity horizon / fast-forward
// ---------------------------------------------------------------------------

sim::Cycle Pe::operand_horizon(const isa::IssueFacts& f,
                               sim::Cycle now) const {
    sim::Cycle h = sim::kIdleForever;
    for (std::uint8_t k = 0; k < f.num_regs; ++k) {
        // Regs pending on external events (kCycleNever) are woken by the
        // component carrying the request; only finite ready-times schedule
        // a retry here.
        const sim::Cycle ready = reg_ready_[f.regs[k]];
        if (ready > now + 1 && ready != sim::kCycleNever && ready < h) {
            h = ready;
        }
    }
    return h;
}

sim::Cycle Pe::horizon(sim::Cycle now) const {
    // Undecoded deliveries, undrained producer traffic, or a completed
    // FALLOC waiting to land in its register: work next cycle.
    if (!inbox_.empty() || !outgoing_.empty() || !lse_.outgoing_empty() ||
        lse_.falloc_response_pending()) {
        return now + 1;
    }
    sim::Cycle h = ls_.next_activity(now);
    const sim::Cycle mfc_h = mfc_.next_activity(now);
    h = mfc_h < h ? mfc_h : h;
    if (bound_) {
        if (busy_until_ > now + 1) {
            h = busy_until_ < h ? busy_until_ : h;
        } else {
            // The pipeline attempts issue next cycle; skippable only while
            // the verdict provably cannot change.
            const IssueCheck chk = can_issue(ip_, now + 1);
            if (chk.ok) {
                return now + 1;
            }
            const sim::Cycle op_h = operand_horizon(facts_[ip_], now);
            h = op_h < h ? op_h : h;
        }
    } else {
        if (!lse_.dispatch_requested() && !lse_.quiescent()) {
            return now + 1;  // handle_dispatch posts the request (a mutation)
        }
        // With an empty LSE nothing is dispatched before a FALLOC wakes this
        // PE; skip() posts the request, so a quiescent PE stays unarmed.
        if (lse_.ready_count() > 0) {
            sim::Cycle d = lse_.dispatch_ready_at();
            d = d > now + 1 ? d : now + 1;
            h = d < h ? d : h;
        }
        // No ready thread: the wake-up (DMA completion, frame store) rides
        // on another component's horizon.
    }
    return h;
}

void Pe::skip(sim::Cycle from, sim::Cycle to) {
    const std::uint64_t n = to - from;
    if (!bound_) {
        // Replicates handle_dispatch's non-dispatching charges; the horizon
        // guarantees no dispatch could have happened in [from, to).  A PE
        // that slept with an empty LSE posts its request here, at `from`.
        if (!lse_.dispatch_requested()) {
            DTA_CHECK(lse_.quiescent());
            lse_.request_dispatch(from);
        }
        if (lse_.ready_count() > 0) {
            DTA_CHECK(to <= lse_.dispatch_ready_at());
            breakdown_.charge(CycleBucket::kLseStall, n);
        } else if (lse_.waitdma_count() > 0 &&
                   cfg_.count_dma_idle_as_prefetch) {
            breakdown_.charge(CycleBucket::kPrefetch, n);
        } else {
            breakdown_.charge(CycleBucket::kIdle, n);
        }
    } else {
        code_cycles_[code_id_] += n;
        if (from < busy_until_) {
            DTA_CHECK(to <= busy_until_);
            switch (busy_reason_) {
                case BusyReason::kThreadStart:
                    breakdown_.charge(CycleBucket::kLseStall, n);
                    break;
                case BusyReason::kBranch:
                    breakdown_.charge(CycleBucket::kPipeStall, n);
                    break;
                case BusyReason::kDmaProgram:
                    breakdown_.charge(CycleBucket::kPrefetch, n);
                    break;
                case BusyReason::kNone:
                    breakdown_.charge(CycleBucket::kPipeStall, n);
                    break;
            }
        } else {
            // The stall verdict is constant across the span: every finite
            // operand ready-time bounds the horizon, and resource state
            // only mutates inside ticks.
            const IssueCheck chk = can_issue(ip_, from);
            DTA_CHECK_MSG(!chk.ok, "fast-forward skipped an issuable cycle");
            breakdown_.charge(chk.stall, n);
        }
    }
    // Sub-units only need their stale-by-one event clocks advanced.
    mfc_.skip(from, to);
    lse_.skip(from, to);
}

namespace {

void save_span(sim::StateSink& s, const ThreadSpan& t) {
    s.u32(t.pe);
    s.u64(t.begin);
    s.u64(t.end);
    s.u32(t.code);
    s.u32(t.slot);
    s.flag(t.resumed);
}

void load_span(sim::StateSource& s, ThreadSpan& t) {
    t.pe = s.u32();
    t.begin = s.u64();
    t.end = s.u64();
    t.code = s.u32();
    t.slot = s.u32();
    t.resumed = s.flag();
}

}  // namespace

void Pe::save_state(sim::StateSink& s) const {
    ls_.save_state(s);
    lse_.save_state(s);
    mfc_.save_state(s);
    inbox_.save_state(s, noc::save_packet);
    outgoing_.save_state(s, noc::save_packet);
    // SPU architectural state
    s.flag(bound_);
    s.u32(slot_);
    s.u32(code_id_);
    s.u32(ip_);
    s.flag(freed_);
    for (const std::uint64_t v : regs_) {
        s.u64(v);
    }
    for (const sched::RegionEntry& r : regions_) {
        sched::save_region(s, r);
    }
    // scoreboard
    for (const sim::Cycle c : reg_ready_) {
        s.u64(c);
    }
    for (const RegSrc src : reg_src_) {
        s.u8(static_cast<std::uint8_t>(src));
    }
    s.u32(outstanding_reads_);
    s.u32(outstanding_lsloads_);
    s.u32(outstanding_fallocs_);
    // pipeline control
    s.u64(busy_until_);
    s.u8(static_cast<std::uint8_t>(busy_reason_));
    s.u64(ls_req_seq_);
    // statistics
    for (const std::uint64_t c : breakdown_.cycles) {
        s.u64(c);
    }
    for (const std::uint64_t c : instrs_.by_opcode) {
        s.u64(c);
    }
    s.u64(slots_used_);
    s.u64(cycles_with_issue_);
    s.u64(threads_executed_);
    for (const auto* vec :
         {&code_cycles_, &code_instrs_, &code_starts_, &code_dispatches_}) {
        sim::save_seq(s, *vec,
                      [](sim::StateSink& k, std::uint64_t v) { k.u64(v); });
    }
    save_span(s, open_span_);
    s.u64(cur_uid_);
    s.u8(static_cast<std::uint8_t>(phase_block_));
}

void Pe::load_state(sim::StateSource& s) {
    ls_.load_state(s);
    lse_.load_state(s);
    mfc_.load_state(s);
    inbox_.load_state(s, noc::load_packet);
    outgoing_.load_state(s, noc::load_packet);
    bound_ = s.flag();
    slot_ = s.u32();
    code_id_ = s.u32();
    ip_ = s.u32();
    freed_ = s.flag();
    for (std::uint64_t& v : regs_) {
        v = s.u64();
    }
    for (sched::RegionEntry& r : regions_) {
        sched::load_region(s, r);
    }
    for (sim::Cycle& c : reg_ready_) {
        c = s.u64();
    }
    for (RegSrc& src : reg_src_) {
        src = static_cast<RegSrc>(s.u8());
    }
    outstanding_reads_ = s.u32();
    outstanding_lsloads_ = s.u32();
    outstanding_fallocs_ = s.u32();
    busy_until_ = s.u64();
    busy_reason_ = static_cast<BusyReason>(s.u8());
    ls_req_seq_ = s.u64();
    for (std::uint64_t& c : breakdown_.cycles) {
        c = s.u64();
    }
    for (std::uint64_t& c : instrs_.by_opcode) {
        c = s.u64();
    }
    slots_used_ = s.u64();
    cycles_with_issue_ = s.u64();
    threads_executed_ = s.u64();
    for (auto* vec :
         {&code_cycles_, &code_instrs_, &code_starts_, &code_dispatches_}) {
        const std::size_t expect = vec->size();
        sim::load_seq(s, *vec,
                      [](sim::StateSource& k, std::uint64_t& v) { v = k.u64(); });
        DTA_CHECK_MSG(vec->size() == expect,
                      "snapshot per-code counters do not match the program");
    }
    load_span(s, open_span_);
    cur_uid_ = s.u64();
    phase_block_ = static_cast<std::int8_t>(s.u8());
    // The bound thread-code pointer is wiring into the (identical, by
    // config-fingerprint check) program, not serialized state.
    code_ = bound_ ? &prog_.at(code_id_) : nullptr;
    facts_ = bound_ ? decoded_[code_id_].data() : nullptr;
}

}  // namespace dta::core
