//! Native x86-64 back-end for the flat fuzz programs.
//!
//! The flat program (see [`crate::flatten`]) is already a dense linear
//! encoding with resolved forward-only jumps, so the JIT is a template
//! compiler: every [`FlatOp`] lowers to a short fixed x86-64 sequence, one
//! straight-line native block per basic block, with the VM's `f64`
//! register file living in memory (the executor's `regs` vector — so
//! signal probing via [`crate::Executor::reg`] keeps working unchanged).
//!
//! # Frame and register convention
//!
//! The generated function is `extern "sysv64" fn(*const JitCtx)`. The
//! prologue pins the four data planes in callee-saved registers:
//!
//! | register | contents                      |
//! |----------|-------------------------------|
//! | `rbx`    | `regs` base (`f64` frame)     |
//! | `r12`    | `state` base                  |
//! | `r13`    | `inputs` base                 |
//! | `r14`    | `outputs` base                |
//! | `r15`    | the [`JitCtx`] pointer        |
//!
//! `rax/rcx/rdx/rsi/rdi/r8–r11` and `xmm0–xmm2` are scratch. Register
//! slots address as `[rbx + 8*reg]` (u16 registers keep every
//! displacement well inside disp32).
//!
//! # Recorder trampolines
//!
//! Probe ops must produce the *bit-for-bit identical* recorder event
//! sequence the flat VM produces — that is the differential-oracle
//! contract. The machine code is compiled once per program and shared by
//! every recorder type, so probe ops call back through a fixed-ABI
//! vtable ([`RecorderVt`]) of `extern "sysv64"` trampolines
//! monomorphized per concrete [`Recorder`] and passed in the per-call
//! [`JitCtx`]. A recorder that panics inside a trampoline aborts the
//! process (Rust's `extern` panic boundary): generated frames carry no
//! unwind tables, so unwinding through them would be undefined behavior.
//!
//! Two fast paths keep instrumented execution cheap, both driven by
//! promises on the [`Recorder`] trait (skipping a promised no-op is
//! observationally identical, so the event-sequence contract is
//! untouched):
//!
//! * **Null vtable slots** — an event class the recorder promises away
//!   (`OBSERVES_BRANCHES` & friends) gets a null [`RecorderVt`] entry;
//!   every event site loads its slot, tests for null, and skips the
//!   callback (and, except for branch events, whose slot is tested only
//!   when no flags array is exposed, the argument recomputation too).
//! * **Inline branch stores** — a recorder exposing dense
//!   [`branch_flags`](Recorder::branch_flags) (the fuzz loop's branch
//!   bitmap does) has branch probes lowered to a single byte store
//!   `flags[id] = 1`, no call at all. The run entry validates the
//!   flags length against the program's branch-id bound once, so the
//!   generated stores need no per-probe bounds checks.
//!
//! # Fallback policy
//!
//! The whole module is gated on `cfg(cftcg_jit)` (the `jit` feature on
//! x86-64 Linux, computed by the build script). Elsewhere
//! [`Executor::new_jit`](crate::Executor::new_jit) silently resolves to
//! the flat VM, and [`compile_jit`] returning `None` (executable-page
//! allocation refused) downgrades the same way at run time.

use std::collections::HashSet;
use std::sync::OnceLock;

use cftcg_coverage::{AssertionId, BranchId, ConditionId, DecisionId, Recorder};
use cftcg_model::interp::{lookup1d, lookup2d};
use cftcg_model::{DataType, Value};

use crate::compile::{CompiledModel, Lookup2Table};
use crate::flatten::{FlatOp, FlatProgram};
use crate::ir::{BinopCode, FuncCode, UnopCode};
use crate::vm::JitStats;

// ---------------------------------------------------------------------------
// Executable memory (raw Linux syscalls — the build has no libc crate).

const PROT_RW: usize = 0x3;
const PROT_RX: usize = 0x5;
const MAP_PRIVATE_ANON: usize = 0x22;

unsafe fn sys_mmap_rw(len: usize) -> Option<*mut u8> {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") 9isize => ret, // SYS_mmap
        in("rdi") 0usize,
        in("rsi") len,
        in("rdx") PROT_RW,
        in("r10") MAP_PRIVATE_ANON,
        in("r8") -1isize,
        in("r9") 0usize,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    if ret < 0 {
        None
    } else {
        Some(ret as *mut u8)
    }
}

unsafe fn sys_mprotect(addr: *mut u8, len: usize, prot: usize) -> bool {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") 10isize => ret, // SYS_mprotect
        in("rdi") addr,
        in("rsi") len,
        in("rdx") prot,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    ret == 0
}

unsafe fn sys_munmap(addr: *mut u8, len: usize) {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") 11isize => ret, // SYS_munmap
        in("rdi") addr,
        in("rsi") len,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack)
    );
    let _ = ret;
}

/// An executable page run holding one compiled entry point. Pages are
/// mapped read+write for emission, then flipped to read+execute (W^X) —
/// immutable from then on, so sharing across threads is sound.
struct ExecBuf {
    ptr: *mut u8,
    map_len: usize,
}

unsafe impl Send for ExecBuf {}
unsafe impl Sync for ExecBuf {}

impl ExecBuf {
    fn new(code: &[u8]) -> Option<ExecBuf> {
        let map_len = code.len().div_ceil(4096).max(1) * 4096;
        unsafe {
            let ptr = sys_mmap_rw(map_len)?;
            std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, code.len());
            if !sys_mprotect(ptr, map_len, PROT_RX) {
                sys_munmap(ptr, map_len);
                return None;
            }
            Some(ExecBuf { ptr, map_len })
        }
    }
}

impl Drop for ExecBuf {
    fn drop(&mut self) {
        unsafe { sys_munmap(self.ptr, self.map_len) };
    }
}

// ---------------------------------------------------------------------------
// Runtime context and recorder trampolines.

/// Per-call context handed to the generated code (field offsets are burned
/// into the machine code — keep in sync with the prologue emitter).
#[repr(C)]
#[allow(dead_code)] // fields are read by the generated machine code
pub(crate) struct JitCtx {
    regs: *mut f64,        // 0x00 -> rbx
    state: *mut f64,       // 0x08 -> r12
    inputs: *const f64,    // 0x10 -> r13
    outputs: *mut f64,     // 0x18 -> r14
    recorder: *mut (),     // 0x20
    vt: *const RecorderVt, // 0x28
    /// Dense branch-hit byte array ([`Recorder::branch_flags`]), or null
    /// to deliver branch events through the vtable.
    branch_flags: *mut u8, // 0x30
}

const CTX_RECORDER: i32 = 0x20;
const CTX_VT: i32 = 0x28;
const CTX_FLAGS: i32 = 0x30;

/// Fixed-ABI probe dispatch table: one `extern "sysv64"` trampoline per
/// recorder hook, monomorphized over the concrete recorder type. Entries
/// are null (`None`) when the recorder promises that event class away —
/// generated code tests each slot before calling through it. (`Option` of
/// a function pointer is null-pointer-optimized, so the layout stays one
/// plain pointer per slot.)
#[repr(C)]
#[allow(dead_code)] // entries are called by the generated machine code
pub(crate) struct RecorderVt {
    branch: Option<extern "sysv64" fn(*mut (), u32)>,
    condition: Option<extern "sysv64" fn(*mut (), u32, u32)>,
    decision: Option<extern "sysv64" fn(*mut (), u32, u64, u32)>,
    compare: Option<extern "sysv64" fn(*mut (), f64, f64)>,
    assertion: Option<extern "sysv64" fn(*mut (), u32, u32)>,
}

const VT_BRANCH: i32 = 0x00;
const VT_CONDITION: i32 = 0x08;
const VT_DECISION: i32 = 0x10;
const VT_COMPARE: i32 = 0x18;
const VT_ASSERTION: i32 = 0x20;

extern "sysv64" fn tramp_branch<R: Recorder>(rec: *mut (), id: u32) {
    unsafe { &mut *rec.cast::<R>() }.branch(BranchId(id));
}
extern "sysv64" fn tramp_condition<R: Recorder>(rec: *mut (), id: u32, value: u32) {
    unsafe { &mut *rec.cast::<R>() }.condition(ConditionId(id), value != 0);
}
extern "sysv64" fn tramp_decision<R: Recorder>(rec: *mut (), id: u32, vector: u64, outcome: u32) {
    unsafe { &mut *rec.cast::<R>() }.decision_eval(DecisionId(id), vector, outcome);
}
extern "sysv64" fn tramp_compare<R: Recorder>(rec: *mut (), lhs: f64, rhs: f64) {
    unsafe { &mut *rec.cast::<R>() }.compare(lhs, rhs);
}
extern "sysv64" fn tramp_assertion<R: Recorder>(rec: *mut (), id: u32, passed: u32) {
    unsafe { &mut *rec.cast::<R>() }.assertion(AssertionId(id), passed != 0);
}

impl RecorderVt {
    fn of<R: Recorder>() -> RecorderVt {
        RecorderVt {
            branch: R::OBSERVES_BRANCHES
                .then_some(tramp_branch::<R> as extern "sysv64" fn(*mut (), u32)),
            condition: R::OBSERVES_CONDITIONS
                .then_some(tramp_condition::<R> as extern "sysv64" fn(*mut (), u32, u32)),
            decision: R::OBSERVES_DECISIONS
                .then_some(tramp_decision::<R> as extern "sysv64" fn(*mut (), u32, u64, u32)),
            compare: R::OBSERVES_COMPARES
                .then_some(tramp_compare::<R> as extern "sysv64" fn(*mut (), f64, f64)),
            assertion: R::OBSERVES_ASSERTIONS
                .then_some(tramp_assertion::<R> as extern "sysv64" fn(*mut (), u32, u32)),
        }
    }
}

// ---------------------------------------------------------------------------
// Out-of-line helpers (recorder-independent; absolute addresses are burned
// into the code as `mov rax, imm64; call rax`).

extern "sysv64" fn jh_fmod(l: f64, r: f64) -> f64 {
    l % r
}

extern "sysv64" fn jh_call(func: *const FuncCode, argc: u64, a: f64, b: f64, c: f64) -> f64 {
    let xs = [a, b, c];
    unsafe { *func }.apply(&xs[..argc as usize])
}

extern "sysv64" fn jh_castsat(ty: u64, x: f64) -> f64 {
    Value::from_f64(x, ty_from_code(ty)).as_f64()
}

extern "sysv64" fn jh_lookup1(table: *const (Vec<f64>, Vec<f64>), x: f64) -> f64 {
    let (breaks, values) = unsafe { &*table };
    lookup1d(breaks, values, x)
}

extern "sysv64" fn jh_lookup2(table: *const Lookup2Table, row: f64, col: f64) -> f64 {
    let (rb, cb, values) = unsafe { &*table };
    lookup2d(rb, cb, values, row, col)
}

extern "sysv64" fn jh_shift_state(state: *mut f64, base: u64, len: u64, v: f64) {
    let (base, len) = (base as usize, len as usize);
    let s = unsafe { std::slice::from_raw_parts_mut(state, base + len) };
    s.copy_within(base + 1..base + len, base);
    s[base + len - 1] = v;
}

fn ty_code(ty: DataType) -> u64 {
    match ty {
        DataType::Bool => 0,
        DataType::I8 => 1,
        DataType::U8 => 2,
        DataType::I16 => 3,
        DataType::U16 => 4,
        DataType::I32 => 5,
        DataType::U32 => 6,
        DataType::F32 => 7,
        DataType::F64 => 8,
    }
}

fn ty_from_code(code: u64) -> DataType {
    match code {
        0 => DataType::Bool,
        1 => DataType::I8,
        2 => DataType::U8,
        3 => DataType::I16,
        4 => DataType::U16,
        5 => DataType::I32,
        6 => DataType::U32,
        7 => DataType::F32,
        _ => DataType::F64,
    }
}

// ---------------------------------------------------------------------------
// The x86-64 emitter.

// GPR numbers (REX-extended).
const RAX: u8 = 0;
const RCX: u8 = 1;
const RDX: u8 = 2;
const RBX: u8 = 3;
const RSI: u8 = 6;
const RDI: u8 = 7;
const R8: u8 = 8;
const R10: u8 = 10;
const R12: u8 = 12;
const R13: u8 = 13;
const R14: u8 = 14;
const R15: u8 = 15;

// SSE condition-code immediates for `cmpsd` — chosen so NaN semantics
// match `BinopCode::apply` exactly (unordered compares to false for
// EQ/LT/LE and true for NEQ).
const CMP_EQ: u8 = 0;
const CMP_LT: u8 = 1;
const CMP_LE: u8 = 2;
const CMP_NEQ: u8 = 4;

const F64_ONE_BITS: u64 = 0x3FF0_0000_0000_0000;
const F64_SIGN_BIT: u64 = 0x8000_0000_0000_0000;

/// Machine-code assembler: byte buffer + per-op labels + pending forward
/// jump fixups (the flat program only ever jumps forward).
struct Asm {
    code: Vec<u8>,
    /// Code offset where flat op `i` begins; slot `ops.len()` is the
    /// epilogue (jump-to-end lands there).
    labels: Vec<usize>,
    /// `(offset_of_rel32, target_op_index)` pairs patched at the end.
    fixups: Vec<(usize, usize)>,
}

impl Asm {
    fn new() -> Asm {
        Asm { code: Vec::with_capacity(4096), labels: Vec::new(), fixups: Vec::new() }
    }

    fn u8(&mut self, b: u8) {
        self.code.push(b);
    }
    fn u32(&mut self, v: u32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    /// REX prefix from extended register operands (`reg` = ModRM.reg,
    /// `base` = ModRM.rm / SIB.base); emitted only when needed.
    fn rex(&mut self, w: bool, reg: u8, base: u8) {
        let b = 0x40 | (u8::from(w) << 3) | (u8::from(reg >= 8) << 2) | u8::from(base >= 8);
        if b != 0x40 || w {
            self.u8(b);
        }
    }

    /// ModRM (+SIB) + displacement for a `[base + disp]` memory operand.
    fn modrm_mem(&mut self, reg: u8, base: u8, disp: i32) {
        let reg = reg & 7;
        let b = base & 7;
        let (md, d8) = if disp == 0 && b != 5 {
            (0b00u8, None)
        } else if (-128..=127).contains(&disp) {
            (0b01, Some(disp as i8))
        } else {
            (0b10, None)
        };
        self.u8((md << 6) | (reg << 3) | b);
        if b == 4 {
            self.u8(0x24); // SIB: no index, base = rsp/r12
        }
        match md {
            0b01 => self.u8(d8.unwrap() as u8),
            0b10 => self.u32(disp as u32),
            _ => {}
        }
    }

    /// ModRM register-direct form.
    fn modrm_rr(&mut self, reg: u8, rm: u8) {
        self.u8(0xC0 | ((reg & 7) << 3) | (rm & 7));
    }

    // -- integer moves ------------------------------------------------------

    /// `mov r64, [base + disp]`
    fn mov_r_mem(&mut self, dst: u8, base: u8, disp: i32) {
        self.rex(true, dst, base);
        self.u8(0x8B);
        self.modrm_mem(dst, base, disp);
    }

    /// `mov [base + disp], r64`
    fn mov_mem_r(&mut self, base: u8, disp: i32, src: u8) {
        self.rex(true, src, base);
        self.u8(0x89);
        self.modrm_mem(src, base, disp);
    }

    /// `mov r64, imm64`
    fn mov_r_imm64(&mut self, dst: u8, imm: u64) {
        self.rex(true, 0, dst);
        self.u8(0xB8 | (dst & 7));
        self.u64(imm);
    }

    /// `mov r32, imm32` (zero-extends)
    fn mov_r_imm32(&mut self, dst: u8, imm: u32) {
        self.rex(false, 0, dst);
        self.u8(0xB8 | (dst & 7));
        self.u32(imm);
    }

    /// `mov r32, r32`
    fn mov_r32_r32(&mut self, dst: u8, src: u8) {
        self.rex(false, src, dst);
        self.u8(0x89);
        self.modrm_rr(src, dst);
    }

    /// `mov r64, r64`
    fn mov_r_r(&mut self, dst: u8, src: u8) {
        self.rex(true, src, dst);
        self.u8(0x89);
        self.modrm_rr(src, dst);
    }

    // -- SSE ----------------------------------------------------------------

    /// `movsd xmm, [base + disp]`
    fn movsd_load(&mut self, x: u8, base: u8, disp: i32) {
        self.u8(0xF2);
        self.rex(false, x, base);
        self.u8(0x0F);
        self.u8(0x10);
        self.modrm_mem(x, base, disp);
    }

    /// `movsd [base + disp], xmm`
    fn movsd_store(&mut self, base: u8, disp: i32, x: u8) {
        self.u8(0xF2);
        self.rex(false, x, base);
        self.u8(0x0F);
        self.u8(0x11);
        self.modrm_mem(x, base, disp);
    }

    /// `addsd/subsd/mulsd/divsd xmm, [base + disp]` (op byte in `op`).
    fn arith_sd_mem(&mut self, op: u8, x: u8, base: u8, disp: i32) {
        self.u8(0xF2);
        self.rex(false, x, base);
        self.u8(0x0F);
        self.u8(op);
        self.modrm_mem(x, base, disp);
    }

    /// `cmpsd xmm, [base + disp], pred`
    fn cmpsd_mem(&mut self, x: u8, base: u8, disp: i32, pred: u8) {
        self.u8(0xF2);
        self.rex(false, x, base);
        self.u8(0x0F);
        self.u8(0xC2);
        self.modrm_mem(x, base, disp);
        self.u8(pred);
    }

    /// `cmpsd xmm, xmm, pred`
    fn cmpsd_rr(&mut self, x: u8, y: u8, pred: u8) {
        self.u8(0xF2);
        self.rex(false, x, y);
        self.u8(0x0F);
        self.u8(0xC2);
        self.modrm_rr(x, y);
        self.u8(pred);
    }

    /// Packed logic (`xorpd`/`andpd`/`orpd`), register form.
    fn logic_pd(&mut self, op: u8, x: u8, y: u8) {
        self.u8(0x66);
        self.rex(false, x, y);
        self.u8(0x0F);
        self.u8(op);
        self.modrm_rr(x, y);
    }

    /// `movq r64, xmm`
    fn movq_r_x(&mut self, r: u8, x: u8) {
        self.u8(0x66);
        self.rex(true, x, r);
        self.u8(0x0F);
        self.u8(0x7E);
        self.modrm_rr(x, r);
    }

    /// `movq xmm, r64`
    fn movq_x_r(&mut self, x: u8, r: u8) {
        self.u8(0x66);
        self.rex(true, x, r);
        self.u8(0x0F);
        self.u8(0x6E);
        self.modrm_rr(x, r);
    }

    // -- control flow and ALU ----------------------------------------------

    /// `call r64`
    fn call_r(&mut self, r: u8) {
        self.rex(false, 0, r);
        self.u8(0xFF);
        self.modrm_rr(2, r);
    }

    /// `test r32, r32`
    fn test_r32(&mut self, a: u8, b: u8) {
        self.rex(false, b, a);
        self.u8(0x85);
        self.modrm_rr(b, a);
    }

    /// `test r64, r64`
    fn test_r(&mut self, a: u8, b: u8) {
        self.rex(true, b, a);
        self.u8(0x85);
        self.modrm_rr(b, a);
    }

    /// `add r64, r64`
    fn add_r_r(&mut self, dst: u8, src: u8) {
        self.rex(true, src, dst);
        self.u8(0x01);
        self.modrm_rr(src, dst);
    }

    /// `mov byte [base + disp], 1`
    fn mov_mem8_imm1(&mut self, base: u8, disp: i32) {
        self.rex(false, 0, base);
        self.u8(0xC6);
        self.modrm_mem(0, base, disp);
        self.u8(1);
    }

    // Local (byte-offset) forward jumps, for skip regions *within* one
    // op's template — unlike `jnz_to`/`jmp_to`, which target flat-op
    // labels. Emit, remember the rel32 position, and bind once the skip
    // target is reached. rel32 keeps wide decision-vector recomputations
    // (dozens of conditions) in range.

    /// `jz rel32` to a not-yet-bound local label.
    fn jz_fwd(&mut self) -> usize {
        self.u8(0x0F);
        self.u8(0x84);
        let pos = self.code.len();
        self.u32(0);
        pos
    }

    /// `jmp rel32` to a not-yet-bound local label.
    fn jmp_fwd(&mut self) -> usize {
        self.u8(0xE9);
        let pos = self.code.len();
        self.u32(0);
        pos
    }

    /// Binds a local forward jump to the current position.
    fn bind_fwd(&mut self, pos: usize) {
        let rel = self.code.len() as i64 - (pos as i64 + 4);
        let rel32 = i32::try_from(rel).expect("local skip distance fits rel32");
        self.code[pos..pos + 4].copy_from_slice(&rel32.to_le_bytes());
    }

    /// `and r32, imm8` (sign-extended imm8)
    fn and_r32_imm8(&mut self, r: u8, imm: i8) {
        self.rex(false, 0, r);
        self.u8(0x83);
        self.modrm_rr(4, r);
        self.u8(imm as u8);
    }

    /// `shl r64, imm8`
    fn shl_r_imm8(&mut self, r: u8, imm: u8) {
        self.rex(true, 0, r);
        self.u8(0xC1);
        self.modrm_rr(4, r);
        self.u8(imm);
    }

    /// `or r64, r64`
    fn or_r_r(&mut self, dst: u8, src: u8) {
        self.rex(true, src, dst);
        self.u8(0x09);
        self.modrm_rr(src, dst);
    }

    /// `xor r32, r32`
    fn xor_r32(&mut self, dst: u8, src: u8) {
        self.rex(false, src, dst);
        self.u8(0x31);
        self.modrm_rr(src, dst);
    }

    /// `cmovnz r32, r32`
    fn cmovnz_r32(&mut self, dst: u8, src: u8) {
        self.rex(false, dst, src);
        self.u8(0x0F);
        self.u8(0x45);
        self.modrm_rr(dst, src);
    }

    fn push_r(&mut self, r: u8) {
        self.rex(false, 0, r);
        self.u8(0x50 | (r & 7));
    }

    fn pop_r(&mut self, r: u8) {
        self.rex(false, 0, r);
        self.u8(0x58 | (r & 7));
    }

    /// `jnz rel32` toward flat op `target` (forward; patched later).
    fn jnz_to(&mut self, target: usize) {
        self.u8(0x0F);
        self.u8(0x85);
        self.fixups.push((self.code.len(), target));
        self.u32(0);
    }

    /// `jmp rel32` toward flat op `target` (forward; patched later).
    fn jmp_to(&mut self, target: usize) {
        self.u8(0xE9);
        self.fixups.push((self.code.len(), target));
        self.u32(0);
    }

    fn patch_fixups(&mut self) {
        for &(pos, target) in &self.fixups {
            let rel = self.labels[target] as i64 - (pos as i64 + 4);
            let rel32 = i32::try_from(rel).expect("forward jump distance fits rel32");
            self.code[pos..pos + 4].copy_from_slice(&rel32.to_le_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// FlatOp lowering.

#[inline]
fn slot(r: impl Into<i32>) -> i32 {
    r.into() * 8
}

/// The template compiler for one flat program.
struct Lowerer<'p> {
    asm: Asm,
    program: &'p FlatProgram,
    /// Stable addresses the emitted code points into (owned by the
    /// enclosing [`JitProgram`] — built fully before lowering starts).
    funcs: *const FuncCode,
    func_index: &'p [(FuncCode, usize)],
    tables1: &'p [(Vec<f64>, Vec<f64>)],
    tables2: &'p [Lookup2Table],
    jump_targets: HashSet<usize>,
    /// One past the highest branch id any probe in this program can emit —
    /// the bound [`run_jit`] validates [`Recorder::branch_flags`] against,
    /// so inline flag stores need no per-probe bounds checks.
    branch_bound: usize,
    /// Forwarding cache: `Some(r)` means `xmm0 == regs[r]` at this point
    /// in straight-line emission, so a reload of `r` can be elided. Must
    /// be cleared on anything that clobbers `xmm0` (calls, compares), on
    /// any store to `regs[r]` that bypasses `xmm0`, and at every control
    /// flow merge point (jump targets start with an empty cache).
    cached: Option<u16>,
}

impl<'p> Lowerer<'p> {
    /// `movsd xmm0, regs[r]`, elided when the forwarding cache already
    /// holds `r` in `xmm0`.
    fn load_xmm0(&mut self, r: u16) {
        if self.cached != Some(r) {
            self.asm.movsd_load(0, RBX, slot(r));
            self.cached = Some(r);
        }
    }

    /// `movsd regs[dst], xmm0` — afterwards `xmm0 == regs[dst]`.
    fn store_xmm0(&mut self, dst: u16) {
        self.asm.movsd_store(RBX, slot(dst), 0);
        self.cached = Some(dst);
    }

    /// A store to `regs[dst]` that bypassed `xmm0` (GPR move): the cache
    /// entry for `dst` is stale.
    fn wrote_reg(&mut self, dst: u16) {
        if self.cached == Some(dst) {
            self.cached = None;
        }
    }

    /// `xmm0` no longer mirrors any register slot.
    fn clobber_xmm0(&mut self) {
        self.cached = None;
    }

    /// `regs[r]` truthiness (`!= 0.0`, NaN truthy) into `eax` as 0/1.
    /// Clobbers `xmm0`, `xmm1`, `rax`.
    fn truthy_eax(&mut self, r: u16) {
        self.load_xmm0(r);
        self.clobber_xmm0(); // the cmpsd below destroys xmm0
        let a = &mut self.asm;
        a.logic_pd(0x57, 1, 1); // xorpd xmm1, xmm1
        a.cmpsd_rr(0, 1, CMP_NEQ);
        a.movq_r_x(RAX, 0);
        a.and_r32_imm8(RAX, 1);
    }

    /// Converts the all-ones/zero mask in `xmm0` to 1.0/0.0 and stores it
    /// to `regs[dst]`. Clobbers `rax`, `xmm1`.
    fn mask_to_bool_store(&mut self, dst: u16) {
        let a = &mut self.asm;
        a.mov_r_imm64(RAX, F64_ONE_BITS);
        a.movq_x_r(1, RAX);
        a.logic_pd(0x54, 0, 1); // andpd xmm0, xmm1
        self.store_xmm0(dst);
    }

    /// `mov rdi, ctx.recorder` — first trampoline argument.
    fn load_recorder_rdi(&mut self) {
        self.asm.mov_r_mem(RDI, R15, CTX_RECORDER);
    }

    /// Opens a guarded event region: loads the vtable slot at `off` into
    /// `r10` and emits a skip-if-null jump. The caller computes the event
    /// arguments (free to clobber every scratch register except `r10`),
    /// calls [`Lowerer::call_event`], then closes the region with
    /// [`Lowerer::end_event`] — so a promised-away event skips its whole
    /// argument recomputation, not just the call.
    fn begin_event(&mut self, off: i32) -> usize {
        self.clobber_xmm0();
        self.asm.mov_r_mem(R10, R15, CTX_VT);
        self.asm.mov_r_mem(R10, R10, off);
        self.asm.test_r(R10, R10);
        self.asm.jz_fwd()
    }

    /// `call r10` — the slot loaded by [`Lowerer::begin_event`].
    fn call_event(&mut self) {
        self.asm.call_r(R10);
    }

    /// Binds the skip label of [`Lowerer::begin_event`]. A merge point:
    /// the executed path clobbered `xmm0` in the trampoline call, so the
    /// forwarding cache dies here.
    fn end_event(&mut self, skip: usize) {
        self.asm.bind_fwd(skip);
        self.clobber_xmm0();
    }

    /// `mov rax, imm64(helper); call rax`. Helpers receive and return
    /// values in `xmm0`, so the forwarding cache dies here.
    fn call_helper(&mut self, helper: usize) {
        self.clobber_xmm0();
        self.asm.mov_r_imm64(RAX, helper as u64);
        self.asm.call_r(RAX);
    }

    /// Pure binop compute + store (no recorder interaction); operands and
    /// destination are register-file slots.
    fn binop(&mut self, op: BinopCode, dst: u16, lhs: u16, rhs: u16) {
        match op {
            BinopCode::Add | BinopCode::Sub | BinopCode::Mul | BinopCode::Div => {
                let byte = match op {
                    BinopCode::Add => 0x58,
                    BinopCode::Sub => 0x5C,
                    BinopCode::Mul => 0x59,
                    _ => 0x5E,
                };
                self.load_xmm0(lhs);
                self.asm.arith_sd_mem(byte, 0, RBX, slot(rhs));
                self.clobber_xmm0(); // xmm0 now holds the result, not lhs
                self.store_xmm0(dst);
            }
            BinopCode::Rem => {
                self.load_xmm0(lhs);
                self.asm.movsd_load(1, RBX, slot(rhs));
                self.call_helper(jh_fmod as *const () as usize);
                self.store_xmm0(dst);
            }
            BinopCode::Lt | BinopCode::Le | BinopCode::Eq | BinopCode::Ne => {
                let pred = match op {
                    BinopCode::Lt => CMP_LT,
                    BinopCode::Le => CMP_LE,
                    BinopCode::Eq => CMP_EQ,
                    _ => CMP_NEQ,
                };
                self.load_xmm0(lhs);
                self.asm.cmpsd_mem(0, RBX, slot(rhs), pred);
                self.clobber_xmm0();
                self.mask_to_bool_store(dst);
            }
            BinopCode::Gt | BinopCode::Ge => {
                // l > r  <=>  r < l (both false when unordered).
                let pred = if op == BinopCode::Gt { CMP_LT } else { CMP_LE };
                self.load_xmm0(rhs);
                self.asm.cmpsd_mem(0, RBX, slot(lhs), pred);
                self.clobber_xmm0();
                self.mask_to_bool_store(dst);
            }
            BinopCode::And | BinopCode::Or => {
                self.asm.logic_pd(0x57, 2, 2); // xorpd xmm2, xmm2
                self.load_xmm0(lhs);
                self.clobber_xmm0();
                self.asm.cmpsd_rr(0, 2, CMP_NEQ);
                self.asm.movsd_load(1, RBX, slot(rhs));
                self.asm.cmpsd_rr(1, 2, CMP_NEQ);
                let logic = if op == BinopCode::And { 0x54 } else { 0x56 };
                self.asm.logic_pd(logic, 0, 1);
                self.mask_to_bool_store(dst);
            }
        }
    }

    /// `compare(regs[lhs], regs[rhs])` recorder event.
    fn compare_event(&mut self, lhs: u16, rhs: u16) {
        let skip = self.begin_event(VT_COMPARE);
        self.load_recorder_rdi();
        self.asm.movsd_load(0, RBX, slot(lhs));
        self.asm.movsd_load(1, RBX, slot(rhs));
        self.clobber_xmm0();
        self.call_event();
        self.end_event(skip);
    }

    /// `condition(cond, regs[src] != 0)` recorder event.
    fn condition_event(&mut self, cond: u32, src: u16) {
        let skip = self.begin_event(VT_CONDITION);
        self.truthy_eax(src);
        self.asm.mov_r32_r32(RDX, RAX);
        self.load_recorder_rdi();
        self.asm.mov_r_imm32(RSI, cond);
        self.call_event();
        self.end_event(skip);
    }

    /// Single-condition `decision_eval(decision, v, v)` with `v` recomputed
    /// from `regs[src]` (trampoline calls clobber scratch, but probe hooks
    /// cannot write the register file, so recomputing is exact).
    fn decision1_event(&mut self, decision: u32, src: u16) {
        let skip = self.begin_event(VT_DECISION);
        self.truthy_eax(src);
        self.asm.mov_r32_r32(RDX, RAX); // vector (zero-extended)
        self.asm.mov_r32_r32(RCX, RAX); // outcome
        self.load_recorder_rdi();
        self.asm.mov_r_imm32(RSI, decision);
        self.call_event();
        self.end_event(skip);
    }

    /// `branch(regs[src] != 0 ? then_branch : else_branch)` recorder event.
    fn branch_select_event(&mut self, src: u16, then_branch: u32, else_branch: u32) {
        self.branch_bound = self.branch_bound.max(then_branch.max(else_branch) as usize + 1);
        self.truthy_eax(src);
        self.asm.mov_r_imm32(RCX, then_branch);
        self.asm.mov_r_imm32(RSI, else_branch);
        self.asm.test_r32(RAX, RAX);
        self.asm.cmovnz_r32(RSI, RCX);
        let a = &mut self.asm;
        a.mov_r_mem(RAX, R15, CTX_FLAGS);
        a.test_r(RAX, RAX);
        let slow = a.jz_fwd();
        a.add_r_r(RAX, RSI);
        a.mov_mem8_imm1(RAX, 0);
        let done = a.jmp_fwd();
        a.bind_fwd(slow);
        self.branch_call();
        self.asm.bind_fwd(done);
        self.clobber_xmm0();
    }

    /// The slow half of a `branch` event, taken when the recorder exposes
    /// no dense flags: calls the vtable's branch slot with the id already
    /// in `esi`, or skips the call when the slot is null (the recorder
    /// promised branch events away). Testing the slot only here keeps the
    /// fuzz loop's inline-store path free of it.
    fn branch_call(&mut self) {
        self.asm.mov_r_mem(R10, R15, CTX_VT);
        self.asm.mov_r_mem(R10, R10, VT_BRANCH);
        self.asm.test_r(R10, R10);
        let skip = self.asm.jz_fwd();
        self.load_recorder_rdi();
        self.call_event();
        self.asm.bind_fwd(skip);
    }

    /// `if regs[cond] == 0.0 { jump target }` — NaN does not jump, exactly
    /// like the VM's `== 0.0` test (so no `ucomisd`, whose ZF is also set
    /// on unordered).
    fn jump_if_zero(&mut self, cond: u16, target: usize) {
        self.load_xmm0(cond);
        self.clobber_xmm0(); // the cmpsd below destroys xmm0
        let a = &mut self.asm;
        a.logic_pd(0x57, 1, 1);
        a.cmpsd_rr(0, 1, CMP_EQ);
        a.movq_r_x(RAX, 0);
        a.test_r32(RAX, RAX);
        a.jnz_to(target);
        self.jump_targets.insert(target);
    }

    /// Assembles a decision bit vector from condition registers into `rdx`,
    /// then fires `decision_eval(decision, vector, regs[outcome] != 0)`.
    fn decision_vector_event(&mut self, decision: u32, conds: &[u16], outcome: u16) {
        let skip = self.begin_event(VT_DECISION);
        self.asm.xor_r32(RDX, RDX);
        self.asm.mov_r_r(R8, RDX); // accumulate in r8 (truthy clobbers rax)
        for (bit, &c) in conds.iter().enumerate() {
            self.truthy_eax(c);
            if bit > 0 {
                self.asm.shl_r_imm8(RAX, bit as u8);
            }
            self.asm.or_r_r(R8, RAX);
        }
        self.truthy_eax(outcome);
        self.asm.mov_r32_r32(RCX, RAX);
        self.asm.mov_r_r(RDX, R8);
        self.load_recorder_rdi();
        self.asm.mov_r_imm32(RSI, decision);
        self.call_event();
        self.end_event(skip);
    }

    fn lower_op(&mut self, pc: usize, op: &FlatOp) {
        let next = pc + 1;
        match *op {
            FlatOp::Const { dst, idx } => {
                let bits = self.program.const_pool[idx as usize].to_bits();
                self.asm.mov_r_imm64(RAX, bits);
                self.asm.mov_mem_r(RBX, slot(dst), RAX);
                self.wrote_reg(dst);
            }
            FlatOp::Const2 { dst1, idx1, dst2, idx2 } => {
                for (d, i) in [(dst1, idx1), (dst2, idx2)] {
                    let bits = self.program.const_pool[i as usize].to_bits();
                    self.asm.mov_r_imm64(RAX, bits);
                    self.asm.mov_mem_r(RBX, slot(d), RAX);
                    self.wrote_reg(d);
                }
            }
            FlatOp::Copy { dst, src } => {
                self.asm.mov_r_mem(RAX, RBX, slot(src));
                self.asm.mov_mem_r(RBX, slot(dst), RAX);
                self.wrote_reg(dst);
            }
            FlatOp::Input { dst, index } => {
                self.asm.mov_r_mem(RAX, R13, slot(index));
                self.asm.mov_mem_r(RBX, slot(dst), RAX);
                self.wrote_reg(dst);
            }
            FlatOp::Output { index, src } => {
                self.asm.mov_r_mem(RAX, RBX, slot(src));
                self.asm.mov_mem_r(R14, slot(index), RAX);
            }
            FlatOp::Unop { dst, op, src } => match op {
                UnopCode::Neg => {
                    self.load_xmm0(src);
                    self.asm.mov_r_imm64(RAX, F64_SIGN_BIT);
                    self.asm.movq_x_r(1, RAX);
                    self.asm.logic_pd(0x57, 0, 1); // xorpd: flip sign
                    self.clobber_xmm0();
                    self.store_xmm0(dst);
                }
                UnopCode::Not => {
                    self.load_xmm0(src);
                    self.clobber_xmm0();
                    self.asm.logic_pd(0x57, 1, 1);
                    self.asm.cmpsd_rr(0, 1, CMP_EQ);
                    self.mask_to_bool_store(dst);
                }
                UnopCode::Truthy => {
                    self.load_xmm0(src);
                    self.clobber_xmm0();
                    self.asm.logic_pd(0x57, 1, 1);
                    self.asm.cmpsd_rr(0, 1, CMP_NEQ);
                    self.mask_to_bool_store(dst);
                }
            },
            FlatOp::Binop { dst, op, lhs, rhs } => self.binop(op, dst, lhs, rhs),
            FlatOp::BinopCmp { dst, op, lhs, rhs } => {
                self.compare_event(lhs, rhs);
                self.binop(op, dst, lhs, rhs);
            }
            FlatOp::CmpJump { op, dst, lhs, rhs, skip } => {
                self.compare_event(lhs, rhs);
                self.binop(op, dst, lhs, rhs);
                self.jump_if_zero(dst, next + skip as usize);
            }
            FlatOp::Call { dst, func, argc, args } => {
                let idx = self
                    .func_index
                    .iter()
                    .position(|&(f, a)| f == func && a == argc as usize)
                    .expect("function collected during scan");
                for i in 0..argc as usize {
                    if i == 0 {
                        self.load_xmm0(args[0]);
                    } else {
                        self.asm.movsd_load(i as u8, RBX, slot(args[i]));
                    }
                }
                let func_ptr = unsafe { self.funcs.add(idx) };
                self.asm.mov_r_imm64(RDI, func_ptr as u64);
                self.asm.mov_r_imm32(RSI, u32::from(argc));
                self.call_helper(jh_call as *const () as usize);
                self.store_xmm0(dst);
            }
            FlatOp::CastSat { dst, src, ty } => {
                self.load_xmm0(src);
                self.asm.mov_r_imm32(RDI, ty_code(ty) as u32);
                self.call_helper(jh_castsat as *const () as usize);
                self.store_xmm0(dst);
            }
            FlatOp::CastSatCopy { dst, src, ty, dst2 } => {
                self.load_xmm0(src);
                self.asm.mov_r_imm32(RDI, ty_code(ty) as u32);
                self.call_helper(jh_castsat as *const () as usize);
                self.store_xmm0(dst);
                self.store_xmm0(dst2);
            }
            FlatOp::CopyCastSat { dst, src, dst2, ty } => {
                self.asm.mov_r_mem(RAX, RBX, slot(src));
                self.asm.mov_mem_r(RBX, slot(dst), RAX);
                self.wrote_reg(dst);
                self.load_xmm0(dst);
                self.asm.mov_r_imm32(RDI, ty_code(ty) as u32);
                self.call_helper(jh_castsat as *const () as usize);
                self.store_xmm0(dst2);
            }
            FlatOp::LoadState { dst, slot: s } => {
                self.asm.mov_r_mem(RAX, R12, slot(s));
                self.asm.mov_mem_r(RBX, slot(dst), RAX);
                self.wrote_reg(dst);
            }
            FlatOp::Load2 { dst1, slot1, dst2, slot2 } => {
                for (d, s) in [(dst1, slot1), (dst2, slot2)] {
                    self.asm.mov_r_mem(RAX, R12, slot(s));
                    self.asm.mov_mem_r(RBX, slot(d), RAX);
                    self.wrote_reg(d);
                }
            }
            FlatOp::StoreState { slot: s, src } => {
                self.asm.mov_r_mem(RAX, RBX, slot(src));
                self.asm.mov_mem_r(R12, slot(s), RAX);
            }
            FlatOp::StoreState2 { slot1, src1, slot2, src2 } => {
                for (s, r) in [(slot1, src1), (slot2, src2)] {
                    self.asm.mov_r_mem(RAX, RBX, slot(r));
                    self.asm.mov_mem_r(R12, slot(s), RAX);
                }
            }
            FlatOp::ShiftState { base, len, src } => {
                self.load_xmm0(src);
                self.asm.mov_r_r(RDI, R12);
                self.asm.mov_r_imm32(RSI, base);
                self.asm.mov_r_imm32(RDX, len);
                self.call_helper(jh_shift_state as *const () as usize);
            }
            FlatOp::Lookup1 { dst, src, table } => {
                self.load_xmm0(src);
                let t = &self.tables1[table as usize] as *const (Vec<f64>, Vec<f64>);
                self.asm.mov_r_imm64(RDI, t as u64);
                self.call_helper(jh_lookup1 as *const () as usize);
                self.store_xmm0(dst);
            }
            FlatOp::Lookup2 { dst, row, col, table } => {
                self.load_xmm0(row);
                self.asm.movsd_load(1, RBX, slot(col));
                let t = &self.tables2[table as usize] as *const Lookup2Table;
                self.asm.mov_r_imm64(RDI, t as u64);
                self.call_helper(jh_lookup2 as *const () as usize);
                self.store_xmm0(dst);
            }
            FlatOp::Probe { branch } => {
                self.branch_bound = self.branch_bound.max(usize::from(branch) + 1);
                let a = &mut self.asm;
                a.mov_r_mem(RAX, R15, CTX_FLAGS);
                a.test_r(RAX, RAX);
                let slow = a.jz_fwd();
                a.mov_mem8_imm1(RAX, i32::from(branch));
                let done = a.jmp_fwd();
                a.bind_fwd(slow);
                self.asm.mov_r_imm32(RSI, u32::from(branch));
                self.branch_call();
                self.asm.bind_fwd(done);
                self.clobber_xmm0();
            }
            FlatOp::CondProbe { cond, src } => {
                self.condition_event(u32::from(cond), src);
            }
            FlatOp::CondProbe2 { cond1, src1, cond2, src2 } => {
                self.condition_event(u32::from(cond1), src1);
                self.condition_event(u32::from(cond2), src2);
            }
            FlatOp::Decision1 { decision, cond, src } => {
                self.condition_event(u32::from(cond), src);
                self.decision1_event(u32::from(decision), src);
            }
            FlatOp::DecisionSel { decision, cond, src, then_branch, else_branch } => {
                self.condition_event(u32::from(cond), src);
                self.decision1_event(u32::from(decision), src);
                self.branch_select_event(src, u32::from(then_branch), u32::from(else_branch));
            }
            FlatOp::CmpSel { op, dst, lhs, rhs, decision, cond, then_branch, else_branch } => {
                self.compare_event(lhs, rhs);
                self.binop(op, dst, lhs, rhs);
                self.condition_event(u32::from(cond), dst);
                self.decision1_event(u32::from(decision), dst);
                self.branch_select_event(dst, u32::from(then_branch), u32::from(else_branch));
            }
            FlatOp::DecisionEvalSmall { decision, outcome, len, conds } => {
                let conds = conds[..len as usize].to_vec();
                self.decision_vector_event(u32::from(decision), &conds, outcome);
            }
            FlatOp::DecisionEvalPool { decision, outcome, start, len } => {
                let conds =
                    self.program.cond_pool[start as usize..start as usize + len as usize].to_vec();
                self.decision_vector_event(u32::from(decision), &conds, outcome);
            }
            FlatOp::Assert { id, cond } => {
                let skip = self.begin_event(VT_ASSERTION);
                self.truthy_eax(cond);
                self.asm.mov_r32_r32(RDX, RAX);
                self.load_recorder_rdi();
                self.asm.mov_r_imm32(RSI, u32::from(id));
                self.call_event();
                self.end_event(skip);
            }
            FlatOp::ProbeSelect { cond, then_branch, else_branch } => {
                self.branch_select_event(cond, u32::from(then_branch), u32::from(else_branch));
            }
            FlatOp::JumpIfZero { cond, skip } => {
                self.jump_if_zero(cond, next + skip as usize);
            }
            FlatOp::JzLoad { cond, skip, dst, slot: s } => {
                self.jump_if_zero(cond, next + skip as usize);
                self.asm.mov_r_mem(RAX, R12, slot(s));
                self.asm.mov_mem_r(RBX, slot(dst), RAX);
                self.wrote_reg(dst);
            }
            FlatOp::LoadJz { dst, slot: s, cond, skip } => {
                self.asm.mov_r_mem(RAX, R12, slot(s));
                self.asm.mov_mem_r(RBX, slot(dst), RAX);
                self.wrote_reg(dst);
                self.jump_if_zero(cond, next + skip as usize);
            }
            FlatOp::DecisionSelJz { decision, cond, src, then_branch, else_branch, skip } => {
                self.condition_event(u32::from(cond), src);
                self.decision1_event(u32::from(decision), src);
                self.branch_select_event(src, u32::from(then_branch), u32::from(else_branch));
                self.jump_if_zero(src, next + skip as usize);
            }
            FlatOp::JzJz { cond1, skip1, cond2, skip2 } => {
                self.jump_if_zero(cond1, next + skip1 as usize);
                self.jump_if_zero(cond2, next + skip2 as usize);
            }
            FlatOp::JumpIfNonZero { cond, skip } => {
                let target = next + skip as usize;
                self.load_xmm0(cond);
                self.clobber_xmm0();
                let a = &mut self.asm;
                a.logic_pd(0x57, 1, 1);
                a.cmpsd_rr(0, 1, CMP_NEQ);
                a.movq_r_x(RAX, 0);
                a.test_r32(RAX, RAX);
                a.jnz_to(target);
                self.jump_targets.insert(target);
            }
            FlatOp::Jump { skip } => {
                let target = next + skip as usize;
                self.asm.jmp_to(target);
                self.jump_targets.insert(target);
                self.clobber_xmm0();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled program container.

/// One compiled entry point.
pub(crate) struct JitCode {
    buf: ExecBuf,
    code_len: usize,
    blocks: usize,
    /// One past the highest branch id this program's probes can emit.
    branch_bound: usize,
}

impl JitCode {
    #[inline]
    fn entry(&self) -> extern "sysv64" fn(*const JitCtx) {
        unsafe { std::mem::transmute::<*mut u8, extern "sysv64" fn(*const JitCtx)>(self.buf.ptr) }
    }
}

/// The native entry point for one compiled model, plus owned copies of
/// every side table the machine code points into (function codes, lookup
/// tables). Self-contained: the code never dereferences the
/// [`CompiledModel`] it was compiled from.
pub(crate) struct JitProgram {
    code: JitCode,
    // Referenced by absolute addresses burned into the code — never
    // mutate after compilation (heap buffers must not move).
    _funcs: Vec<FuncCode>,
    _tables1: Vec<(Vec<f64>, Vec<f64>)>,
    _tables2: Vec<Lookup2Table>,
    compile_ns: u64,
}

impl std::fmt::Debug for JitProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitProgram").field("code_bytes", &self.code.code_len).finish()
    }
}

impl JitProgram {
    pub(crate) fn stats(&self) -> JitStats {
        JitStats {
            code_bytes: self.code.code_len,
            blocks: self.code.blocks,
            compile_ns: self.compile_ns,
        }
    }
}

/// Lazily-compiled JIT cache slot carried by [`CompiledModel`]. Clones
/// start empty (machine code embeds addresses owned by the program it was
/// compiled for, so it is never shared across model instances).
pub(crate) struct JitCache(OnceLock<Option<JitProgram>>);

impl JitCache {
    pub(crate) fn get_or_compile(&self, compiled: &CompiledModel) -> Option<&JitProgram> {
        self.0.get_or_init(|| compile_jit(compiled)).as_ref()
    }
}

impl Default for JitCache {
    fn default() -> Self {
        JitCache(OnceLock::new())
    }
}

impl Clone for JitCache {
    fn clone(&self) -> Self {
        JitCache::default()
    }
}

impl std::fmt::Debug for JitCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JitCache(compiled: {})", self.0.get().is_some())
    }
}

/// Emits one program: prologue, one template per flat op, epilogue.
fn emit_program(
    program: &FlatProgram,
    funcs: &[FuncCode],
    func_index: &[(FuncCode, usize)],
    tables1: &[(Vec<f64>, Vec<f64>)],
    tables2: &[Lookup2Table],
) -> Option<JitCode> {
    let mut lw = Lowerer {
        asm: Asm::new(),
        program,
        funcs: funcs.as_ptr(),
        func_index,
        tables1,
        tables2,
        jump_targets: HashSet::new(),
        branch_bound: 0,
        cached: None,
    };

    // Prologue: 5 pushes after the call leave rsp 16-aligned for the body,
    // so every `call` site below satisfies the System V stack contract.
    for r in [RBX, R12, R13, R14, R15] {
        lw.asm.push_r(r);
    }
    lw.asm.mov_r_r(R15, RDI);
    lw.asm.mov_r_mem(RBX, R15, 0x00);
    lw.asm.mov_r_mem(R12, R15, 0x08);
    lw.asm.mov_r_mem(R13, R15, 0x10);
    lw.asm.mov_r_mem(R14, R15, 0x18);

    for (pc, op) in program.ops.iter().enumerate() {
        lw.asm.labels.push(lw.asm.code.len());
        debug_assert_eq!(lw.asm.labels.len(), pc + 1);
        // All flat jumps are forward, so by the time a target pc is
        // lowered it is already in `jump_targets`; merge points start
        // with an empty forwarding cache.
        if lw.jump_targets.contains(&pc) {
            lw.clobber_xmm0();
        }
        lw.lower_op(pc, op);
    }
    lw.asm.labels.push(lw.asm.code.len()); // epilogue label (ops.len())

    for r in [R15, R14, R13, R12, RBX] {
        lw.asm.pop_r(r);
    }
    lw.asm.u8(0xC3); // ret

    lw.asm.patch_fixups();
    let code_len = lw.asm.code.len();
    let blocks = lw.jump_targets.len() + 1;
    let branch_bound = lw.branch_bound;
    let buf = ExecBuf::new(&lw.asm.code)?;
    Some(JitCode { buf, code_len, blocks, branch_bound })
}

/// Compiles a model's flat program to native code. Returns `None`
/// if executable pages cannot be mapped (the caller falls back to the
/// flat VM).
pub(crate) fn compile_jit(compiled: &CompiledModel) -> Option<JitProgram> {
    let compile_started = std::time::Instant::now();
    // Collect every (func, arity) pair up front: the emitted code holds
    // absolute addresses of elements of `funcs`, so the vector must be
    // complete (and never touched again) before lowering.
    let mut func_index: Vec<(FuncCode, usize)> = Vec::new();
    for op in &compiled.flat.ops {
        if let FlatOp::Call { func, argc, .. } = op {
            let key = (*func, *argc as usize);
            if !func_index.contains(&key) {
                func_index.push(key);
            }
        }
    }
    let funcs: Vec<FuncCode> = func_index.iter().map(|(f, _)| *f).collect();
    let tables1 = compiled.tables1.clone();
    let tables2 = compiled.tables2.clone();

    let code = emit_program(&compiled.flat, &funcs, &func_index, &tables1, &tables2)?;
    Some(JitProgram {
        code,
        _funcs: funcs,
        _tables1: tables1,
        _tables2: tables2,
        compile_ns: compile_started.elapsed().as_nanos() as u64,
    })
}

/// Runs one step of a compiled program (the JIT counterpart of
/// `run_flat`): builds the recorder's vtable and calls into the native
/// code.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_jit<R: Recorder>(
    jit: &JitProgram,
    regs: &mut [f64],
    state: &mut [f64],
    inputs: &[f64],
    outputs: &mut [f64],
    recorder: &mut R,
) {
    let code = &jit.code;
    // Validate the dense-flags fast path once per step: every inline store
    // the code emits hits an id below `branch_bound`, so a buffer at least
    // that long needs no per-probe bounds checks. Too short (a recorder
    // sized for a different map) falls back to the vtable, which indexes
    // through the recorder's own (panicking) accessor like the flat VM.
    let branch_flags = if R::OBSERVES_BRANCHES {
        match recorder.branch_flags() {
            Some(flags) if flags.len() >= code.branch_bound => flags.as_mut_ptr(),
            _ => std::ptr::null_mut(),
        }
    } else {
        std::ptr::null_mut()
    };
    let vt = RecorderVt::of::<R>();
    let ctx = JitCtx {
        regs: regs.as_mut_ptr(),
        state: state.as_mut_ptr(),
        inputs: inputs.as_ptr(),
        outputs: outputs.as_mut_ptr(),
        recorder: (recorder as *mut R).cast(),
        vt: &vt,
        branch_flags,
    };
    (code.entry())(&ctx);
}
