//! # efex-mips — a MIPS-I-subset machine simulator
//!
//! This crate implements the hardware substrate for the efex reproduction of
//! Thekkath & Levy, *Hardware and Software Support for Efficient Exception
//! Handling* (ASPLOS 1994): an instruction-level simulator of a MIPS
//! R3000-class processor, the machine on which the paper's mechanisms were
//! built.
//!
//! The crate provides:
//!
//! - [`isa`] — the instruction set: a typed [`isa::Instruction`] enum,
//!   register names, and disassembly via `Display`.
//! - [`encode`] / [`decode`] — binary instruction encoding and decoding.
//! - [`asm`] — a two-pass assembler with labels, directives, and the usual
//!   MIPS pseudo-instructions (`li`, `la`, `move`, `b`, …).
//! - [`cp0`] — system coprocessor state (Status, Cause, EPC, BadVaddr, …)
//!   plus the paper's proposed user-exception extension registers.
//! - [`tlb`] — a 64-entry tagged TLB whose entries carry the paper's extra
//!   *user-modifiable* protection bit (Section 2.2).
//! - [`mem`] — sparse physical memory (pages allocated on first write).
//! - [`machine`] — the interpreter: fetch/decode/execute with branch delay
//!   slots, precise exceptions, address translation, cycle accounting, and
//!   an optional hardware user-level exception vectoring mode (the Tera-style
//!   PC/exception-target exchange of Section 2.1).
//! - [`cycles`] — the cycle cost model and its calibration anchors.
//! - [`sem`] — pure instruction semantics (ALU folding, branch conditions)
//!   shared between the interpreter and the static analyzers in
//!   `efex-verify`.
//! - [`profile`] — per-region instruction attribution used to regenerate the
//!   paper's Table 3 (kernel handler instruction breakdown).
//!
//! # Example
//!
//! Assemble and run a tiny program:
//!
//! ```
//! use efex_mips::asm::assemble;
//! use efex_mips::machine::{Machine, StopReason};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = assemble(
//!     r#"
//!     .org 0x80001000
//!     start:
//!         li   $t0, 21
//!         add  $t1, $t0, $t0
//!         hcall 0            # return control to the host
//!     "#,
//! )?;
//! let mut m = Machine::new(4 * 1024 * 1024);
//! m.load_image(&prog)?;
//! m.set_pc(prog.entry());
//! assert_eq!(m.run(1000), StopReason::HostCall(0));
//! assert_eq!(m.cpu().reg(efex_mips::isa::Reg::T1), 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod cp0;
pub mod cycles;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod exception;
pub mod isa;
pub mod machine;
pub mod mem;
pub mod profile;
pub mod sem;
pub mod snapshot;
pub mod tlb;

pub use exception::ExcCode;
pub use isa::{Instruction, Reg};
pub use machine::{with_machine_config, ExecEngine, Machine, MachineConfig, StopReason};
pub use profile::{Profiler, Region, RegionCounts, RegionSpan};
