//! Interprocedural support for the symbolic explorer: a multi-image code
//! view and a static `jal`/`jr` call graph with recursion detection.
//!
//! The delivery path crosses image boundaries — the kernel vector lives in
//! one assembled [`Program`], the signal trampoline in another, and the
//! guest handler in a third — so the explorer needs a single address space
//! stitched from several images ([`Images`]) and a whole-system view of
//! which functions call which ([`CallGraph`]). The call graph is
//! deliberately conservative: it only follows statically resolvable
//! transfers (`j`, `jal`, branches) and records every `jalr` site as
//! unresolved, leaving precise indirect-target resolution to the symbolic
//! executor's value tracking.

use std::collections::{BTreeMap, BTreeSet};

use efex_mips::asm::Program;
use efex_mips::decode::decode;
use efex_mips::isa::Instruction;
use efex_mips::sem;

use crate::diag::{Finding, Lint};

/// Several assembled images addressed as one system.
///
/// Images must not overlap; lookup scans in insertion order, so the first
/// image containing an address wins.
pub struct Images<'a> {
    images: Vec<(&'a str, &'a Program)>,
}

impl<'a> Images<'a> {
    /// Builds the view from `(name, program)` pairs; `name` tags findings
    /// so a diagnostic says which image it points into.
    pub fn new(images: Vec<(&'a str, &'a Program)>) -> Images<'a> {
        Images { images }
    }

    /// The `(name, program)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a Program)> + '_ {
        self.images.iter().copied()
    }

    /// The image containing `addr`, if any.
    pub fn program_at(&self, addr: u32) -> Option<(&'a str, &'a Program)> {
        self.images
            .iter()
            .copied()
            .find(|(_, p)| p.word_at(addr).is_some())
    }

    /// The code word at `addr` in whichever image holds it.
    pub fn word_at(&self, addr: u32) -> Option<u32> {
        self.images.iter().find_map(|(_, p)| p.word_at(addr))
    }

    /// Decodes the instruction at `addr`: `None` when no image holds the
    /// address, `Some(None)` when the word does not decode.
    pub fn decode_at(&self, addr: u32) -> Option<Option<Instruction>> {
        self.word_at(addr).map(|w| decode(w).ok())
    }

    /// Resolves `name` against each image's symbol table in order.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.images.iter().find_map(|(_, p)| p.symbol(name))
    }

    /// Builds a [`Finding`] at `addr`, resolved (label, line, disassembly)
    /// against the owning image, with the image name prefixed onto the
    /// message so multi-image reports stay readable.
    pub fn finding(&self, lint: Lint, addr: u32, message: impl Into<String>) -> Finding {
        let message = message.into();
        match self.program_at(addr) {
            Some((name, prog)) => Finding::new(prog, lint, addr, format!("[{name}] {message}")),
            None => Finding {
                lint,
                addr,
                location: format!("{addr:#010x}"),
                line: None,
                message,
                context: "<outside all images>".to_string(),
            },
        }
    }
}

/// One function discovered by the call-graph walk.
#[derive(Clone, Debug)]
pub struct FuncInfo {
    /// Entry address.
    pub entry: u32,
    /// `label+off` of the entry, resolved against the owning image.
    pub location: String,
    /// Reachable instructions inside the function body.
    pub instructions: usize,
    /// Entries of functions this one calls via `jal`.
    pub callees: BTreeSet<u32>,
    /// Addresses of `jalr` call sites inside the body, whose targets the
    /// static walk cannot resolve.
    pub indirect_sites: Vec<u32>,
}

/// The static `jal` call graph over a set of root entry points.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Discovered functions by entry address.
    pub functions: BTreeMap<u32, FuncInfo>,
    /// Function entries that sit on a `jal` cycle (static recursion).
    pub recursive: Vec<u32>,
    /// Longest acyclic call chain (in functions) from any root.
    pub max_depth: usize,
}

impl CallGraph {
    /// Walks each root's function body, following branches and `j`
    /// intra-procedurally and `jal` as call edges, until the whole
    /// statically reachable call graph is discovered.
    pub fn build(images: &Images<'_>, roots: &[u32]) -> CallGraph {
        let mut graph = CallGraph::default();
        let mut pending: Vec<u32> = roots.to_vec();
        while let Some(entry) = pending.pop() {
            if graph.functions.contains_key(&entry) {
                continue;
            }
            let info = walk_function(images, entry);
            for &callee in &info.callees {
                pending.push(callee);
            }
            graph.functions.insert(entry, info);
        }
        graph.recursive = find_cycles(&graph.functions);
        graph.max_depth = max_depth(&graph.functions, roots, &graph.recursive);
        graph
    }

    /// Findings for every recursive function: recursion means no static
    /// bound on delivery-path length.
    pub fn recursion_findings(&self, images: &Images<'_>) -> Vec<Finding> {
        self.recursive
            .iter()
            .map(|&entry| {
                images.finding(
                    Lint::RecursiveCall,
                    entry,
                    "function participates in a jal call cycle; no static path bound exists",
                )
            })
            .collect()
    }
}

/// Linear sweep of one function body: follow branch targets and `j`
/// in-function, record `jal` callees and `jalr` sites, stop blocks at `jr`.
fn walk_function(images: &Images<'_>, entry: u32) -> FuncInfo {
    let mut seen = BTreeSet::new();
    let mut work = vec![entry];
    let mut callees = BTreeSet::new();
    let mut indirect_sites = Vec::new();
    while let Some(addr) = work.pop() {
        if !seen.insert(addr) {
            continue;
        }
        let Some(Some(inst)) = images.decode_at(addr) else {
            continue; // undecodable / off-image: the executor reports these
        };
        match inst {
            Instruction::Jal { target } => {
                callees.insert(sem::jump_target(addr, target));
                work.push(addr.wrapping_add(8)); // past the delay slot
                work.push(addr.wrapping_add(4)); // the slot itself
            }
            Instruction::Jalr { .. } => {
                indirect_sites.push(addr);
                work.push(addr.wrapping_add(8));
                work.push(addr.wrapping_add(4));
            }
            Instruction::J { target } => {
                work.push(sem::jump_target(addr, target));
                work.push(addr.wrapping_add(4));
            }
            Instruction::Jr { .. } => {
                work.push(addr.wrapping_add(4)); // delay slot still executes
            }
            Instruction::Beq { imm, .. }
            | Instruction::Bne { imm, .. }
            | Instruction::Blez { imm, .. }
            | Instruction::Bgtz { imm, .. }
            | Instruction::Bltz { imm, .. }
            | Instruction::Bgez { imm, .. } => {
                work.push(sem::branch_target(addr, imm));
                work.push(addr.wrapping_add(4));
                work.push(addr.wrapping_add(8));
            }
            Instruction::Bltzal { imm, .. } | Instruction::Bgezal { imm, .. } => {
                callees.insert(sem::branch_target(addr, imm));
                work.push(addr.wrapping_add(4));
                work.push(addr.wrapping_add(8));
            }
            Instruction::Hcall { .. } | Instruction::Xpcu => {
                // Terminators for the walk: control leaves the guest ISA.
            }
            _ => {
                work.push(addr.wrapping_add(4));
            }
        }
    }
    let location = match images.program_at(entry).and_then(|(_, p)| p.locate(entry)) {
        Some((label, 0)) => label.to_string(),
        Some((label, off)) => format!("{label}+{off:#x}"),
        None => format!("{entry:#010x}"),
    };
    FuncInfo {
        entry,
        location,
        instructions: seen.len(),
        callees,
        indirect_sites,
    }
}

/// Entries on a call cycle, via DFS with an on-stack set.
fn find_cycles(functions: &BTreeMap<u32, FuncInfo>) -> Vec<u32> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Unvisited,
        OnStack,
        Done,
    }
    let mut marks: BTreeMap<u32, Mark> = functions.keys().map(|&k| (k, Mark::Unvisited)).collect();
    let mut cyclic = BTreeSet::new();
    fn dfs(
        entry: u32,
        functions: &BTreeMap<u32, FuncInfo>,
        marks: &mut BTreeMap<u32, Mark>,
        cyclic: &mut BTreeSet<u32>,
    ) {
        marks.insert(entry, Mark::OnStack);
        if let Some(info) = functions.get(&entry) {
            for &callee in &info.callees {
                match marks.get(&callee).copied() {
                    Some(Mark::Unvisited) => dfs(callee, functions, marks, cyclic),
                    Some(Mark::OnStack) => {
                        cyclic.insert(callee);
                        cyclic.insert(entry);
                    }
                    _ => {}
                }
            }
        }
        marks.insert(entry, Mark::Done);
    }
    let entries: Vec<u32> = functions.keys().copied().collect();
    for entry in entries {
        if marks.get(&entry) == Some(&Mark::Unvisited) {
            dfs(entry, functions, &mut marks, &mut cyclic);
        }
    }
    cyclic.into_iter().collect()
}

/// Longest acyclic root-to-leaf call chain, skipping recursive components
/// (their depth is unbounded and reported separately).
fn max_depth(functions: &BTreeMap<u32, FuncInfo>, roots: &[u32], recursive: &[u32]) -> usize {
    fn depth(
        entry: u32,
        functions: &BTreeMap<u32, FuncInfo>,
        recursive: &[u32],
        memo: &mut BTreeMap<u32, usize>,
    ) -> usize {
        if recursive.contains(&entry) {
            return 1;
        }
        if let Some(&d) = memo.get(&entry) {
            return d;
        }
        memo.insert(entry, 1); // cycle guard; recursive entries filtered above
        let d = 1 + functions
            .get(&entry)
            .map(|i| {
                i.callees
                    .iter()
                    .map(|&c| depth(c, functions, recursive, memo))
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        memo.insert(entry, d);
        d
    }
    let mut memo = BTreeMap::new();
    roots
        .iter()
        .map(|&r| depth(r, functions, recursive, &mut memo))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use efex_mips::asm::assemble;

    #[test]
    fn discovers_callees_and_depth() {
        let prog = assemble(
            r#"
            .org 0x80001000
            main:
                jal mid
                nop
                jr $ra
                nop
            mid:
                jal leaf
                nop
                jr $ra
                nop
            leaf:
                jr $ra
                nop
            "#,
        )
        .unwrap();
        let images = Images::new(vec![("test", &prog)]);
        let g = CallGraph::build(&images, &[prog.symbol("main").unwrap()]);
        assert_eq!(g.functions.len(), 3);
        assert!(g.recursive.is_empty());
        assert_eq!(g.max_depth, 3);
    }

    #[test]
    fn flags_recursion() {
        let prog = assemble(
            r#"
            .org 0x80001000
            even:
                jal odd
                nop
                jr $ra
                nop
            odd:
                jal even
                nop
                jr $ra
                nop
            "#,
        )
        .unwrap();
        let images = Images::new(vec![("test", &prog)]);
        let g = CallGraph::build(&images, &[prog.symbol("even").unwrap()]);
        assert_eq!(g.recursive.len(), 2);
        let findings = g.recursion_findings(&images);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].message.contains("call cycle"));
    }
}
