//! Slot-resolved bytecode: the fast packet path.
//!
//! The reference interpreter ([`crate::interp`]) walks the AST per packet
//! and resolves every table/map/register/counter/meter/service reference by
//! *name* through `BTreeMap`s — exactly the cost the paper says runtime
//! programmability must not impose on the data plane. This module lowers a
//! type-checked program **once, at install/flip time**, into a flat
//! instruction array in which every symbol is a dense `u16` slot index and
//! every field path is an interned id. Devices keep a matching slot-indexed
//! state plane and swap whole compiled images atomically on a flip, so the
//! old-XOR-new reconfiguration semantics are untouched.
//!
//! The lowering is **exactly** semantics- and ops-count-preserving with
//! respect to the interpreter: every AST node that ticks the abstract op
//! counter compiles to exactly one ticking instruction (jump/glue
//! instructions tick zero), short-circuit evaluation skips the same
//! sub-expressions, and runtime error messages on the reachable error paths
//! (action arity mismatches) are byte-identical. The differential test
//! suite in `tests/` holds this line.
//!
//! Name resolution failures surface here, at compile time, as
//! [`FlexError::UnresolvedSymbol`] — never as a silent per-packet miss.

use crate::ast::*;
use crate::headers::HeaderRegistry;
use crate::interp::{eval_bin, hash_values, ExecEnv, ExecOutcome, GAS_UNLIMITED, MAX_TABLE_KEY_WIDTH};
use flexnet_types::{names, FlexError, Fields, Header, Name, Packet, Result, Trap, Verdict};
use std::collections::BTreeMap;

/// The kind of symbol a [`SlotResolver`] is asked to resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// A match/action table.
    Table,
    /// A key/value map state object.
    Map,
    /// A register array state object.
    Register,
    /// A counter state object.
    Counter,
    /// A meter state object.
    Meter,
    /// A dRPC service.
    Service,
}

impl SymbolKind {
    /// The single-token label used in [`FlexError::UnresolvedSymbol`].
    pub fn as_str(&self) -> &'static str {
        match self {
            SymbolKind::Table => "table",
            SymbolKind::Map => "map",
            SymbolKind::Register => "register",
            SymbolKind::Counter => "counter",
            SymbolKind::Meter => "meter",
            SymbolKind::Service => "service",
        }
    }
}

/// Maps symbol names to the dense slot indices of a concrete state plane.
///
/// The device models implement this over their slot-indexed table sets and
/// state planes; [`ProgramResolver`] implements it positionally over the
/// program's own declarations (the layout `TableSet::from_decls` /
/// `DeviceState::from_decls` produce at install time).
pub trait SlotResolver {
    /// Resolves `name` of `kind` to its slot, or `None` if the target
    /// image does not provide it.
    fn resolve(&self, kind: SymbolKind, name: &str) -> Option<u16>;
}

/// A [`SlotResolver`] assigning slots by declaration position: table `i` of
/// the program gets slot `i`, and each state kind is numbered independently
/// in declaration order (map 0, 1, …; register 0, 1, …; and so on).
#[derive(Debug, Clone, Copy)]
pub struct ProgramResolver<'a> {
    program: &'a Program,
}

impl<'a> ProgramResolver<'a> {
    /// A resolver over `program`'s own declarations.
    pub fn new(program: &'a Program) -> ProgramResolver<'a> {
        ProgramResolver { program }
    }

    fn state_slot(&self, name: &str, want: fn(&StateKind) -> bool) -> Option<u16> {
        self.program
            .states
            .iter()
            .filter(|s| want(&s.kind))
            .position(|s| s.name == name)
            .map(|i| i as u16)
    }
}

impl SlotResolver for ProgramResolver<'_> {
    fn resolve(&self, kind: SymbolKind, name: &str) -> Option<u16> {
        match kind {
            SymbolKind::Table => self
                .program
                .tables
                .iter()
                .position(|t| t.name == name)
                .map(|i| i as u16),
            SymbolKind::Map => self.state_slot(name, |k| matches!(k, StateKind::Map { .. })),
            SymbolKind::Register => {
                self.state_slot(name, |k| matches!(k, StateKind::Register { .. }))
            }
            SymbolKind::Counter => self.state_slot(name, |k| matches!(k, StateKind::Counter)),
            SymbolKind::Meter => self.state_slot(name, |k| matches!(k, StateKind::Meter { .. })),
            SymbolKind::Service => self
                .program
                .services
                .iter()
                .position(|s| s.name == name)
                .map(|i| i as u16),
        }
    }
}

/// The environment compiled programs execute against: the device's state
/// plane addressed by dense slot indices instead of names.
///
/// Mirrors [`ExecEnv`] operation for operation; the only structural change
/// is `table_lookup`, which returns the matched entry's *resolved action
/// index* and a borrow of its argument vector, so the hot path neither
/// hashes a string nor clones an `ActionCall`.
pub trait SlotEnv {
    /// Looks up `keys` in table `table`, returning `(action index within
    /// the table's declared actions, action arguments)` on a hit.
    fn table_lookup(&mut self, table: u16, keys: &[u64]) -> Option<(u16, &[u64])>;
    /// Reads a map; `None` on a miss.
    fn map_get(&mut self, map: u16, key: u64) -> Option<u64>;
    /// Inserts/updates a map entry. May fail when the map is full.
    fn map_put(&mut self, map: u16, key: u64, value: u64) -> Result<()>;
    /// Deletes a map entry (no-op on a miss).
    fn map_del(&mut self, map: u16, key: u64);
    /// Reads a register cell. Returns [`Trap::StateOutOfBounds`] when a
    /// post-verification reconfiguration shrank the register under the
    /// program's static proof.
    fn reg_read(&mut self, reg: u16, idx: u64) -> Result<u64>;
    /// Writes a register cell (same bounds contract as [`SlotEnv::reg_read`]).
    fn reg_write(&mut self, reg: u16, idx: u64, val: u64) -> Result<()>;
    /// Adds to a counter.
    fn counter_add(&mut self, counter: u16, pkts: u64, bytes: u64);
    /// Reads a counter's packet count.
    fn counter_read(&mut self, counter: u16) -> u64;
    /// Checks a meter for `key`; `true` when conforming.
    fn meter_check(&mut self, meter: u16, key: u64) -> bool;
    /// Invokes a dRPC service (fire-and-forget).
    fn invoke_service(&mut self, service: u16, args: &[u64]);
}

/// One flat instruction. Instructions that correspond to an AST node tick
/// the op counter by the same amount the interpreter does for that node;
/// pure control glue ([`Insn::Jump`], [`Insn::BoolCast`], [`Insn::LoopTest`],
/// [`Insn::ActionEnd`], [`Insn::EndHandler`]) ticks zero, keeping the two
/// engines' op counts identical on every path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// Push an integer literal.
    PushInt(u64),
    /// Push a local slot's value.
    PushLocal(u16),
    /// Push a packet field (interned dotted-path id); absent fields read 0.
    PushField(u32),
    /// Push 1 if the header (interned proto id) is present, else 0.
    PushValid(u32),
    /// Pop a key; push the map value or 0 on a miss.
    MapGet(u16),
    /// Pop a key; push 1 if present, else 0.
    MapHas(u16),
    /// Pop an index; push the register cell.
    RegRead(u16),
    /// Push a counter's packet count.
    CounterRead(u16),
    /// Pop a key; push 1 when the meter conforms, else 0.
    MeterCheck(u16),
    /// Pop the top `n` values (in push order) and push their FNV-1a hash.
    Hash(u16),
    /// Push the packet's wire length.
    PktLen,
    /// Pop `b` then `a`; push `a op b` (wrapping semantics; division and
    /// modulo by zero raise [`Trap::DivisionByZero`]).
    Bin(BinOp),
    /// Pop `a`; push the unary result.
    Un(UnOp),
    /// Short-circuit `&&`: pop `a`; if zero, push 0 and jump to the target,
    /// else fall through to the right-hand side. Ticks the `&&` node's op.
    LAndProbe(u32),
    /// Short-circuit `||`: pop `a`; if nonzero, push 1 and jump to the
    /// target, else fall through. Ticks the `||` node's op.
    LOrProbe(u32),
    /// Pop `b`; push `b != 0` (completes a non-short-circuited `&&`/`||`).
    BoolCast,
    /// Unconditional jump (glue; ticks zero).
    Jump(u32),
    /// Pop a value into a local slot (`let` / local assignment).
    StoreLocal(u16),
    /// Pop a value into a packet field (interned dotted-path id).
    StoreField(u32),
    /// Pop value then key; insert into the map (full maps drop the insert).
    MapPut(u16),
    /// Pop a key; delete it from the map.
    MapDelete(u16),
    /// Pop value then index; write the register cell.
    RegWrite(u16),
    /// Bump a counter by one packet / the packet's wire length.
    Count(u16),
    /// Pop the condition; jump to the target when it is zero (the `if`).
    BranchIfZero(u32),
    /// Begin a `repeat`: push the iteration count on the loop stack.
    LoopEnter(u64),
    /// Loop head: exit to the target when the count hits zero, else
    /// decrement and fall into the body (glue; ticks zero).
    LoopTest(u32),
    /// Apply a table: build keys, look up, dispatch the matched or default
    /// action (ticks the interpreter's `1 + 3` apply ops).
    Apply(u16),
    /// Return from an action body to the apply site (glue; ticks zero).
    ActionEnd,
    /// Halt with a fixed verdict (`drop()` / `punt()` / `recirculate()`).
    HaltVerdict(Verdict),
    /// Pop the port; halt with `Forward(port)`.
    HaltForward,
    /// Halt with no verdict (`return;`).
    HaltNone,
    /// Fell off the end of the handler: no verdict (glue; ticks zero).
    EndHandler,
    /// Pop the top `n` values (in push order) and invoke the service.
    Invoke(u16, u16),
    /// Add a header from the interned template if not already present.
    AddHeader(u32),
    /// Remove a header (interned proto id).
    RemoveHeader(u32),
}

/// An action's compiled footprint inside a [`TableMeta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionMeta {
    /// The action's declared name (kept for runtime error messages).
    pub name: String,
    /// Entry pc of the compiled body.
    pub entry: u32,
    /// First local slot of the parameter block.
    pub param_base: u16,
    /// Declared parameter count.
    pub arity: u16,
}

/// A table's compiled metadata, referenced by [`Insn::Apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// The table's declared name (kept for runtime error messages).
    pub name: String,
    /// The state-plane slot passed to [`SlotEnv::table_lookup`].
    pub slot: u16,
    /// Interned dotted-path ids of the match keys, in declaration order.
    pub key_fields: Vec<u32>,
    /// Compiled actions, indexed by declaration position.
    pub actions: Vec<ActionMeta>,
    /// The default action (index + args), resolved at compile time.
    pub default: Option<(u16, Vec<u64>)>,
}

/// A header-insertion template precomputed from the registry, so
/// `add_header` allocates nothing but the header itself on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderTemplate {
    /// The protocol name.
    pub proto: Name,
    /// All declared fields, zeroed.
    pub fields: Fields,
    /// Where to insert: after this protocol, or at the top of the stack.
    pub after: Option<Name>,
}

/// A program lowered to slot-resolved bytecode.
///
/// Everything name-shaped was resolved at compile time; the per-kind
/// `*_names` vectors (slot → name) exist so adapters and logs can translate
/// back without consulting the AST.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompiledProgram {
    /// The source program's name.
    pub name: String,
    /// The flat instruction array.
    pub insns: Vec<Insn>,
    /// Handler entry points: `(name, pc)`.
    pub handlers: Vec<(String, u32)>,
    /// Table metadata, indexed by [`Insn::Apply`]'s operand.
    pub tables: Vec<TableMeta>,
    /// Interned dotted field paths (`ipv4.src`, `meta.mark`, …), for
    /// display.
    pub field_names: Vec<String>,
    /// The same fields as resolved `(proto, field)` names, index-aligned
    /// with [`CompiledProgram::field_names`]; `meta` fields carry
    /// [`names::META`] as their protocol. The VM reads and writes packets
    /// through these, so a field access compares pointers.
    pub field_parts: Vec<(Name, Name)>,
    /// Interned protocol names (for `valid` / `remove_header`).
    pub proto_names: Vec<Name>,
    /// Header-insertion templates (for `add_header`).
    pub header_templates: Vec<HeaderTemplate>,
    /// Service names by slot (for invocation logging / adapters).
    pub service_names: Vec<String>,
    /// Map names by slot.
    pub map_names: Vec<String>,
    /// Register names by slot.
    pub register_names: Vec<String>,
    /// Counter names by slot.
    pub counter_names: Vec<String>,
    /// Meter names by slot.
    pub meter_names: Vec<String>,
    /// Local slot count (the VM's frame size).
    pub n_locals: u16,
}

impl CompiledProgram {
    /// The entry pc of `handler`, if compiled.
    pub fn handler_entry(&self, handler: &str) -> Option<u32> {
        self.handlers
            .iter()
            .find(|(n, _)| n == handler)
            .map(|(_, pc)| *pc)
    }

    /// The declaration index of `action` within the table compiled at
    /// state-plane slot `table_slot`. Used by name-keyed adapter
    /// environments to translate an `ActionCall` into the VM's indices.
    pub fn action_index(&self, table_slot: u16, action: &str) -> Option<u16> {
        self.tables
            .iter()
            .find(|t| t.slot == table_slot)?
            .actions
            .iter()
            .position(|a| a.name == action)
            .map(|i| i as u16)
    }
}

fn unresolved(kind: SymbolKind, name: &str) -> FlexError {
    FlexError::UnresolvedSymbol {
        kind: kind.as_str().into(),
        name: name.into(),
    }
}

/// Compiles `program` to bytecode, resolving every symbol through
/// `resolver`. The program must already have passed the type checker; the
/// compiler still reports dangling names as
/// [`FlexError::UnresolvedSymbol`] rather than panicking, because runtime
/// reconfiguration rebuilds images against a *device's* slot layout, which
/// adversarial tests deliberately desynchronize.
pub fn compile(
    program: &Program,
    registry: &HeaderRegistry,
    resolver: &dyn SlotResolver,
) -> Result<CompiledProgram> {
    let mut c = Compiler {
        registry,
        resolver,
        out: CompiledProgram {
            name: program.name.clone(),
            ..CompiledProgram::default()
        },
        field_ids: BTreeMap::new(),
        proto_ids: BTreeMap::new(),
        template_ids: BTreeMap::new(),
        scopes: Vec::new(),
        next_local: 0,
    };

    // Slot → name reverse maps, so adapters and invocation logs can
    // translate without the AST. Dangling state/service declarations are
    // impossible from ProgramResolver but possible against a foreign
    // (device) layout — surface them now, not per packet.
    for s in &program.states {
        let (kind, names) = match s.kind {
            StateKind::Map { .. } => (SymbolKind::Map, &mut c.out.map_names),
            StateKind::Register { .. } => (SymbolKind::Register, &mut c.out.register_names),
            StateKind::Counter => (SymbolKind::Counter, &mut c.out.counter_names),
            StateKind::Meter { .. } => (SymbolKind::Meter, &mut c.out.meter_names),
        };
        let slot = c
            .resolver
            .resolve(kind, &s.name)
            .ok_or_else(|| unresolved(kind, &s.name))? as usize;
        if names.len() <= slot {
            names.resize(slot + 1, String::new());
        }
        names[slot] = s.name.clone();
    }
    for s in &program.services {
        let slot = c
            .resolver
            .resolve(SymbolKind::Service, &s.name)
            .ok_or_else(|| unresolved(SymbolKind::Service, &s.name))? as usize;
        if c.out.service_names.len() <= slot {
            c.out.service_names.resize(slot + 1, String::new());
        }
        c.out.service_names[slot] = s.name.clone();
    }

    // Pass 1: compile every table's actions as subroutines and build the
    // table metadata (including the resolved default action).
    for t in &program.tables {
        let slot = c
            .resolver
            .resolve(SymbolKind::Table, &t.name)
            .ok_or_else(|| unresolved(SymbolKind::Table, &t.name))?;
        let key_fields = t.keys.iter().map(|k| c.intern_field(&k.field)).collect();
        let mut actions = Vec::with_capacity(t.actions.len());
        for a in &t.actions {
            let param_base = c.next_local;
            c.scopes.clear();
            c.scopes.push(BTreeMap::new());
            for (p, _) in &a.params {
                let s = c.alloc_local()?;
                c.scopes.last_mut().expect("frame").insert(p.clone(), s);
            }
            let entry = c.out.insns.len() as u32;
            c.compile_block(&a.body)?;
            c.out.insns.push(Insn::ActionEnd);
            actions.push(ActionMeta {
                name: a.name.clone(),
                entry,
                param_base,
                arity: a.params.len() as u16,
            });
        }
        let default = match &t.default_action {
            Some(call) => {
                let idx = actions
                    .iter()
                    .position(|a| a.name == call.action)
                    .ok_or_else(|| {
                        FlexError::UnresolvedSymbol {
                            kind: "action".into(),
                            name: call.action.clone(),
                        }
                    })?;
                if actions[idx].arity as usize != call.args.len() {
                    return Err(FlexError::Compile(format!(
                        "table `{}` default action `{}` arity mismatch",
                        t.name, call.action
                    )));
                }
                Some((idx as u16, call.args.clone()))
            }
            None => None,
        };
        c.out.tables.push(TableMeta {
            name: t.name.clone(),
            slot,
            key_fields,
            actions,
            default,
        });
    }

    // Pass 2: compile the handlers.
    for h in &program.handlers {
        c.scopes.clear();
        c.scopes.push(BTreeMap::new());
        let entry = c.out.insns.len() as u32;
        c.compile_block(&h.body)?;
        c.out.insns.push(Insn::EndHandler);
        c.out.handlers.push((h.name.clone(), entry));
    }

    c.out.n_locals = c.next_local;
    Ok(c.out)
}

/// Compiles `program` against its own declaration order (the layout devices
/// build at install time) via [`ProgramResolver`].
pub fn compile_with_program_slots(
    program: &Program,
    registry: &HeaderRegistry,
) -> Result<CompiledProgram> {
    compile(program, registry, &ProgramResolver::new(program))
}

struct Compiler<'a> {
    registry: &'a HeaderRegistry,
    resolver: &'a dyn SlotResolver,
    out: CompiledProgram,
    field_ids: BTreeMap<String, u32>,
    proto_ids: BTreeMap<String, u32>,
    template_ids: BTreeMap<String, u32>,
    /// Lexical frames, innermost last — mirrors the type checker exactly,
    /// which is what makes compile-time slot assignment sound.
    scopes: Vec<BTreeMap<String, u16>>,
    next_local: u16,
}

impl Compiler<'_> {
    fn alloc_local(&mut self) -> Result<u16> {
        let s = self.next_local;
        self.next_local = self
            .next_local
            .checked_add(1)
            .ok_or_else(|| FlexError::Compile("too many locals".into()))?;
        Ok(s)
    }

    fn local(&self, name: &str) -> Result<u16> {
        self.scopes
            .iter()
            .rev()
            .find_map(|f| f.get(name).copied())
            .ok_or_else(|| FlexError::UnresolvedSymbol {
                kind: "local".into(),
                name: name.into(),
            })
    }

    fn intern_field(&mut self, p: &FieldPath) -> u32 {
        let dotted = p.dotted();
        if let Some(&id) = self.field_ids.get(&dotted) {
            return id;
        }
        let id = self.out.field_names.len() as u32;
        self.out.field_names.push(dotted.clone());
        self.out.field_parts.push(match p {
            FieldPath::Header(proto, field) => (Name::new(proto), Name::new(field)),
            FieldPath::Meta(field) => (names::META, Name::new(field)),
        });
        self.field_ids.insert(dotted, id);
        id
    }

    fn intern_proto(&mut self, proto: &str) -> u32 {
        if let Some(&id) = self.proto_ids.get(proto) {
            return id;
        }
        let id = self.out.proto_names.len() as u32;
        self.out.proto_names.push(Name::new(proto));
        self.proto_ids.insert(proto.to_string(), id);
        id
    }

    fn intern_template(&mut self, proto: &str) -> u32 {
        if let Some(&id) = self.template_ids.get(proto) {
            return id;
        }
        // Mirrors the interpreter: unknown protos insert an empty-field
        // header at the top of the stack.
        let decl = self.registry.decl(proto);
        let fields = decl
            .map(|d| d.fields.iter().map(|f| (&f.name, 0)).collect())
            .unwrap_or_default();
        let after = decl
            .and_then(|d| d.follows.as_ref())
            .map(|f| Name::new(&f.prev_proto));
        let id = self.out.header_templates.len() as u32;
        self.out.header_templates.push(HeaderTemplate {
            proto: Name::new(proto),
            fields,
            after,
        });
        self.template_ids.insert(proto.to_string(), id);
        id
    }

    fn slot(&self, kind: SymbolKind, name: &str) -> Result<u16> {
        self.resolver
            .resolve(kind, name)
            .ok_or_else(|| unresolved(kind, name))
    }

    fn here(&self) -> u32 {
        self.out.insns.len() as u32
    }

    /// Emits a placeholder jump operand, returning its position for
    /// [`Self::patch`].
    fn emit_patched(&mut self, make: fn(u32) -> Insn) -> usize {
        self.out.insns.push(make(u32::MAX));
        self.out.insns.len() - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        let insn = &mut self.out.insns[at];
        match insn {
            Insn::Jump(t)
            | Insn::BranchIfZero(t)
            | Insn::LoopTest(t)
            | Insn::LAndProbe(t)
            | Insn::LOrProbe(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn compile_block(&mut self, block: &Block) -> Result<()> {
        self.scopes.push(BTreeMap::new());
        for stmt in block {
            self.compile_stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn compile_stmt(&mut self, stmt: &Stmt) -> Result<()> {
        match stmt {
            Stmt::Let(n, e) => {
                self.compile_expr(e)?;
                // A fresh slot per `let`, even when an outer block already
                // used the name (the checker forbids reads across the gap,
                // so distinct slots are unobservable).
                let s = self.alloc_local()?;
                self.scopes.last_mut().expect("frame").insert(n.clone(), s);
                self.out.insns.push(Insn::StoreLocal(s));
            }
            Stmt::AssignLocal(n, e) => {
                self.compile_expr(e)?;
                let s = self.local(n)?;
                self.out.insns.push(Insn::StoreLocal(s));
            }
            Stmt::AssignField(p, e) => {
                self.compile_expr(e)?;
                let f = self.intern_field(p);
                self.out.insns.push(Insn::StoreField(f));
            }
            Stmt::MapPut(m, k, v) => {
                self.compile_expr(k)?;
                self.compile_expr(v)?;
                let s = self.slot(SymbolKind::Map, m)?;
                self.out.insns.push(Insn::MapPut(s));
            }
            Stmt::MapDelete(m, k) => {
                self.compile_expr(k)?;
                let s = self.slot(SymbolKind::Map, m)?;
                self.out.insns.push(Insn::MapDelete(s));
            }
            Stmt::RegWrite(r, i, v) => {
                self.compile_expr(i)?;
                self.compile_expr(v)?;
                let s = self.slot(SymbolKind::Register, r)?;
                self.out.insns.push(Insn::RegWrite(s));
            }
            Stmt::Count(c) => {
                let s = self.slot(SymbolKind::Counter, c)?;
                self.out.insns.push(Insn::Count(s));
            }
            Stmt::If(cond, then, els) => {
                self.compile_expr(cond)?;
                let br = self.emit_patched(Insn::BranchIfZero);
                self.compile_block(then)?;
                if els.is_empty() {
                    let end = self.here();
                    self.patch(br, end);
                } else {
                    let skip = self.emit_patched(Insn::Jump);
                    let else_at = self.here();
                    self.patch(br, else_at);
                    self.compile_block(els)?;
                    let end = self.here();
                    self.patch(skip, end);
                }
            }
            Stmt::Repeat(n, body) => {
                self.out.insns.push(Insn::LoopEnter(*n));
                let head = self.here();
                let test = self.emit_patched(Insn::LoopTest);
                self.compile_block(body)?;
                self.out.insns.push(Insn::Jump(head));
                let end = self.here();
                self.patch(test, end);
            }
            Stmt::Apply(tname) => {
                let idx = self
                    .out
                    .tables
                    .iter()
                    .position(|t| t.name == *tname)
                    .ok_or_else(|| unresolved(SymbolKind::Table, tname))?;
                self.out.insns.push(Insn::Apply(idx as u16));
            }
            Stmt::Drop => self.out.insns.push(Insn::HaltVerdict(Verdict::Drop)),
            Stmt::Forward(e) => {
                self.compile_expr(e)?;
                self.out.insns.push(Insn::HaltForward);
            }
            Stmt::Punt => self.out.insns.push(Insn::HaltVerdict(Verdict::ToController)),
            Stmt::Recirculate => self
                .out
                .insns
                .push(Insn::HaltVerdict(Verdict::Recirculate)),
            Stmt::Invoke(svc, args) => {
                for a in args {
                    self.compile_expr(a)?;
                }
                let s = self.slot(SymbolKind::Service, svc)?;
                self.out.insns.push(Insn::Invoke(s, args.len() as u16));
            }
            Stmt::AddHeader(proto) => {
                let t = self.intern_template(proto);
                self.out.insns.push(Insn::AddHeader(t));
            }
            Stmt::RemoveHeader(proto) => {
                let p = self.intern_proto(proto);
                self.out.insns.push(Insn::RemoveHeader(p));
            }
            Stmt::Return => self.out.insns.push(Insn::HaltNone),
        }
        Ok(())
    }

    fn compile_expr(&mut self, e: &Expr) -> Result<()> {
        match e {
            Expr::Int(v) => self.out.insns.push(Insn::PushInt(*v)),
            Expr::Local(n) => {
                let s = self.local(n)?;
                self.out.insns.push(Insn::PushLocal(s));
            }
            Expr::Field(p) => {
                let f = self.intern_field(p);
                self.out.insns.push(Insn::PushField(f));
            }
            Expr::Valid(proto) => {
                let p = self.intern_proto(proto);
                self.out.insns.push(Insn::PushValid(p));
            }
            Expr::MapGet(m, k) => {
                self.compile_expr(k)?;
                let s = self.slot(SymbolKind::Map, m)?;
                self.out.insns.push(Insn::MapGet(s));
            }
            Expr::MapHas(m, k) => {
                self.compile_expr(k)?;
                let s = self.slot(SymbolKind::Map, m)?;
                self.out.insns.push(Insn::MapHas(s));
            }
            Expr::RegRead(r, i) => {
                self.compile_expr(i)?;
                let s = self.slot(SymbolKind::Register, r)?;
                self.out.insns.push(Insn::RegRead(s));
            }
            Expr::CounterRead(c) => {
                let s = self.slot(SymbolKind::Counter, c)?;
                self.out.insns.push(Insn::CounterRead(s));
            }
            Expr::MeterCheck(m, k) => {
                self.compile_expr(k)?;
                let s = self.slot(SymbolKind::Meter, m)?;
                self.out.insns.push(Insn::MeterCheck(s));
            }
            Expr::Hash(args) => {
                for a in args {
                    self.compile_expr(a)?;
                }
                self.out.insns.push(Insn::Hash(args.len() as u16));
            }
            Expr::PktLen => self.out.insns.push(Insn::PktLen),
            Expr::Bin(BinOp::LAnd, l, r) => {
                self.compile_expr(l)?;
                let probe = self.emit_patched(Insn::LAndProbe);
                self.compile_expr(r)?;
                self.out.insns.push(Insn::BoolCast);
                let end = self.here();
                self.patch(probe, end);
            }
            Expr::Bin(BinOp::LOr, l, r) => {
                self.compile_expr(l)?;
                let probe = self.emit_patched(Insn::LOrProbe);
                self.compile_expr(r)?;
                self.out.insns.push(Insn::BoolCast);
                let end = self.here();
                self.patch(probe, end);
            }
            Expr::Bin(op, l, r) => {
                self.compile_expr(l)?;
                self.compile_expr(r)?;
                self.out.insns.push(Insn::Bin(*op));
            }
            Expr::Un(op, v) => {
                self.compile_expr(v)?;
                self.out.insns.push(Insn::Un(*op));
            }
        }
        Ok(())
    }
}

/// Executes `handler` of a compiled program over `pkt` against `env` with
/// no gas limit. See [`execute_compiled_metered`] for the sandboxed form.
pub fn execute_compiled(
    prog: &CompiledProgram,
    handler: &str,
    pkt: &mut Packet,
    env: &mut dyn SlotEnv,
) -> Result<ExecOutcome> {
    execute_compiled_metered(prog, handler, pkt, env, GAS_UNLIMITED)
}

/// Reusable VM frame storage: operand stack, locals, loop counters, call
/// frames, and the table-key staging buffer.
///
/// The burst path keeps one `VmScratch` alive across an entire packet
/// vector so the per-packet frame setup is a handful of `clear()`s on
/// already-sized buffers instead of five heap allocations. A fresh
/// `VmScratch` per call (what [`execute_compiled_metered`] does) reproduces
/// the historical single-packet cost profile exactly.
#[derive(Debug, Default)]
pub struct VmScratch {
    stack: Vec<u64>,
    locals: Vec<u64>,
    loops: Vec<u64>,
    calls: Vec<usize>,
    keys: Vec<u64>,
    /// Prefetched field values, index-aligned with
    /// [`CompiledProgram::field_names`]. Only the vector executor
    /// ([`execute_compiled_vector`]) populates and reads this lane.
    fields: Vec<u64>,
}

impl VmScratch {
    /// An empty scratch with the historical initial capacities.
    pub fn new() -> VmScratch {
        VmScratch {
            stack: Vec::with_capacity(16),
            locals: Vec::new(),
            loops: Vec::new(),
            calls: Vec::new(),
            keys: Vec::with_capacity(4),
            fields: Vec::new(),
        }
    }
}

/// Executes `handler` of a compiled program over `pkt` against `env` under
/// a gas budget of `gas` abstract operations.
///
/// Verdicts, op counts, state effects, and traps are identical to
/// [`crate::interp::execute_metered`] on the same program — the
/// differential suite in `tests/` asserts this over every example program,
/// randomized packets, and trapping inputs. Faults attributable to the
/// packet or to a post-verification reconfiguration come back as `Ok`
/// outcomes carrying a [`Trap`]; an inconsistent image itself (stack/pc/
/// frame invariants broken) traps as [`Trap::CorruptImage`] so a device can
/// fail closed rather than crash its sweep.
pub fn execute_compiled_metered(
    prog: &CompiledProgram,
    handler: &str,
    pkt: &mut Packet,
    env: &mut dyn SlotEnv,
    gas: u64,
) -> Result<ExecOutcome> {
    let entry = prog
        .handler_entry(handler)
        .ok_or_else(|| FlexError::NotFound(format!("handler `{handler}`")))?;
    execute_compiled_at(prog, entry, pkt, env, gas, &mut VmScratch::new())
}

/// The burst-path executor: `handler_entry` already resolved to `entry`,
/// frame storage supplied by the caller, and the environment type left
/// generic so a device's concrete [`SlotEnv`] monomorphizes state access
/// into direct calls instead of vtable dispatch.
///
/// Semantics (verdicts, op counts, traps, state effects) are *identical* to
/// [`execute_compiled_metered`], which is now a thin wrapper over this.
pub fn execute_compiled_at<E: SlotEnv + ?Sized>(
    prog: &CompiledProgram,
    entry: u32,
    pkt: &mut Packet,
    env: &mut E,
    gas: u64,
    scratch: &mut VmScratch,
) -> Result<ExecOutcome> {
    exec_inner::<E, false>(prog, entry, pkt, env, gas, scratch)
}

/// The vector engine's executor: identical semantics to
/// [`execute_compiled_at`], plus a prefetched field-value lane. Every
/// interned field is read once into `scratch.fields` at handler entry
/// (and refreshed after any header-set mutation), so `PushField` and
/// table-key gathering become single indexed loads instead of a header
/// scan plus field lookup per access. Gas accounting, verdicts,
/// traps, and state effects are unchanged — the differential suite pins
/// burst (this executor) against single-packet (the legacy one) across
/// the whole gallery.
pub fn execute_compiled_vector<E: SlotEnv + ?Sized>(
    prog: &CompiledProgram,
    entry: u32,
    pkt: &mut Packet,
    env: &mut E,
    gas: u64,
    scratch: &mut VmScratch,
) -> Result<ExecOutcome> {
    exec_inner::<E, true>(prog, entry, pkt, env, gas, scratch)
}

/// The shared VM loop. `PREFETCH` selects the field-access strategy at
/// monomorphization time: `false` reads fields live from the packet on
/// every touch (the historical single-packet cost profile), `true` serves
/// them from the scratch's prefetched lane.
///
#[inline]
fn exec_inner<E: SlotEnv + ?Sized, const PREFETCH: bool>(
    prog: &CompiledProgram,
    entry: u32,
    pkt: &mut Packet,
    env: &mut E,
    gas: u64,
    scratch: &mut VmScratch,
) -> Result<ExecOutcome> {
    let mut pc = entry as usize;
    let mut ops: u64 = 0;
    scratch.stack.clear();
    scratch.loops.clear();
    scratch.calls.clear();
    scratch.keys.clear();
    scratch.locals.clear();
    scratch.locals.resize(prog.n_locals as usize, 0);
    let VmScratch {
        stack,
        locals,
        loops,
        calls,
        keys,
        fields,
    } = scratch;

    // (Re)loads the prefetch lane from the live packet. Free under the gas
    // meter — it only relocates reads the legacy path performs lazily.
    macro_rules! refetch {
        () => {
            if PREFETCH {
                fields.clear();
                for &(proto, field) in &prog.field_parts {
                    fields.push(pkt.get_field_at(proto, field).unwrap_or(0));
                }
            }
        };
    }
    refetch!();

    // Unwind to the packet boundary with a fail-closed trap outcome.
    macro_rules! trap {
        ($t:expr) => {
            return Ok(ExecOutcome {
                verdict: None,
                ops,
                trap: Some($t),
            })
        };
    }

    // Charge gas at exactly the interpreter's checkpoints; exhaustion fires
    // at the identical cumulative count in both engines.
    macro_rules! tick {
        ($n:expr) => {
            ops += $n;
            if ops > gas {
                trap!(Trap::GasExhausted { limit: gas });
            }
        };
    }

    macro_rules! pop {
        () => {
            match stack.pop() {
                Some(v) => v,
                None => trap!(Trap::CorruptImage {
                    reason: "bytecode stack underflow",
                }),
            }
        };
    }

    loop {
        let insn = match prog.insns.get(pc) {
            Some(i) => i,
            None => trap!(Trap::CorruptImage {
                reason: "bytecode pc out of range",
            }),
        };
        pc += 1;
        match insn {
            Insn::PushInt(v) => {
                tick!(1);
                stack.push(*v);
            }
            Insn::PushLocal(s) => {
                tick!(1);
                stack.push(locals[*s as usize]);
            }
            Insn::PushField(f) => {
                tick!(1);
                if PREFETCH {
                    stack.push(fields[*f as usize]);
                } else {
                    let (proto, field) = prog.field_parts[*f as usize];
                    stack.push(pkt.get_field_at(proto, field).unwrap_or(0));
                }
            }
            Insn::PushValid(p) => {
                tick!(1);
                stack.push(pkt.has_header(prog.proto_names[*p as usize]) as u64);
            }
            Insn::MapGet(m) => {
                tick!(1);
                let k = pop!();
                stack.push(env.map_get(*m, k).unwrap_or(0));
            }
            Insn::MapHas(m) => {
                tick!(1);
                let k = pop!();
                stack.push(env.map_get(*m, k).is_some() as u64);
            }
            Insn::RegRead(r) => {
                tick!(1);
                let i = pop!();
                match env.reg_read(*r, i) {
                    Ok(v) => stack.push(v),
                    Err(FlexError::Trap(t)) => trap!(t),
                    Err(e) => return Err(e),
                }
            }
            Insn::CounterRead(c) => {
                tick!(1);
                stack.push(env.counter_read(*c));
            }
            Insn::MeterCheck(m) => {
                tick!(1);
                let k = pop!();
                stack.push(env.meter_check(*m, k) as u64);
            }
            Insn::Hash(n) => {
                tick!(1);
                let at = stack.len() - *n as usize;
                let h = hash_values(&stack[at..]);
                stack.truncate(at);
                stack.push(h);
            }
            Insn::PktLen => {
                tick!(1);
                stack.push(pkt.wire_len() as u64);
            }
            Insn::Bin(op) => {
                tick!(1);
                let b = pop!();
                let a = pop!();
                match eval_bin(*op, a, b) {
                    Ok(v) => stack.push(v),
                    Err(FlexError::Trap(t)) => trap!(t),
                    Err(e) => return Err(e),
                }
            }
            Insn::Un(op) => {
                tick!(1);
                let a = pop!();
                stack.push(match op {
                    UnOp::Not => (a == 0) as u64,
                    UnOp::BitNot => !a,
                    UnOp::Neg => a.wrapping_neg(),
                });
            }
            Insn::LAndProbe(t) => {
                tick!(1);
                let a = pop!();
                if a == 0 {
                    stack.push(0);
                    pc = *t as usize;
                }
            }
            Insn::LOrProbe(t) => {
                tick!(1);
                let a = pop!();
                if a != 0 {
                    stack.push(1);
                    pc = *t as usize;
                }
            }
            Insn::BoolCast => {
                let b = pop!();
                stack.push((b != 0) as u64);
            }
            Insn::Jump(t) => pc = *t as usize,
            Insn::StoreLocal(s) => {
                tick!(1);
                locals[*s as usize] = pop!();
            }
            Insn::StoreField(f) => {
                tick!(1);
                let v = pop!();
                let (proto, field) = prog.field_parts[*f as usize];
                pkt.set_field_at(proto, field, v);
                if PREFETCH {
                    // Write-through: refresh just this lane slot from the
                    // packet (a store to a missing header is a no-op, which
                    // the re-read reproduces exactly).
                    fields[*f as usize] = pkt.get_field_at(proto, field).unwrap_or(0);
                }
            }
            Insn::MapPut(m) => {
                tick!(1);
                let v = pop!();
                let k = pop!();
                // A full map drops the insert; data planes degrade, not trap.
                let _ = env.map_put(*m, k, v);
            }
            Insn::MapDelete(m) => {
                tick!(1);
                let k = pop!();
                env.map_del(*m, k);
            }
            Insn::RegWrite(r) => {
                tick!(1);
                let v = pop!();
                let i = pop!();
                match env.reg_write(*r, i, v) {
                    Ok(()) => {}
                    Err(FlexError::Trap(t)) => trap!(t),
                    Err(e) => return Err(e),
                }
            }
            Insn::Count(c) => {
                tick!(1);
                env.counter_add(*c, 1, pkt.wire_len() as u64);
            }
            Insn::BranchIfZero(t) => {
                tick!(1);
                if pop!() == 0 {
                    pc = *t as usize;
                }
            }
            Insn::LoopEnter(n) => {
                tick!(1);
                loops.push(*n);
            }
            Insn::LoopTest(t) => {
                let top = match loops.last_mut() {
                    Some(t) => t,
                    None => trap!(Trap::CorruptImage {
                        reason: "bytecode loop underflow",
                    }),
                };
                if *top == 0 {
                    loops.pop();
                    pc = *t as usize;
                } else {
                    *top -= 1;
                }
            }
            Insn::Apply(t) => {
                // 1 for the statement + 3 for key build, lookup, dispatch —
                // matching the interpreter's accounting.
                tick!(4);
                let meta = &prog.tables[*t as usize];
                if meta.key_fields.len() > MAX_TABLE_KEY_WIDTH {
                    trap!(Trap::KeyOverflow {
                        table: meta.name.clone(),
                        width: meta.key_fields.len() as u64,
                        max: MAX_TABLE_KEY_WIDTH as u64,
                    });
                }
                keys.clear();
                for &f in &meta.key_fields {
                    keys.push(if PREFETCH {
                        fields[f as usize]
                    } else {
                        let (proto, field) = prog.field_parts[f as usize];
                        pkt.get_field_at(proto, field).unwrap_or(0)
                    });
                }
                let dispatch = match env.table_lookup(meta.slot, keys) {
                    Some((aidx, args)) => {
                        let Some(am) = meta.actions.get(aidx as usize) else {
                            // Only the index is known here; the interpreter
                            // reports the (unresolvable) name instead, so the
                            // differential suite compares this variant by
                            // kind, not payload.
                            let action = format!("#{aidx}");
                            trap!(Trap::UnknownAction {
                                table: meta.name.clone(),
                                action,
                            });
                        };
                        if am.arity as usize != args.len() {
                            let action = am.name.clone();
                            trap!(Trap::ArityMismatch {
                                table: meta.name.clone(),
                                action,
                            });
                        }
                        let base = am.param_base as usize;
                        locals[base..base + args.len()].copy_from_slice(args);
                        Some(am.entry)
                    }
                    None => match &meta.default {
                        Some((aidx, args)) => {
                            let am = &meta.actions[*aidx as usize];
                            let base = am.param_base as usize;
                            locals[base..base + args.len()].copy_from_slice(args);
                            Some(am.entry)
                        }
                        None => None,
                    },
                };
                if let Some(entry) = dispatch {
                    calls.push(pc);
                    pc = entry as usize;
                }
            }
            Insn::ActionEnd => {
                pc = match calls.pop() {
                    Some(p) => p,
                    None => trap!(Trap::CorruptImage {
                        reason: "bytecode call underflow",
                    }),
                };
            }
            Insn::HaltVerdict(v) => {
                tick!(1);
                return Ok(ExecOutcome {
                    verdict: Some(*v),
                    ops,
                    trap: None,
                });
            }
            Insn::HaltForward => {
                tick!(1);
                let port = pop!();
                return Ok(ExecOutcome {
                    verdict: Some(Verdict::Forward(port as u16)),
                    ops,
                    trap: None,
                });
            }
            Insn::HaltNone => {
                tick!(1);
                return Ok(ExecOutcome {
                    verdict: None,
                    ops,
                    trap: None,
                });
            }
            Insn::EndHandler => {
                return Ok(ExecOutcome {
                    verdict: None,
                    ops,
                    trap: None,
                })
            }
            Insn::Invoke(s, n) => {
                tick!(1);
                let at = stack.len() - *n as usize;
                env.invoke_service(*s, &stack[at..]);
                stack.truncate(at);
            }
            Insn::AddHeader(t) => {
                tick!(1);
                let tpl = &prog.header_templates[*t as usize];
                if !pkt.has_header(tpl.proto) {
                    pkt.insert_header(
                        Header {
                            proto: tpl.proto,
                            fields: tpl.fields.clone(),
                        },
                        tpl.after,
                    );
                    refetch!();
                }
            }
            Insn::RemoveHeader(p) => {
                tick!(1);
                pkt.remove_header(prog.proto_names[*p as usize]);
                refetch!();
            }
        }
    }
}

/// Adapts a name-keyed [`ExecEnv`] (e.g. [`crate::interp::MemEnv`]) to the
/// slot-indexed [`SlotEnv`] interface via a compiled program's reverse
/// name tables. This is the bridge the differential tests use to run both
/// engines against the *same* state; devices implement [`SlotEnv`]
/// natively and never pay this translation.
pub struct NamedSlotEnv<'a> {
    prog: &'a CompiledProgram,
    inner: &'a mut dyn ExecEnv,
    table_names: Vec<String>,
    last_call: Option<ActionCall>,
}

impl<'a> NamedSlotEnv<'a> {
    /// Wraps `inner`, translating `prog`'s slots back to names.
    pub fn new(prog: &'a CompiledProgram, inner: &'a mut dyn ExecEnv) -> NamedSlotEnv<'a> {
        // slot → table name (table slots come from the resolver, so build
        // the reverse map from the compiled metadata).
        let max = prog.tables.iter().map(|t| t.slot).max().map_or(0, |m| m + 1);
        let mut table_names = vec![String::new(); max as usize];
        for t in &prog.tables {
            table_names[t.slot as usize] = t.name.clone();
        }
        NamedSlotEnv {
            prog,
            inner,
            table_names,
            last_call: None,
        }
    }
}

impl SlotEnv for NamedSlotEnv<'_> {
    fn table_lookup(&mut self, table: u16, keys: &[u64]) -> Option<(u16, &[u64])> {
        let name = &self.table_names[table as usize];
        self.last_call = self.inner.table_lookup(name, keys);
        let call = self.last_call.as_ref()?;
        // Unknown action names map to an out-of-range index; the VM turns
        // that into the same class of runtime error the interpreter raises.
        let idx = self
            .prog
            .action_index(table, &call.action)
            .unwrap_or(u16::MAX);
        Some((idx, call.args.as_slice()))
    }

    fn map_get(&mut self, map: u16, key: u64) -> Option<u64> {
        self.inner.map_get(&self.prog.map_names[map as usize], key)
    }

    fn map_put(&mut self, map: u16, key: u64, value: u64) -> Result<()> {
        self.inner
            .map_put(&self.prog.map_names[map as usize], key, value)
    }

    fn map_del(&mut self, map: u16, key: u64) {
        self.inner.map_del(&self.prog.map_names[map as usize], key)
    }

    fn reg_read(&mut self, reg: u16, idx: u64) -> Result<u64> {
        self.inner
            .reg_read(&self.prog.register_names[reg as usize], idx)
    }

    fn reg_write(&mut self, reg: u16, idx: u64, val: u64) -> Result<()> {
        self.inner
            .reg_write(&self.prog.register_names[reg as usize], idx, val)
    }

    fn counter_add(&mut self, counter: u16, pkts: u64, bytes: u64) {
        self.inner
            .counter_add(&self.prog.counter_names[counter as usize], pkts, bytes)
    }

    fn counter_read(&mut self, counter: u16) -> u64 {
        self.inner
            .counter_read(&self.prog.counter_names[counter as usize])
    }

    fn meter_check(&mut self, meter: u16, key: u64) -> bool {
        self.inner
            .meter_check(&self.prog.meter_names[meter as usize], key)
    }

    fn invoke_service(&mut self, service: u16, args: &[u64]) {
        self.inner
            .invoke_service(&self.prog.service_names[service as usize], args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{execute, MemEnv};
    use crate::parser::parse_program;
    use crate::typecheck::check_program;

    fn compiled(src: &str) -> (Program, CompiledProgram, HeaderRegistry) {
        let p = parse_program(src).unwrap();
        let headers = HeaderRegistry::builtins();
        check_program(&p, &headers).unwrap();
        let c = compile_with_program_slots(&p, &headers).unwrap();
        (p, c, headers)
    }

    /// Runs both engines from identical initial state and asserts verdict,
    /// op count, and all observable state effects agree.
    fn assert_equivalent(src: &str, pkt: &Packet, setup: impl Fn(&mut MemEnv)) -> ExecOutcome {
        let (p, c, headers) = compiled(src);
        let mut env_i = MemEnv::new();
        setup(&mut env_i);
        let mut env_b = MemEnv::new();
        setup(&mut env_b);
        let mut pkt_i = pkt.clone();
        let mut pkt_b = pkt.clone();
        let out_i = execute(&p, "ingress", &mut pkt_i, &mut env_i, &headers).unwrap();
        let out_b = {
            let mut bridge = NamedSlotEnv::new(&c, &mut env_b);
            execute_compiled(&c, "ingress", &mut pkt_b, &mut bridge).unwrap()
        };
        assert_eq!(out_i, out_b, "verdict/ops diverged on {src}");
        assert_eq!(pkt_i, pkt_b, "packet effects diverged on {src}");
        assert_eq!(env_i.maps, env_b.maps, "map state diverged");
        assert_eq!(env_i.regs, env_b.regs, "register state diverged");
        assert_eq!(env_i.counters, env_b.counters, "counter state diverged");
        assert_eq!(env_i.meters, env_b.meters, "meter state diverged");
        assert_eq!(env_i.invocations, env_b.invocations, "invocations diverged");
        out_b
    }

    #[test]
    fn straight_line_ops_and_verdict_match() {
        let out = assert_equivalent(
            "program p { handler ingress(pkt) { let x = 1 + 2 * 3; forward(x); } }",
            &Packet::tcp(1, 1, 2, 3, 4, 0),
            |_| {},
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(7)));
    }

    #[test]
    fn short_circuit_skips_rhs_in_both_engines() {
        // The rhs meter_check must not fire when the lhs decides; meters
        // are observable state, so divergence would show in the state
        // comparison as well as the op count.
        for src in [
            "program p { meter m rate 1 burst 1; handler ingress(pkt) {
               if (1 == 2 && meter_check(m, 1)) { drop(); } forward(1); } }",
            "program p { meter m rate 1 burst 1; handler ingress(pkt) {
               if (1 == 1 || meter_check(m, 1)) { forward(2); } drop(); } }",
            "program p { meter m rate 1 burst 1; handler ingress(pkt) {
               if (1 == 1 && meter_check(m, 1)) { forward(3); } drop(); } }",
            "program p { meter m rate 1 burst 1; handler ingress(pkt) {
               if (1 == 2 || meter_check(m, 1)) { forward(4); } drop(); } }",
        ] {
            assert_equivalent(src, &Packet::tcp(1, 1, 2, 3, 4, 0), |_| {});
        }
    }

    #[test]
    fn table_hit_default_and_miss_match() {
        let src = "program p {
            table acl {
              key { ipv4.src : exact; }
              action set_port(port: u16) { forward(port); }
              action deny() { drop(); }
              default deny();
              size 8;
            }
            handler ingress(pkt) { apply acl; forward(1); }
          }";
        // Hit.
        let out = assert_equivalent(src, &Packet::tcp(1, 99, 2, 3, 4, 0), |env| {
            env.install_entry(
                "acl",
                vec![99],
                ActionCall {
                    action: "set_port".into(),
                    args: vec![42],
                },
            );
        });
        assert_eq!(out.verdict, Some(Verdict::Forward(42)));
        // Miss → default.
        let out = assert_equivalent(src, &Packet::tcp(1, 7, 2, 3, 4, 0), |_| {});
        assert_eq!(out.verdict, Some(Verdict::Drop));
        // Miss, no default → fall through.
        let out = assert_equivalent(
            "program p {
               table acl { key { ipv4.src : exact; } size 8; }
               handler ingress(pkt) { apply acl; forward(9); } }",
            &Packet::tcp(1, 7, 2, 3, 4, 0),
            |_| {},
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(9)));
    }

    #[test]
    fn repeat_headers_maps_registers_match() {
        assert_equivalent(
            "program p {
               map m : map<u32, u32>[64];
               register r : u64[8];
               counter c;
               handler ingress(pkt) {
                 repeat (5) {
                   reg_write(r, 1, reg_read(r, 1) + 3);
                   map_put(m, ipv4.src, map_get(m, ipv4.src) + 1);
                   count(c);
                 }
                 add_header(vlan);
                 vlan.vid = 7;
                 meta.mark = hash(ipv4.src, pktlen());
                 remove_header(vlan);
                 if (map_has(m, ipv4.src)) { forward(reg_read(r, 1)); }
                 drop();
               }
             }",
            &Packet::tcp(1, 10, 2, 3, 4, 0),
            |_| {},
        );
    }

    #[test]
    fn return_and_invoke_match() {
        assert_equivalent(
            "program p {
               service require mig(dst: u32, tag: u32);
               handler ingress(pkt) {
                 invoke mig(7, ipv4.src);
                 if (ipv4.src == 1) { return; }
                 forward(1);
               }
             }",
            &Packet::tcp(1, 1, 2, 3, 4, 0),
            |_| {},
        );
    }

    #[test]
    fn arity_mismatch_trap_is_identical() {
        let src = "program p {
            table t {
              key { ipv4.src : exact; }
              action go(port: u16) { forward(port); }
              size 8;
            }
            handler ingress(pkt) { apply t; forward(1); }
          }";
        let (p, c, headers) = compiled(src);
        let mut setup = MemEnv::new();
        setup.install_entry(
            "t",
            vec![1],
            ActionCall {
                action: "go".into(),
                args: vec![1, 2], // wrong arity
            },
        );
        let mut env_i = MemEnv::new();
        env_i.tables = setup.tables.clone();
        let mut pkt = Packet::tcp(1, 1, 2, 3, 4, 0);
        let out_i = execute(&p, "ingress", &mut pkt.clone(), &mut env_i, &headers).unwrap();
        let mut env_b = MemEnv::new();
        env_b.tables = setup.tables.clone();
        let mut bridge = NamedSlotEnv::new(&c, &mut env_b);
        let out_b = execute_compiled(&c, "ingress", &mut pkt, &mut bridge).unwrap();
        assert_eq!(out_i, out_b, "trap identity and gas count must agree");
        let trap = out_b.trap.expect("a bad entry traps, fail closed");
        assert_eq!(
            trap,
            flexnet_types::Trap::ArityMismatch {
                table: "t".into(),
                action: "go".into(),
            }
        );
        assert_eq!(
            trap.to_string(),
            "table `t` action `go` arity mismatch"
        );
        assert_eq!(out_b.verdict, None, "a trapped packet carries no verdict");
    }

    #[test]
    fn gas_exhaustion_identical_across_engines_at_every_budget() {
        // Sweep every budget from 0 to the true cost: both engines must
        // trap (or complete) at the identical ops count with the identical
        // trap, packet effects, and state — the strongest form of the
        // metering-parity invariant.
        let src = "program p {
            map m : map<u32, u32>[64];
            register r : u64[8];
            counter c;
            table t {
              key { ipv4.src : exact; }
              action tag(v: u16) { meta.mark = v; }
              default tag(3);
              size 4;
            }
            handler ingress(pkt) {
              repeat (3) {
                reg_write(r, 1, reg_read(r, 1) + 1);
                map_put(m, ipv4.src, map_get(m, ipv4.src) + 1);
                count(c);
              }
              apply t;
              if (map_has(m, ipv4.src) && reg_read(r, 1) > 1) { forward(2); }
              drop();
            }
          }";
        let (p, c, headers) = compiled(src);
        let base = Packet::tcp(1, 10, 2, 3, 4, 0);
        let full = {
            let mut env = MemEnv::new();
            let mut pkt = base.clone();
            execute(&p, "ingress", &mut pkt, &mut env, &headers).unwrap()
        };
        assert!(full.trap.is_none());
        for gas in 0..=full.ops {
            let mut env_i = MemEnv::new();
            let mut env_b = MemEnv::new();
            let mut pkt_i = base.clone();
            let mut pkt_b = base.clone();
            let out_i = crate::interp::execute_metered(
                &p, "ingress", &mut pkt_i, &mut env_i, &headers, gas,
            )
            .unwrap();
            let out_b = {
                let mut bridge = NamedSlotEnv::new(&c, &mut env_b);
                execute_compiled_metered(&c, "ingress", &mut pkt_b, &mut bridge, gas).unwrap()
            };
            assert_eq!(out_i, out_b, "divergence at gas={gas}");
            assert_eq!(pkt_i, pkt_b, "packet divergence at gas={gas}");
            assert_eq!(env_i.maps, env_b.maps, "map divergence at gas={gas}");
            assert_eq!(env_i.regs, env_b.regs, "register divergence at gas={gas}");
            assert_eq!(env_i.counters, env_b.counters, "counter divergence at gas={gas}");
            assert_eq!(env_i.invocations, env_b.invocations);
            if gas < full.ops {
                assert_eq!(
                    out_i.trap,
                    Some(flexnet_types::Trap::GasExhausted { limit: gas }),
                    "under-budget run must trap at gas={gas}"
                );
                assert!(
                    out_i.ops > gas && out_i.ops <= gas + 4,
                    "trapping op is the first charge over budget (ops={}, gas={gas}; \
                     apply charges 4 at once)",
                    out_i.ops
                );
            } else {
                assert!(out_i.trap.is_none());
            }
        }
    }

    #[test]
    fn division_by_zero_trap_is_identical() {
        let (p, c, headers) = compiled(
            "program p { handler ingress(pkt) { let x = 7 % meta.z; forward(x); } }",
        );
        let mut env_i = MemEnv::new();
        let mut env_b = MemEnv::new();
        let mut pkt_i = Packet::tcp(1, 1, 2, 3, 4, 0);
        let mut pkt_b = pkt_i.clone();
        let out_i = execute(&p, "ingress", &mut pkt_i, &mut env_i, &headers).unwrap();
        let out_b = {
            let mut bridge = NamedSlotEnv::new(&c, &mut env_b);
            execute_compiled(&c, "ingress", &mut pkt_b, &mut bridge).unwrap()
        };
        assert_eq!(out_i, out_b);
        assert_eq!(
            out_b.trap,
            Some(flexnet_types::Trap::DivisionByZero { op: "%" })
        );
    }

    #[test]
    fn corrupt_image_traps_instead_of_panicking() {
        // A hand-corrupted image (jump past the end) must fail closed with
        // a CorruptImage trap, never a panic or a hang.
        let (_, mut c, _) = compiled("program p { handler ingress(pkt) { forward(1); } }");
        c.insns.clear();
        c.insns.push(Insn::Jump(1000));
        let mut env = MemEnv::new();
        let mut bridge = NamedSlotEnv::new(&c, &mut env);
        let out = execute_compiled(
            &c,
            "ingress",
            &mut Packet::tcp(1, 1, 2, 3, 4, 0),
            &mut bridge,
        )
        .unwrap();
        assert_eq!(
            out.trap,
            Some(flexnet_types::Trap::CorruptImage {
                reason: "bytecode pc out of range",
            })
        );

        // A store with nothing on the stack underflows.
        let (_, mut c, _) = compiled("program p { handler ingress(pkt) { forward(1); } }");
        c.insns.clear();
        c.insns.push(Insn::StoreLocal(0));
        c.n_locals = 1;
        let mut env = MemEnv::new();
        let mut bridge = NamedSlotEnv::new(&c, &mut env);
        let out = execute_compiled(
            &c,
            "ingress",
            &mut Packet::tcp(1, 1, 2, 3, 4, 0),
            &mut bridge,
        )
        .unwrap();
        assert_eq!(
            out.trap,
            Some(flexnet_types::Trap::CorruptImage {
                reason: "bytecode stack underflow",
            })
        );
    }

    #[test]
    fn unresolved_symbols_surface_per_kind_at_compile_time() {
        // A resolver that knows nothing forces every kind's error path.
        struct Nothing;
        impl SlotResolver for Nothing {
            fn resolve(&self, _: SymbolKind, _: &str) -> Option<u16> {
                None
            }
        }
        let headers = HeaderRegistry::builtins();
        let cases = [
            (
                "program p { map m : map<u32, u32>[4];
                   handler ingress(pkt) { map_put(m, 1, 2); } }",
                "map",
                "m",
            ),
            (
                "program p { register r : u64[4];
                   handler ingress(pkt) { reg_write(r, 0, 1); } }",
                "register",
                "r",
            ),
            (
                "program p { counter c; handler ingress(pkt) { count(c); } }",
                "counter",
                "c",
            ),
            (
                "program p { meter m rate 1 burst 1;
                   handler ingress(pkt) { if (meter_check(m, 1)) { drop(); } } }",
                "meter",
                "m",
            ),
            (
                "program p { service require s(x: u32);
                   handler ingress(pkt) { invoke s(1); } }",
                "service",
                "s",
            ),
            (
                "program p { table t { key { ipv4.src : exact; } size 4; }
                   handler ingress(pkt) { apply t; } }",
                "table",
                "t",
            ),
        ];
        for (src, kind, name) in cases {
            let p = parse_program(src).unwrap();
            check_program(&p, &headers).unwrap();
            let err = compile(&p, &headers, &Nothing).unwrap_err();
            assert_eq!(
                err,
                FlexError::UnresolvedSymbol {
                    kind: kind.into(),
                    name: name.into(),
                },
                "wrong error for {src}"
            );
        }
    }

    #[test]
    fn unresolved_local_and_default_action_surface() {
        // Hand-built AST (the type checker would reject both), proving the
        // compiler degrades into typed errors rather than panics.
        let mut p = Program::empty("p", ProgramKind::Any);
        p.handlers.push(Handler {
            name: "ingress".into(),
            body: vec![Stmt::Forward(Expr::Local("nope".into()))],
        });
        let headers = HeaderRegistry::builtins();
        let err = compile_with_program_slots(&p, &headers).unwrap_err();
        assert_eq!(
            err,
            FlexError::UnresolvedSymbol {
                kind: "local".into(),
                name: "nope".into(),
            }
        );

        let mut p = Program::empty("p", ProgramKind::Any);
        p.tables.push(TableDecl {
            name: "t".into(),
            keys: vec![],
            actions: vec![],
            default_action: Some(ActionCall {
                action: "ghost".into(),
                args: vec![],
            }),
            size: 4,
        });
        p.handlers.push(Handler {
            name: "ingress".into(),
            body: vec![Stmt::Apply("t".into())],
        });
        let err = compile_with_program_slots(&p, &headers).unwrap_err();
        assert_eq!(
            err,
            FlexError::UnresolvedSymbol {
                kind: "action".into(),
                name: "ghost".into(),
            }
        );
    }

    #[test]
    fn unknown_handler_matches_interpreter_error() {
        let (_, c, _) = compiled("program p { handler ingress(pkt) { forward(1); } }");
        let mut env = MemEnv::new();
        let mut bridge = NamedSlotEnv::new(&c, &mut env);
        let err = execute_compiled(
            &c,
            "egress",
            &mut Packet::tcp(1, 1, 2, 3, 4, 0),
            &mut bridge,
        )
        .unwrap_err();
        assert_eq!(err, FlexError::NotFound("handler `egress`".into()));
    }

    #[test]
    fn action_locals_do_not_leak_into_the_handler_frame() {
        // The action writes a name the handler also declares; reads after
        // the apply must see the handler's value in both engines.
        let out = assert_equivalent(
            "program p {
               table t {
                 key { ipv4.src : exact; }
                 action tag(v: u16) { let x = v + 100; meta.inner = x; }
                 default tag(1);
                 size 4;
               }
               handler ingress(pkt) {
                 let x = 5;
                 apply t;
                 forward(x);
               }
             }",
            &Packet::tcp(1, 1, 2, 3, 4, 0),
            |_| {},
        );
        assert_eq!(out.verdict, Some(Verdict::Forward(5)));
    }

    #[test]
    fn program_resolver_slots_follow_declaration_order() {
        let (p, _, _) = compiled(
            "program p {
               counter a; map m : map<u32,u32>[4]; counter b; register r : u64[2];
               handler ingress(pkt) { count(b); forward(1); } }",
        );
        let r = ProgramResolver::new(&p);
        assert_eq!(r.resolve(SymbolKind::Counter, "a"), Some(0));
        assert_eq!(r.resolve(SymbolKind::Counter, "b"), Some(1));
        assert_eq!(r.resolve(SymbolKind::Map, "m"), Some(0));
        assert_eq!(r.resolve(SymbolKind::Register, "r"), Some(0));
        assert_eq!(r.resolve(SymbolKind::Counter, "m"), None, "kind-checked");
    }
}
