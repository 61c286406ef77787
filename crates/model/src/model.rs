//! The model graph: blocks wired by connections, plus the structural
//! analyses every engine needs — validation, deterministic scheduling
//! (the paper's "Schedule Convert" front half), and signal type resolution.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::fmt;

use crate::block::BlockKind;
use crate::DataType;

/// Identifier of a block within its owning [`Model`].
///
/// Ids are dense indices assigned in insertion order; they are stable across
/// save/load because persistence preserves block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(u32);

impl BlockId {
    /// The dense index of the block.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(index: usize) -> Self {
        BlockId(u32::try_from(index).expect("more than u32::MAX blocks"))
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A reference to one port of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// The block.
    pub block: BlockId,
    /// The port index on that block.
    pub port: usize,
}

impl PortRef {
    /// Creates a port reference.
    pub fn new(block: BlockId, port: usize) -> Self {
        PortRef { block, port }
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block, self.port)
    }
}

/// A directed wire from an output port to an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Connection {
    /// The driving output port.
    pub src: PortRef,
    /// The driven input port.
    pub dst: PortRef,
}

/// A block instance: a unique name plus its [`BlockKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    id: BlockId,
    name: String,
    kind: BlockKind,
}

impl Block {
    /// The block's id within its model.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The block's name (unique within its model).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The block's kind and parameters.
    pub fn kind(&self) -> &BlockKind {
        &self.kind
    }
}

/// A block-diagram model.
///
/// Build one with [`crate::ModelBuilder`], load one from XML with
/// [`crate::load_model`], then validate and analyze:
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use cftcg_model::{BlockKind, DataType, ModelBuilder, Value};
///
/// let mut b = ModelBuilder::new("double_it");
/// let u = b.inport("u", DataType::F64);
/// let g = b.add("g", BlockKind::Gain { gain: 2.0 });
/// let y = b.outport("y");
/// b.connect(u, 0, g, 0);
/// b.connect(g, 0, y, 0);
/// let model = b.finish()?;
/// assert_eq!(model.num_inports(), 1);
/// assert_eq!(model.execution_order()?.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    name: String,
    blocks: Vec<Block>,
    connections: Vec<Connection>,
}

impl Model {
    pub(crate) fn from_parts(
        name: String,
        blocks: Vec<(String, BlockKind)>,
        connections: Vec<Connection>,
    ) -> Self {
        let blocks = blocks
            .into_iter()
            .enumerate()
            .map(|(i, (name, kind))| Block { id: BlockId::from_index(i), name, kind })
            .collect();
        Model { name, blocks, connections }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All blocks, in id order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// All connections.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Looks up a block by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this model.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Finds a block by name.
    pub fn block_by_name(&self, name: &str) -> Option<&Block> {
        self.blocks.iter().find(|b| b.name == name)
    }

    /// Number of top-level input ports ([`BlockKind::Inport`] blocks).
    pub fn num_inports(&self) -> usize {
        self.blocks.iter().filter(|b| matches!(b.kind, BlockKind::Inport { .. })).count()
    }

    /// Number of top-level output ports ([`BlockKind::Outport`] blocks).
    pub fn num_outports(&self) -> usize {
        self.blocks.iter().filter(|b| matches!(b.kind, BlockKind::Outport { .. })).count()
    }

    /// The inport blocks sorted by port index, as `(block, index, type)`.
    pub fn inports(&self) -> Vec<(BlockId, usize, DataType)> {
        let mut out: Vec<_> = self
            .blocks
            .iter()
            .filter_map(|b| match b.kind {
                BlockKind::Inport { index, dtype } => Some((b.id, index, dtype)),
                _ => None,
            })
            .collect();
        out.sort_by_key(|&(_, index, _)| index);
        out
    }

    /// The outport blocks sorted by port index, as `(block, index)`.
    pub fn outports(&self) -> Vec<(BlockId, usize)> {
        let mut out: Vec<_> = self
            .blocks
            .iter()
            .filter_map(|b| match b.kind {
                BlockKind::Outport { index } => Some((b.id, index)),
                _ => None,
            })
            .collect();
        out.sort_by_key(|&(_, index)| index);
        out
    }

    /// The output port driving `dst`, if any connection exists.
    pub fn source_of(&self, dst: PortRef) -> Option<PortRef> {
        self.connections.iter().find(|c| c.dst == dst).map(|c| c.src)
    }

    /// All input ports driven by output port `src`.
    pub fn sinks_of(&self, src: PortRef) -> impl Iterator<Item = PortRef> + '_ {
        self.connections.iter().filter(move |c| c.src == src).map(|c| c.dst)
    }

    /// `true` when this model (or any nested subsystem) contains a stateful
    /// block.
    pub fn has_state(&self) -> bool {
        self.blocks.iter().any(|b| b.kind.is_stateful())
    }

    /// Total number of blocks including blocks of nested subsystems — the
    /// `#Block` column of the paper's Table 2.
    pub fn total_block_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| 1 + b.kind.inner_model().map_or(0, Model::total_block_count))
            .sum()
    }

    /// A deterministic execution order: every block appears after the
    /// producers of its inputs, except that loop-breaking blocks
    /// ([`BlockKind::breaks_algebraic_loops`]) impose no ordering on their
    /// consumers (their output is state from the previous step). Among
    /// ready blocks, the lowest id runs first.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::AlgebraicLoop`] naming a block on the cycle
    /// when the graph has a loop not broken by a delay-class block.
    pub fn execution_order(&self) -> Result<Vec<BlockId>, ModelError> {
        let n = self.blocks.len();
        let mut in_degree = vec![0usize; n];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for c in &self.connections {
            let src = c.src.block.index();
            let dst = c.dst.block.index();
            if self.blocks[src].kind.breaks_algebraic_loops() {
                continue;
            }
            out_edges[src].push(dst);
            in_degree[dst] += 1;
        }
        let mut heap: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&i| in_degree[i] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(i)) = heap.pop() {
            order.push(BlockId::from_index(i));
            for &j in &out_edges[i] {
                in_degree[j] -= 1;
                if in_degree[j] == 0 {
                    heap.push(Reverse(j));
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| in_degree[i] > 0)
                .expect("some block must remain when order is incomplete");
            return Err(ModelError::AlgebraicLoop { block: self.blocks[stuck].name.clone() });
        }
        Ok(order)
    }

    /// Resolves every output port's signal type.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError::AlgebraicLoop`] from scheduling and reports
    /// unconnected inputs encountered during propagation.
    pub fn resolve_types(&self) -> Result<TypeMap, ModelError> {
        let order = self.execution_order()?;
        let mut map: Vec<Vec<DataType>> =
            self.blocks.iter().map(|b| vec![DataType::F64; b.kind.num_outputs()]).collect();
        // Loop-breaker outputs may be consumed before the block is visited
        // in `order` (their consumers have no edge to them); resolve them
        // first from their initial-value/parameter types.
        for block in &self.blocks {
            match &block.kind {
                BlockKind::UnitDelay { initial }
                | BlockKind::Delay { initial, .. }
                | BlockKind::Memory { initial } => {
                    map[block.id.index()][0] = initial.data_type();
                }
                BlockKind::DiscreteIntegrator { .. } => {
                    map[block.id.index()][0] = DataType::F64;
                }
                _ => {}
            }
        }
        for id in order {
            let block = &self.blocks[id.index()];
            let num_inputs = block.kind.num_inputs();
            let mut input_types = Vec::with_capacity(num_inputs);
            for port in 0..num_inputs {
                let src = self.source_of(PortRef::new(id, port)).ok_or_else(|| {
                    ModelError::UnconnectedInput { block: block.name.clone(), port }
                })?;
                input_types.push(map[src.block.index()][src.port]);
            }
            match &block.kind {
                // Delay-class blocks keep the type set above (their output
                // is prior state); the input type is checked by validate().
                BlockKind::UnitDelay { .. }
                | BlockKind::Delay { .. }
                | BlockKind::Memory { .. }
                | BlockKind::DiscreteIntegrator { .. } => {}
                BlockKind::ActionSubsystem { model }
                | BlockKind::EnabledSubsystem { model }
                | BlockKind::TriggeredSubsystem { model, .. }
                | BlockKind::Subsystem { model } => {
                    let inner = model.resolve_types()?;
                    for (port, ty) in inner.outport_types(model)?.into_iter().enumerate() {
                        map[id.index()][port] = ty;
                    }
                }
                kind => {
                    for (port, slot) in
                        map[id.index()].iter_mut().enumerate().take(kind.num_outputs())
                    {
                        *slot = kind.output_type(&input_types, port);
                    }
                }
            }
        }
        Ok(TypeMap { map })
    }

    /// Validates the model end to end. See [`ModelError`] for the checked
    /// conditions. Nested subsystem models are validated recursively.
    ///
    /// # Errors
    ///
    /// Returns the first [`ModelError`] found.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.validate_names()?;
        self.validate_ports()?;
        self.validate_wiring()?;
        self.validate_params()?;
        // Scheduling + type resolution catch loops and unconnected inputs.
        let types = self.resolve_types()?;
        self.validate_typed_wiring(&types)?;
        // Recurse into subsystems.
        for block in &self.blocks {
            if let Some(inner) = block.kind.inner_model() {
                inner.validate()?;
            }
        }
        Ok(())
    }

    fn validate_names(&self) -> Result<(), ModelError> {
        let mut seen = BTreeSet::new();
        for block in &self.blocks {
            if block.name.is_empty() {
                return Err(ModelError::EmptyBlockName { id: block.id });
            }
            if !seen.insert(block.name.as_str()) {
                return Err(ModelError::DuplicateBlockName { name: block.name.clone() });
            }
        }
        Ok(())
    }

    fn validate_ports(&self) -> Result<(), ModelError> {
        for (role, indices) in [
            ("inport", self.inports().iter().map(|&(_, i, _)| i).collect::<Vec<_>>()),
            ("outport", self.outports().iter().map(|&(_, i)| i).collect()),
        ] {
            for (expected, &actual) in indices.iter().enumerate() {
                if actual != expected {
                    return Err(ModelError::BadPortIndices {
                        role,
                        detail: format!(
                            "expected contiguous indices 0..{}, found {:?}",
                            indices.len(),
                            indices
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    fn validate_wiring(&self) -> Result<(), ModelError> {
        let mut driven: HashMap<PortRef, PortRef> = HashMap::new();
        for c in &self.connections {
            let src_block = self
                .blocks
                .get(c.src.block.index())
                .ok_or(ModelError::DanglingConnection { port: c.src })?;
            if c.src.port >= src_block.kind.num_outputs() {
                return Err(ModelError::DanglingConnection { port: c.src });
            }
            let dst_block = self
                .blocks
                .get(c.dst.block.index())
                .ok_or(ModelError::DanglingConnection { port: c.dst })?;
            if c.dst.port >= dst_block.kind.num_inputs() {
                return Err(ModelError::DanglingConnection { port: c.dst });
            }
            if let Some(prev) = driven.insert(c.dst, c.src) {
                if prev != c.src {
                    return Err(ModelError::MultipleDrivers { port: c.dst });
                }
            }
        }
        // Action outputs must drive exactly the action port of an action
        // subsystem; action subsystems must be driven by an If/SwitchCase.
        for block in &self.blocks {
            match &block.kind {
                BlockKind::If { .. } | BlockKind::SwitchCase { .. } => {
                    for port in 0..block.kind.num_outputs() {
                        let src = PortRef::new(block.id, port);
                        for dst in self.sinks_of(src) {
                            let sink = self.block(dst.block);
                            let ok = matches!(sink.kind, BlockKind::ActionSubsystem { .. })
                                && dst.port == 0;
                            if !ok {
                                return Err(ModelError::BadActionWiring {
                                    detail: format!(
                                        "action output {src} of `{}` must drive port 0 of an \
                                         ActionSubsystem, found {dst} on `{}`",
                                        block.name, sink.name
                                    ),
                                });
                            }
                        }
                    }
                }
                BlockKind::ActionSubsystem { .. } => {
                    let action = PortRef::new(block.id, 0);
                    if let Some(src) = self.source_of(action) {
                        let driver = self.block(src.block);
                        if !matches!(
                            driver.kind,
                            BlockKind::If { .. } | BlockKind::SwitchCase { .. }
                        ) {
                            return Err(ModelError::BadActionWiring {
                                detail: format!(
                                    "action port of `{}` must be driven by an If or SwitchCase \
                                     block, found `{}`",
                                    block.name, driver.name
                                ),
                            });
                        }
                    }
                }
                BlockKind::Merge { inputs } => {
                    for port in 0..*inputs {
                        if let Some(src) = self.source_of(PortRef::new(block.id, port)) {
                            let driver = self.block(src.block);
                            if !driver.kind.is_conditional_subsystem() {
                                return Err(ModelError::BadActionWiring {
                                    detail: format!(
                                        "Merge `{}` input {port} must be driven by a \
                                         conditionally-executed subsystem, found `{}`",
                                        block.name, driver.name
                                    ),
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn validate_params(&self) -> Result<(), ModelError> {
        for block in &self.blocks {
            let bad =
                |detail: String| ModelError::BadParameter { block: block.name.clone(), detail };
            match &block.kind {
                BlockKind::Sum { signs } if signs.is_empty() => {
                    return Err(bad("Sum needs at least one input".into()));
                }
                BlockKind::Product { ops } if ops.is_empty() => {
                    return Err(bad("Product needs at least one input".into()));
                }
                BlockKind::MinMax { inputs, .. } if *inputs < 2 => {
                    return Err(bad("MinMax needs at least two inputs".into()));
                }
                BlockKind::Logic { op, inputs }
                    if *op != crate::block::LogicOp::Not && *inputs < 2 =>
                {
                    return Err(bad(format!("{} needs at least two inputs", op.name())));
                }
                BlockKind::Saturation { lower, upper } if lower > upper => {
                    return Err(bad(format!("lower {lower} exceeds upper {upper}")));
                }
                BlockKind::DeadZone { start, end } if start > end => {
                    return Err(bad(format!("start {start} exceeds end {end}")));
                }
                BlockKind::Relay { on_threshold, off_threshold, .. }
                    if on_threshold < off_threshold =>
                {
                    return Err(bad("on threshold below off threshold".into()));
                }
                BlockKind::Quantizer { interval } if *interval <= 0.0 => {
                    return Err(bad("quantization interval must be positive".into()));
                }
                BlockKind::RateLimiter { rising, falling } if *rising < 0.0 || *falling < 0.0 => {
                    return Err(bad("rate limits must be non-negative".into()));
                }
                BlockKind::Backlash { width, .. } if *width < 0.0 => {
                    return Err(bad("backlash width must be non-negative".into()));
                }
                BlockKind::Delay { steps, .. } if *steps == 0 => {
                    return Err(bad("delay must be at least one step".into()));
                }
                BlockKind::DiscreteIntegrator { lower: Some(lo), upper: Some(hi), .. }
                    if lo > hi =>
                {
                    return Err(bad("integrator lower limit exceeds upper".into()));
                }
                BlockKind::CounterFreeRunning { bits } if !matches!(bits, 1..=32) => {
                    return Err(bad("counter width must be 1..=32 bits".into()));
                }
                BlockKind::MultiportSwitch { cases } if *cases == 0 => {
                    return Err(bad("MultiportSwitch needs at least one case".into()));
                }
                BlockKind::Merge { inputs } if *inputs < 2 => {
                    return Err(bad("Merge needs at least two inputs".into()));
                }
                BlockKind::Lookup1D { breakpoints, values } => {
                    if breakpoints.len() != values.len() || breakpoints.len() < 2 {
                        return Err(bad("lookup table needs >= 2 matching points".into()));
                    }
                    if !strictly_increasing(breakpoints) {
                        return Err(bad("breakpoints must be strictly increasing".into()));
                    }
                }
                BlockKind::Lookup2D { row_breaks, col_breaks, values } => {
                    if row_breaks.len() < 2 || col_breaks.len() < 2 {
                        return Err(bad("2-D lookup needs >= 2 breakpoints per axis".into()));
                    }
                    if !strictly_increasing(row_breaks) || !strictly_increasing(col_breaks) {
                        return Err(bad("breakpoints must be strictly increasing".into()));
                    }
                    if values.len() != row_breaks.len()
                        || values.iter().any(|row| row.len() != col_breaks.len())
                    {
                        return Err(bad("2-D lookup table shape mismatch".into()));
                    }
                }
                BlockKind::If { num_inputs, conditions, has_else } => {
                    if conditions.is_empty() {
                        return Err(bad("If block needs at least one condition".into()));
                    }
                    if conditions.is_empty() && !has_else {
                        return Err(bad("If block needs an output".into()));
                    }
                    let allowed: BTreeSet<String> =
                        (1..=*num_inputs).map(|i| format!("u{i}")).collect();
                    for cond in conditions {
                        for var in cond.free_vars() {
                            if !allowed.contains(&var) {
                                return Err(bad(format!(
                                    "condition references `{var}`, expected u1..u{num_inputs}"
                                )));
                            }
                        }
                        cond.check_calls()
                            .map_err(|e| bad(format!("bad call in condition: {e}")))?;
                    }
                }
                BlockKind::SwitchCase { cases, .. } if cases.is_empty() => {
                    return Err(bad("SwitchCase needs at least one case".into()));
                }
                BlockKind::MatlabFunction { function } => {
                    function.validate().map_err(|e| bad(e.to_string()))?;
                }
                BlockKind::Chart { chart } => {
                    chart.validate().map_err(|e| bad(e.to_string()))?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Checks type agreement where it is load-bearing: subsystem boundary
    /// types must match the inner inport declarations.
    fn validate_typed_wiring(&self, types: &TypeMap) -> Result<(), ModelError> {
        for block in &self.blocks {
            if let Some(inner) = block.kind.inner_model() {
                let data_base = if block.kind.is_conditional_subsystem() { 1 } else { 0 };
                for (slot, (_, _, want)) in inner.inports().into_iter().enumerate() {
                    let dst = PortRef::new(block.id, data_base + slot);
                    if let Some(src) = self.source_of(dst) {
                        let got = types.output_type(src);
                        if got != want {
                            return Err(ModelError::TypeMismatch {
                                block: block.name.clone(),
                                detail: format!(
                                    "subsystem data input {slot} is {got} but inner inport \
                                     declares {want}"
                                ),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

fn strictly_increasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

/// Resolved signal types for every output port of a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeMap {
    map: Vec<Vec<DataType>>,
}

impl TypeMap {
    /// The type of the signal produced at `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not refer to a valid output port of the model
    /// this map was resolved for.
    pub fn output_type(&self, src: PortRef) -> DataType {
        self.map[src.block.index()][src.port]
    }

    /// The types flowing into the model's outports, in port order.
    fn outport_types(&self, model: &Model) -> Result<Vec<DataType>, ModelError> {
        model
            .outports()
            .into_iter()
            .map(|(id, _)| {
                let dst = PortRef::new(id, 0);
                let src = model.source_of(dst).ok_or_else(|| ModelError::UnconnectedInput {
                    block: model.block(id).name().to_string(),
                    port: 0,
                })?;
                Ok(self.output_type(src))
            })
            .collect()
    }
}

/// Errors reported by model validation and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A block has an empty name.
    EmptyBlockName {
        /// The offending block.
        id: BlockId,
    },
    /// Two blocks share a name.
    DuplicateBlockName {
        /// The shared name.
        name: String,
    },
    /// Inport/outport indices are not contiguous from zero.
    BadPortIndices {
        /// `"inport"` or `"outport"`.
        role: &'static str,
        /// Explanation.
        detail: String,
    },
    /// A connection references a nonexistent block or port.
    DanglingConnection {
        /// The bad endpoint.
        port: PortRef,
    },
    /// An input port has more than one driver.
    MultipleDrivers {
        /// The over-driven input.
        port: PortRef,
    },
    /// An input port has no driver.
    UnconnectedInput {
        /// Block name.
        block: String,
        /// Input port index.
        port: usize,
    },
    /// If/SwitchCase action signals are wired to something other than an
    /// action subsystem's action port (or vice versa), or a Merge input is
    /// not fed by a conditional subsystem.
    BadActionWiring {
        /// Explanation.
        detail: String,
    },
    /// A feedback loop has no delay-class block on it.
    AlgebraicLoop {
        /// A block on the cycle.
        block: String,
    },
    /// A block parameter is out of range or inconsistent.
    BadParameter {
        /// Block name.
        block: String,
        /// Explanation.
        detail: String,
    },
    /// Signal types disagree across a subsystem boundary.
    TypeMismatch {
        /// Block name.
        block: String,
        /// Explanation.
        detail: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyBlockName { id } => write!(f, "block {id} has an empty name"),
            ModelError::DuplicateBlockName { name } => {
                write!(f, "duplicate block name `{name}`")
            }
            ModelError::BadPortIndices { role, detail } => {
                write!(f, "bad {role} indices: {detail}")
            }
            ModelError::DanglingConnection { port } => {
                write!(f, "connection references nonexistent port {port}")
            }
            ModelError::MultipleDrivers { port } => {
                write!(f, "input port {port} has multiple drivers")
            }
            ModelError::UnconnectedInput { block, port } => {
                write!(f, "input port {port} of `{block}` is unconnected")
            }
            ModelError::BadActionWiring { detail } => write!(f, "bad action wiring: {detail}"),
            ModelError::AlgebraicLoop { block } => {
                write!(f, "algebraic loop through `{block}` (no delay on cycle)")
            }
            ModelError::BadParameter { block, detail } => {
                write!(f, "bad parameter on `{block}`: {detail}")
            }
            ModelError::TypeMismatch { block, detail } => {
                write!(f, "type mismatch at `{block}`: {detail}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{LogicOp, SwitchCriterion};
    use crate::{ModelBuilder, Value};

    fn simple_model() -> Model {
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::F64);
        let g = b.add("g", BlockKind::Gain { gain: 2.0 });
        let y = b.outport("y");
        b.connect(u, 0, g, 0);
        b.connect(g, 0, y, 0);
        b.finish().unwrap()
    }

    #[test]
    fn accessors() {
        let m = simple_model();
        assert_eq!(m.name(), "m");
        assert_eq!(m.blocks().len(), 3);
        assert_eq!(m.num_inports(), 1);
        assert_eq!(m.num_outports(), 1);
        assert!(m.block_by_name("g").is_some());
        assert!(m.block_by_name("zzz").is_none());
        assert_eq!(m.total_block_count(), 3);
        assert!(!m.has_state());
    }

    #[test]
    fn execution_order_respects_dataflow() {
        let m = simple_model();
        let order = m.execution_order().unwrap();
        let pos: HashMap<BlockId, usize> = order.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        let u = m.block_by_name("u").unwrap().id();
        let g = m.block_by_name("g").unwrap().id();
        let y = m.block_by_name("y").unwrap().id();
        assert!(pos[&u] < pos[&g]);
        assert!(pos[&g] < pos[&y]);
    }

    #[test]
    fn delay_breaks_feedback_loop() {
        // u -> sum -> delay -> (back to sum)
        let mut b = ModelBuilder::new("acc");
        let u = b.inport("u", DataType::F64);
        let sum = b.add("sum", BlockKind::Sum { signs: vec![crate::block::InputSign::Plus; 2] });
        let dly = b.add("dly", BlockKind::UnitDelay { initial: Value::F64(0.0) });
        let y = b.outport("y");
        b.connect(u, 0, sum, 0);
        b.connect(dly, 0, sum, 1);
        b.connect(sum, 0, dly, 0);
        b.connect(sum, 0, y, 0);
        let m = b.finish().unwrap();
        m.execution_order().unwrap();
    }

    #[test]
    fn undelayed_loop_is_rejected() {
        let mut b = ModelBuilder::new("loop");
        let u = b.inport("u", DataType::F64);
        let s1 = b.add("s1", BlockKind::Sum { signs: vec![crate::block::InputSign::Plus; 2] });
        let g = b.add("g", BlockKind::Gain { gain: 0.5 });
        let y = b.outport("y");
        b.connect(u, 0, s1, 0);
        b.connect(g, 0, s1, 1);
        b.connect(s1, 0, g, 0);
        b.connect(s1, 0, y, 0);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, ModelError::AlgebraicLoop { .. }), "{err}");
    }

    #[test]
    fn type_resolution_propagates() {
        let mut b = ModelBuilder::new("t");
        let u = b.inport_at("u", 0, DataType::I16);
        let g = b.add("g", BlockKind::Gain { gain: 3.0 });
        let cmp = b.add("c", BlockKind::Compare { op: crate::block::RelOp::Gt, constant: 5.0 });
        let y = b.outport("y");
        b.connect(u, 0, g, 0);
        b.connect(g, 0, cmp, 0);
        b.connect(cmp, 0, y, 0);
        let m = b.finish().unwrap();
        let types = m.resolve_types().unwrap();
        assert_eq!(types.output_type(PortRef::new(g, 0)), DataType::I16);
        assert_eq!(types.output_type(PortRef::new(cmp, 0)), DataType::Bool);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = ModelBuilder::new("m");
        let u = b.inport("x", DataType::F64);
        let t = b.add("x", BlockKind::Terminator);
        b.connect(u, 0, t, 0);
        assert!(matches!(b.finish(), Err(ModelError::DuplicateBlockName { .. })));
    }

    #[test]
    fn noncontiguous_inports_rejected() {
        let mut b = ModelBuilder::new("m");
        let u = b.inport_at("u", 1, DataType::F64); // index 1 without 0
        let t = b.add("t", BlockKind::Terminator);
        b.connect(u, 0, t, 0);
        assert!(matches!(b.finish(), Err(ModelError::BadPortIndices { .. })));
    }

    #[test]
    fn unconnected_input_rejected() {
        let mut b = ModelBuilder::new("m");
        b.inport("u", DataType::F64);
        b.add("g", BlockKind::Gain { gain: 1.0 }); // input never wired
        let err = b.finish().unwrap_err();
        assert!(matches!(err, ModelError::UnconnectedInput { .. }), "{err}");
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::F64);
        let v = b.inport_at("v", 1, DataType::F64);
        let t = b.add("t", BlockKind::Terminator);
        b.connect(u, 0, t, 0);
        b.connect(v, 0, t, 0);
        assert!(matches!(b.finish(), Err(ModelError::MultipleDrivers { .. })));
    }

    #[test]
    fn dangling_connection_rejected() {
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::F64);
        let t = b.add("t", BlockKind::Terminator);
        b.connect(u, 5, t, 0); // inport has only output 0
        assert!(matches!(b.finish(), Err(ModelError::DanglingConnection { .. })));
    }

    #[test]
    fn bad_parameters_rejected() {
        let cases: Vec<BlockKind> = vec![
            BlockKind::Saturation { lower: 2.0, upper: 1.0 },
            BlockKind::Quantizer { interval: 0.0 },
            BlockKind::Delay { steps: 0, initial: Value::F64(0.0) },
            BlockKind::Lookup1D { breakpoints: vec![0.0, 0.0], values: vec![1.0, 2.0] },
            BlockKind::Logic { op: LogicOp::And, inputs: 1 },
            BlockKind::MinMax { op: crate::block::MinMaxOp::Min, inputs: 1 },
        ];
        for kind in cases {
            let mut b = ModelBuilder::new("m");
            let tag = kind.tag();
            let n_in = kind.num_inputs();
            let blk = b.add("blk", kind);
            for port in 0..n_in {
                let name = format!("u{port}");
                let u = b.inport_at(&name, port, DataType::F64);
                b.connect(u, 0, blk, port);
            }
            let t = b.add("t", BlockKind::Terminator);
            b.connect(blk, 0, t, 0);
            let err = b.finish().unwrap_err();
            assert!(
                matches!(err, ModelError::BadParameter { .. }),
                "{tag}: expected BadParameter, got {err}"
            );
        }
    }

    #[test]
    fn action_wiring_must_target_action_subsystems() {
        use crate::expr::parse_expr;
        let mut b = ModelBuilder::new("m");
        let u = b.inport("u", DataType::F64);
        let iff = b.add(
            "if",
            BlockKind::If {
                num_inputs: 1,
                conditions: vec![parse_expr("u1 > 0").unwrap()],
                has_else: false,
            },
        );
        let t = b.add("t", BlockKind::Terminator);
        b.connect(u, 0, iff, 0);
        b.connect(iff, 0, t, 0); // action into a Terminator: invalid
        let err = b.finish().unwrap_err();
        assert!(matches!(err, ModelError::BadActionWiring { .. }), "{err}");
    }

    #[test]
    fn if_conditions_must_call_known_builtins() {
        use crate::expr::parse_expr;
        for (cond, needle) in
            [("nosuch(u1) > 0", "unknown function `nosuch`"), ("max(u1) > 0", "`max` expects 2")]
        {
            let mut b = ModelBuilder::new("m");
            let u = b.inport("u", DataType::F64);
            let iff = b.add(
                "if",
                BlockKind::If {
                    num_inputs: 1,
                    conditions: vec![parse_expr(cond).unwrap()],
                    has_else: false,
                },
            );
            b.connect(u, 0, iff, 0);
            let err = b.finish().unwrap_err();
            assert!(matches!(err, ModelError::BadParameter { .. }), "{cond}: {err}");
            assert!(err.to_string().contains(needle), "{cond}: {err}");
        }
    }

    #[test]
    fn switch_type_is_first_data_input() {
        let mut b = ModelBuilder::new("m");
        let a = b.inport_at("a", 0, DataType::I32);
        let c = b.inport_at("c", 1, DataType::Bool);
        let d = b.inport_at("d", 2, DataType::I32);
        let sw = b.add("sw", BlockKind::Switch { criterion: SwitchCriterion::NotZero });
        let y = b.outport("y");
        b.connect(a, 0, sw, 0);
        b.connect(c, 0, sw, 1);
        b.connect(d, 0, sw, 2);
        b.connect(sw, 0, y, 0);
        let m = b.finish().unwrap();
        let types = m.resolve_types().unwrap();
        assert_eq!(types.output_type(PortRef::new(sw, 0)), DataType::I32);
    }

    #[test]
    fn error_display_is_informative() {
        let err = ModelError::AlgebraicLoop { block: "sum".into() };
        assert!(err.to_string().contains("sum"));
        let err = ModelError::UnconnectedInput { block: "g".into(), port: 2 };
        assert!(err.to_string().contains("port 2"));
    }
}
