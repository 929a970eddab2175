//! The eight concrete flow stages and their typed artifacts.
//!
//! Stage bodies are ports of the pre-refactor monolithic flow; the
//! computation order inside each stage is preserved exactly so the
//! stage-graph flow is bit-identical to the original pipeline.

use std::sync::{Arc, Mutex};

use crate::baseline::MisMapper;
use crate::cover::{MapStats, Partition};
use crate::cuts::CutMapper;
use crate::error::MapError;
use crate::flow::{FlowMapper, FlowOptions};
use crate::json::{array, hex_f64, Json, JsonObject};
use crate::lily::LilyMapper;
use crate::stage::codec::{
    encode_mapped, encode_points, encode_rect, encode_stats, hex_array, Fields,
};
use crate::stage::{ArtifactCodec, FlowContext, Stage, StageArtifact};
use lily_cells::{CellId, Library, MappedNetwork, SignalSource};
use lily_netlist::decompose::{decompose, DecomposeOrder};
use lily_netlist::{Network, SubjectGraph};
use lily_par::ParOptions;
use lily_place::global::try_global_place;
use lily_place::legalize::{improve, legalize, LegalizeOptions, Legalized};
use lily_place::multilevel::MultilevelSystem;
use lily_place::{assign_pads, AreaModel, PinRef, PlacementProblem, Point, Rect, SubjectPlacement};
use lily_route::congestion::{deposit_rows, STRIPE_ROWS};
use lily_route::{rsmt_length_with, BinBox, CongestionGrid, RsmtScratch};
use lily_timing::load::WireLoad;
use lily_timing::sta::{try_analyze, StaResult};
use lily_timing::Arrival;

/// Chip-area model shared by both pipelines.
const AREA_MODEL: AreaModel = AreaModel::mcnc();
/// Congestion detour gain for the routed-length model.
const DETOUR_GAIN: f64 = 0.3;
/// Routing supply per µm² for the congestion grid.
const ROUTE_SUPPLY: f64 = 0.35;
/// Per-fanout wire capacitance handed to the MIS baseline in delay
/// mode, pF (MIS 2.1 models `C_w` as a function of the fanout count;
/// paper §4.2).
const MIS_WIRE_CAP_PER_FANOUT: f64 = 0.03;

// ---------------------------------------------------------------------
// Stage 1: Decompose
// ---------------------------------------------------------------------

/// Technology decomposition: optimized network → NAND2/INV subject
/// graph (plus the network/subject verification checkpoints).
#[derive(Debug, Clone, Copy, Default)]
pub struct Decompose;

impl<'a> Stage<&'a Network> for Decompose {
    type Out = Arc<SubjectGraph>;

    fn name(&self) -> &'static str {
        "decompose"
    }

    fn run(&self, ctx: &mut FlowContext<'_>, net: &'a Network) -> Result<Self::Out, MapError> {
        let g = decompose(net, DecomposeOrder::Balanced)?;
        ctx.checkpoint("network", || lily_check::check_network(net))?;
        ctx.checkpoint("subject", || lily_check::check_subject(&g))?;
        ctx.checkpoint("decompose-equiv", || {
            lily_check::check_network_subject(
                net,
                &g,
                lily_check::DEFAULT_VECTORS,
                lily_check::DEFAULT_SEED,
            )
        })?;
        Ok(Arc::new(g))
    }
}

// ---------------------------------------------------------------------
// Stage 2: AssignPads
// ---------------------------------------------------------------------

/// The shared pre-mapping environment: the estimated layout image's
/// core region and the connectivity-driven I/O pad assignment on the
/// inchoate network. Both pipelines share this artifact.
#[derive(Debug, Clone)]
pub struct PadPlan {
    /// Estimated mapped area of the inchoate network, µm² (may be
    /// non-finite when the estimate is poisoned; the `SubjectPlace`
    /// stage degrades instead of erroring).
    pub est_area: f64,
    /// The estimated core region the pads ring.
    pub core: Rect,
    /// The subject graph as a placement problem: movable internal
    /// nodes, fixed pads at the assigned positions ([`PadPlan::pads`]).
    pub placement: SubjectPlacement,
    /// The prepared multilevel system of `placement`, kept for the
    /// subject placement when the pad ordering built one.
    system: SystemSlot,
}

/// A prepared multilevel system on its way from `AssignPads` to
/// `SubjectPlace`, which takes it at most once so it does not outlive
/// the subject placement. A taker that finds the slot empty (a plan
/// restored from a checkpoint, a retried stage, a copied plan) prepares
/// the system afresh; preparation is deterministic, so either way the
/// placement is the same.
#[derive(Default)]
struct SystemSlot(Mutex<Option<MultilevelSystem>>);

impl SystemSlot {
    fn take(&self) -> Option<MultilevelSystem> {
        self.0.lock().map_or(None, |mut slot| slot.take())
    }
}

impl Clone for SystemSlot {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for SystemSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = self.0.lock().is_ok_and(|slot| slot.is_some());
        f.debug_tuple("SystemSlot").field(&if held { "prepared" } else { "empty" }).finish()
    }
}

impl PadPlan {
    /// Builds the shared pre-mapping environment of `g`: estimated
    /// layout image sized by `grids_per_base_gate`, core region from
    /// the area model, and connectivity-driven pad assignment. This is
    /// the one constructor for subject-graph/pad setup.
    ///
    /// Above the multilevel threshold the interior positions come from
    /// the clustered placer instead of the flat solve inside
    /// `assign_pads` (which would dominate the whole flow at 10⁵
    /// modules); a failed multilevel solve falls back to the flat
    /// path's own uniform-seed behavior. When the configured mapper
    /// consumes the layout image, the prepared multilevel system stays
    /// in the plan for `SubjectPlace`, which solves it again against
    /// the assigned pads.
    ///
    /// # Errors
    ///
    /// [`MapError::Cancelled`] when the calling thread's ambient
    /// cancellation token trips mid-placement.
    pub fn build(g: &SubjectGraph, lib: &Library, options: &FlowOptions) -> Result<Self, MapError> {
        let tech = lib.technology();
        let est_area = g.base_gate_count() as f64
            * options.physical.grids_per_base_gate
            * tech.grid_width
            * tech.row_height;
        let core = AREA_MODEL.core_region(est_area);
        let mut placement = SubjectPlacement::new(g);
        let problem = &placement.problem;
        let mut system = None;
        let pads = if problem.movable >= options.physical.multilevel_threshold
            && core.width().is_finite()
            && core.height().is_finite()
        {
            let seed = lily_place::pads::perimeter_points(core, problem.fixed.len());
            let solved = MultilevelSystem::prepare(problem, core)
                .and_then(|prepared| system.insert(prepared).solve(&seed));
            match solved {
                Ok(mp) => lily_place::assign_pads_with_interior(problem, core, &mp.positions),
                Err(lily_place::PlaceError::Cancelled { context }) => {
                    return Err(MapError::Cancelled { context });
                }
                Err(_) => seed,
            }
        } else {
            assign_pads(problem, core)
        };
        placement.problem.fixed = pads;
        let system = system.filter(|_| Map::wants_image(lib, options));
        Ok(Self { est_area, core, placement, system: SystemSlot(Mutex::new(system)) })
    }

    /// Pad positions: primary inputs first, then primary outputs.
    pub fn pads(&self) -> &[Point] {
        &self.placement.problem.fixed
    }

    /// The output-pad slice of [`PadPlan::pads`] (`g` has
    /// `pads.len() - n_inputs` primary outputs).
    pub fn output_pads(&self, g: &SubjectGraph) -> &[Point] {
        &self.pads()[g.inputs().len()..]
    }
}

impl StageArtifact for PadPlan {
    fn size(&self) -> usize {
        self.pads().len()
    }

    fn unit(&self) -> &'static str {
        "pads"
    }
}

impl<'a> ArtifactCodec<&'a SubjectGraph> for PadPlan {
    fn encode(&self, _lib: &Library) -> String {
        JsonObject::new()
            .string("est_area", &hex_f64(self.est_area))
            .raw("core", &encode_rect(self.core))
            .raw("pads", &encode_points(self.pads()))
            .finish()
    }

    /// Only the measured fields are stored; the placement problem is a
    /// pure function of the subject graph and is rebuilt. The prepared
    /// multilevel system is not restored (`SubjectPlace` prepares it
    /// afresh).
    fn decode(v: &Json, _lib: &Library, g: &&'a SubjectGraph) -> Result<Self, String> {
        let est_area = v.hex_field("est_area")?;
        let core = v.rect("core")?;
        let pads = v.points("pads")?;
        if pads.len() != g.inputs().len() + g.outputs().len() {
            return Err("pad count does not match the subject graph".to_string());
        }
        let mut placement = SubjectPlacement::new(g);
        placement.problem.fixed = pads;
        Ok(Self { est_area, core, placement, system: SystemSlot::default() })
    }
}

/// Pad assignment: subject graph → [`PadPlan`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AssignPads;

impl<'a> Stage<&'a SubjectGraph> for AssignPads {
    type Out = PadPlan;

    fn name(&self) -> &'static str {
        "assign-pads"
    }

    fn run(&self, ctx: &mut FlowContext<'_>, g: &'a SubjectGraph) -> Result<Self::Out, MapError> {
        PadPlan::build(g, ctx.lib, &ctx.options)
    }
}

// ---------------------------------------------------------------------
// Stage 3: SubjectPlace
// ---------------------------------------------------------------------

/// The pre-mapping global placement of the inchoate network — the
/// layout image Lily consults during covering. A failed solve is *not*
/// an error: the image records the failure and the `Map` stage steps
/// down the degradation ladder (wire-blind MIS mapping) instead.
#[derive(Debug, Clone)]
pub struct SubjectImage {
    /// One `placePosition` per subject node (pads for inputs), when
    /// the placement solve converged.
    pub positions: Option<Vec<Point>>,
    /// Why the solve failed, when it did.
    pub failure: Option<String>,
}

impl StageArtifact for SubjectImage {
    fn size(&self) -> usize {
        self.positions.as_ref().map_or(0, Vec::len)
    }

    fn unit(&self) -> &'static str {
        "points"
    }
}

impl<'a> ArtifactCodec<(&'a SubjectGraph, &'a PadPlan)> for SubjectImage {
    fn encode(&self, _lib: &Library) -> String {
        let o = JsonObject::new();
        let o = match &self.positions {
            Some(points) => o.raw("positions", &encode_points(points)),
            None => o.raw("positions", "null"),
        };
        match &self.failure {
            Some(f) => o.string("failure", f),
            None => o.raw("failure", "null"),
        }
        .finish()
    }

    fn decode(
        v: &Json,
        _lib: &Library,
        _input: &(&'a SubjectGraph, &'a PadPlan),
    ) -> Result<Self, String> {
        let positions = v.nullable("positions")?.map(|_| v.points("positions")).transpose()?;
        let failure = v
            .nullable("failure")?
            .map(|f| f.as_str().map(str::to_string).ok_or_else(|| "bad failure field".to_string()))
            .transpose()?;
        Ok(Self { positions, failure })
    }
}

/// Subject placement: pad plan → layout image of the inchoate network.
/// Runs only when the selected mapper consumes the image.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubjectPlace;

impl<'a> Stage<(&'a SubjectGraph, &'a PadPlan)> for SubjectPlace {
    type Out = SubjectImage;

    fn name(&self) -> &'static str {
        "subject-place"
    }

    fn run(
        &self,
        ctx: &mut FlowContext<'_>,
        (g, plan): (&'a SubjectGraph, &'a PadPlan),
    ) -> Result<Self::Out, MapError> {
        // Take the prepared system whatever happens, so it is freed here.
        let system = plan.system.take();
        let solved = if ctx.armed.take_solver_diverged() {
            Err(lily_place::PlaceError::SolverDiverged {
                solver: "injected-fault",
                iterations: 0,
                residual: f64::NAN,
            })
        } else if ctx.armed.take_nan() {
            Err(lily_place::PlaceError::NonFinite { context: "injected layout-image poison" })
        } else if plan.est_area.is_finite() {
            place_globally(&plan.placement.problem, plan.core, &ctx.options, system)
        } else {
            Err(lily_place::PlaceError::NonFinite { context: "estimated core area" })
        };
        // A cancelled solve is the stage's (transient) failure, not a
        // degraded image: surface it so the retry policy can re-run.
        if let Err(lily_place::PlaceError::Cancelled { context }) = solved {
            return Err(MapError::Cancelled { context });
        }
        Ok(match solved.and_then(|pts| plan.placement.node_positions(g, &pts, plan.pads())) {
            Ok(positions) => SubjectImage { positions: Some(positions), failure: None },
            Err(e) => SubjectImage { positions: None, failure: Some(e.to_string()) },
        })
    }

    fn degraded(
        &self,
        _ctx: &mut FlowContext<'_>,
        _input: (&'a SubjectGraph, &'a PadPlan),
        err: &MapError,
    ) -> Option<Self::Out> {
        // No layout image is still a usable artifact: the `Map` stage
        // audits the fallback to the wire-blind MIS mapper.
        Some(SubjectImage { positions: None, failure: Some(err.to_string()) })
    }
}

// ---------------------------------------------------------------------
// Stage 4: Map
// ---------------------------------------------------------------------

/// The mapped netlist together with mapper statistics and whether the
/// cell positions constitute a constructive placement worth keeping.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// The mapped netlist (positions meaningful only when
    /// `constructive`).
    pub mapped: MappedNetwork,
    /// Mapper statistics.
    pub stats: MapStats,
    /// Whether the mapper's positions should be carried into detailed
    /// placement instead of re-running global placement.
    pub constructive: bool,
}

impl StageArtifact for Mapping {
    fn size(&self) -> usize {
        self.mapped.cell_count()
    }

    fn unit(&self) -> &'static str {
        "cells"
    }
}

impl<'a> ArtifactCodec<(&'a SubjectGraph, &'a PadPlan, Option<&'a SubjectImage>)> for Mapping {
    fn encode(&self, lib: &Library) -> String {
        JsonObject::new()
            .raw("mapped", &encode_mapped(&self.mapped, lib))
            .raw("stats", &encode_stats(&self.stats))
            .raw("constructive", if self.constructive { "true" } else { "false" })
            .finish()
    }

    fn decode(
        v: &Json,
        lib: &Library,
        _input: &(&'a SubjectGraph, &'a PadPlan, Option<&'a SubjectImage>),
    ) -> Result<Self, String> {
        Ok(Self {
            mapped: v.field("mapped")?.mapped_network(lib)?,
            stats: v.field("stats")?.map_stats()?,
            constructive: v
                .get("constructive")
                .and_then(Json::as_bool)
                .ok_or_else(|| "missing constructive".to_string())?,
        })
    }
}

/// Technology mapping: subject graph (+ optional layout image) →
/// mapped netlist. This stage owns the *only* mapper dispatch in the
/// flow: the one `FlowMapper` match in its `run`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Map;

impl Map {
    /// Whether the configured mapper consumes the pre-mapping layout
    /// image (drivers use this to decide whether `SubjectPlace` runs):
    /// Lily and the cut mapper do, the wire-blind MIS baseline does not.
    pub fn wants_image(_lib: &Library, options: &FlowOptions) -> bool {
        options.mapper != FlowMapper::Mis
    }
}

impl<'a> Stage<(&'a SubjectGraph, &'a PadPlan, Option<&'a SubjectImage>)> for Map {
    type Out = Mapping;

    fn name(&self) -> &'static str {
        "map"
    }

    fn run(
        &self,
        ctx: &mut FlowContext<'_>,
        (g, plan, image): (&'a SubjectGraph, &'a PadPlan, Option<&'a SubjectImage>),
    ) -> Result<Self::Out, MapError> {
        let lib = ctx.lib;
        let mut options = ctx.options;
        // Logic cones overlap, so their membership is Θ(outputs × nodes)
        // bits on shared logic; past the ceiling the disjoint tree
        // partition keeps covering linear. Audited: the trade costs
        // match freedom across multi-fanout boundaries.
        if options.partition == Partition::Cones
            && g.node_count() > options.physical.cone_partition_max_nodes
        {
            ctx.degrade(
                "map",
                "tree-partition",
                format!(
                    "{} subject nodes exceed the cone-partition ceiling of {}",
                    g.node_count(),
                    options.physical.cone_partition_max_nodes
                ),
            );
            options.partition = Partition::Trees;
        }
        let mis = MisMapper::new(lib)
            .mode(options.mode)
            .partition(options.partition)
            .wire_cap_per_fanout(MIS_WIRE_CAP_PER_FANOUT);
        let matches = ctx.matches.clone();
        let positions = image.and_then(|i| i.positions.as_deref());
        let result = match (options.mapper, positions) {
            (FlowMapper::Mis, _) => mis.map_with(g, &matches)?,
            (FlowMapper::Lily, Some(positions)) => LilyMapper::new(lib)
                .mode(options.mode)
                .partition(options.partition)
                .layout(options.layout)
                .map_with(g, positions, plan.output_pads(g), &matches)?,
            (FlowMapper::Cut, Some(positions)) => CutMapper::new(lib)
                .mode(options.mode)
                .partition(options.partition)
                .layout(options.layout)
                .map(g, positions, plan.output_pads(g))?,
            (FlowMapper::Lily | FlowMapper::Cut, None) => {
                // First rung of the ladder: a degenerate layout image
                // or a diverged solve falls back to the wire-blind MIS
                // mapper.
                let detail = image
                    .and_then(|i| i.failure.clone())
                    .unwrap_or_else(|| "subject placement unavailable".to_string());
                ctx.degrade("lily-global-place", "mis-mapper", detail);
                mis.map_with(g, &matches)?
            }
        };
        // Lily's and the cut mapper's cell positions are a constructive
        // placement (the paper's `mapPositions`) worth carrying into
        // detailed placement.
        let constructive = options.constructive_placement && options.mapper != FlowMapper::Mis;
        let mut mapped = result.mapped;
        if let Some(limit) = options.fanout_limit {
            crate::fanout::buffer_fanout(&mut mapped, lib, limit);
        }
        ctx.checkpoint("mapped", || lily_check::check_mapped(&mapped, lib))?;
        ctx.checkpoint("cover-equiv", || {
            lily_check::check_mapped_subject(
                g,
                &mapped,
                lib,
                lily_check::DEFAULT_VECTORS,
                lily_check::DEFAULT_SEED,
            )
        })?;
        Ok(Mapping { mapped, stats: result.stats, constructive })
    }
}

// ---------------------------------------------------------------------
// Stage 5: Legalize
// ---------------------------------------------------------------------

/// A row-legal placement of the mapped netlist over its final core
/// region, plus the placement problem reused by the improvement
/// passes.
#[derive(Debug, Clone)]
pub struct LegalPlacement {
    /// The mapped netlist with pads rescaled onto the final core.
    pub mapped: MappedNetwork,
    /// The final core region (sized from real mapped area).
    pub core: Rect,
    /// Mapper statistics, threaded through to the metrics.
    pub stats: MapStats,
    /// Cell widths, µm.
    pub widths: Vec<f64>,
    /// The mapped netlist as a placement problem.
    pub problem: PlacementProblem,
    /// Fixed pad positions (inputs then outputs).
    pub fixed: Vec<Point>,
    /// The legalized row placement (`None` when there are no cells).
    pub legal: Option<Legalized>,
}

impl StageArtifact for LegalPlacement {
    fn size(&self) -> usize {
        self.widths.len()
    }

    fn unit(&self) -> &'static str {
        "cells"
    }
}

impl<'a> ArtifactCodec<(&'a PadPlan, Mapping)> for LegalPlacement {
    fn encode(&self, lib: &Library) -> String {
        let o = JsonObject::new()
            .raw("mapped", &encode_mapped(&self.mapped, lib))
            .raw("core", &encode_rect(self.core))
            .raw("stats", &encode_stats(&self.stats));
        let legal = self.legal.as_ref().map_or_else(
            || "null".to_string(),
            |legal| {
                JsonObject::new()
                    .raw("positions", &encode_points(&legal.positions))
                    .raw(
                        "rows",
                        &array(
                            legal.rows.iter().map(|row| array(row.iter().map(|c| c.to_string()))),
                        ),
                    )
                    .raw("row_y", &hex_array(legal.row_y.iter().copied()))
                    .finish()
            },
        );
        o.raw("legal", &legal).finish()
    }

    /// Widths, the placement problem, and the fixed pad list are all
    /// pure functions of the restored netlist and library; only the
    /// measured pieces (netlist, core, stats, legalized rows) are
    /// stored.
    fn decode(v: &Json, lib: &Library, _input: &(&'a PadPlan, Mapping)) -> Result<Self, String> {
        let mapped = v.field("mapped")?.mapped_network(lib)?;
        let core = v.rect("core")?;
        let stats = v.field("stats")?.map_stats()?;
        let legal = match v.nullable("legal")? {
            None => None,
            Some(l) => {
                let positions = l.points("positions")?;
                let rows = l
                    .array_field("rows")?
                    .iter()
                    .map(|row| {
                        row.as_array()
                            .ok_or_else(|| "bad row".to_string())?
                            .iter()
                            .map(|c| c.as_usize().ok_or_else(|| "bad row cell".to_string()))
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let row_y = l.hex_array("row_y")?;
                if positions.len() != mapped.cell_count() {
                    return Err("legalized position count mismatch".to_string());
                }
                if rows.iter().flatten().any(|&c| c >= mapped.cell_count()) {
                    return Err("legalized row references missing cell".to_string());
                }
                Some(Legalized { positions, rows, row_y })
            }
        };
        let tech = lib.technology();
        let widths: Vec<f64> = mapped
            .cells()
            .iter()
            .map(|c| lib.gate(c.gate).grids() as f64 * tech.grid_width)
            .collect();
        let (problem, _) = mapped_problem(&mapped);
        let fixed = pad_points(&mapped);
        Ok(Self { mapped, core, stats, widths, problem, fixed, legal })
    }
}

/// Legalization: mapped netlist → row-legal placement. Sizes the final
/// core from the real mapped area, rescales the pads onto it, globally
/// places the netlist when the mapper left no constructive placement,
/// seeds non-finite positions at the core center, and packs cells into
/// rows. Improving the rows is [`DetailedPlace`]'s job.
#[derive(Debug, Clone, Copy, Default)]
pub struct Legalize;

impl<'a> Stage<(&'a PadPlan, Mapping)> for Legalize {
    type Out = LegalPlacement;

    fn name(&self) -> &'static str {
        "legalize"
    }

    fn run(
        &self,
        ctx: &mut FlowContext<'_>,
        (plan, mapping): (&'a PadPlan, Mapping),
    ) -> Result<Self::Out, MapError> {
        let lib = ctx.lib;
        let options = ctx.options;
        let tech = lib.technology();
        let Mapping { mut mapped, stats, constructive } = mapping;

        // Resize the core to the real mapped area and rescale the pads
        // onto it; both pipelines share the same pad ring shape.
        let core = AREA_MODEL.core_region(mapped.instance_area(lib));
        let pads: Vec<Point> = plan.pads().iter().map(|p| rescale(*p, plan.core, core)).collect();
        apply_pads(&mut mapped, &pads);

        // Without a constructive placement from the mapper, globally
        // place the mapped netlist against the rescaled pads.
        if !constructive {
            let (mut problem, _) = mapped_problem(&mapped);
            problem.fixed = pads;
            let solved = if ctx.armed.take_solver_diverged() {
                Err(lily_place::PlaceError::SolverDiverged {
                    solver: "injected-fault",
                    iterations: 0,
                    residual: f64::NAN,
                })
            } else {
                place_globally(&problem, core, &options, None)
            };
            match solved {
                Ok(pts) => {
                    for (i, p) in pts.iter().enumerate() {
                        mapped.cells_mut()[i].position = (p.x, p.y);
                    }
                }
                Err(lily_place::PlaceError::Cancelled { context }) => {
                    return Err(MapError::Cancelled { context });
                }
                Err(e) => {
                    // Keep whatever positions the mapper left behind;
                    // the legalizer spreads them into rows regardless.
                    ctx.degrade("mapped-global-place", "mapper-positions", e.to_string());
                }
            }
        }

        let widths: Vec<f64> = mapped
            .cells()
            .iter()
            .map(|c| lib.gate(c.gate).grids() as f64 * tech.grid_width)
            .collect();
        let mut desired: Vec<Point> =
            mapped.cells().iter().map(|c| Point::new(c.position.0, c.position.1)).collect();
        if ctx.armed.take_nan() {
            // Injected NaN poisoning of the desired positions: the
            // non-finite guard below must catch and audit it.
            for p in &mut desired {
                *p = Point::new(f64::NAN, f64::NAN);
            }
        }
        // Non-finite desired positions would poison legalization; seed
        // the offenders at the core center instead.
        let poisoned = desired.iter().filter(|p| !(p.x.is_finite() && p.y.is_finite())).count();
        if poisoned > 0 {
            let center = Point::new(core.llx + core.width() / 2.0, core.lly + core.height() / 2.0);
            for p in &mut desired {
                if !(p.x.is_finite() && p.y.is_finite()) {
                    *p = center;
                }
            }
            ctx.degrade(
                "detailed-placement",
                "core-center-seed",
                format!("{poisoned} cells had non-finite positions"),
            );
        }
        let (problem, _) = mapped_problem(&mapped);
        let fixed = pad_points(&mapped);
        let legal = if widths.is_empty() {
            None
        } else {
            let lopts = LegalizeOptions { core, row_height: tech.row_height };
            Some(legalize(&widths, &desired, &lopts))
        };
        Ok(LegalPlacement { mapped, core, stats, widths, problem, fixed, legal })
    }
}

// ---------------------------------------------------------------------
// Stage 6: DetailedPlace
// ---------------------------------------------------------------------

/// The final placed design: every cell in a legal row position.
#[derive(Debug, Clone)]
pub struct PlacedDesign {
    /// The placed mapped netlist.
    pub mapped: MappedNetwork,
    /// The core region.
    pub core: Rect,
    /// Mapper statistics, threaded through to the metrics.
    pub stats: MapStats,
}

impl StageArtifact for PlacedDesign {
    fn size(&self) -> usize {
        self.mapped.cell_count()
    }

    fn unit(&self) -> &'static str {
        "cells"
    }
}

impl ArtifactCodec<LegalPlacement> for PlacedDesign {
    fn encode(&self, lib: &Library) -> String {
        JsonObject::new()
            .raw("mapped", &encode_mapped(&self.mapped, lib))
            .raw("core", &encode_rect(self.core))
            .raw("stats", &encode_stats(&self.stats))
            .finish()
    }

    fn decode(v: &Json, lib: &Library, _input: &LegalPlacement) -> Result<Self, String> {
        Ok(Self {
            mapped: v.field("mapped")?.mapped_network(lib)?,
            core: v.rect("core")?,
            stats: v.field("stats")?.map_stats()?,
        })
    }
}

/// Detailed placement: legal rows → improved legal rows (median
/// relocation and adjacent-swap passes), plus the placement
/// verification checkpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetailedPlace;

impl Stage<LegalPlacement> for DetailedPlace {
    type Out = PlacedDesign;

    fn name(&self) -> &'static str {
        "detailed-place"
    }

    fn run(&self, ctx: &mut FlowContext<'_>, input: LegalPlacement) -> Result<Self::Out, MapError> {
        let lib = ctx.lib;
        let tech = lib.technology();
        let LegalPlacement { mut mapped, core, stats, widths, problem, fixed, legal } = input;
        if let Some(legal) = legal {
            let ceiling = ctx.options.physical.detailed_place_max_cells;
            if widths.len() > ceiling {
                // The improvement passes are O(passes·cells·pins) and
                // stop paying for themselves at this scale; ship the
                // legalized rows and audit the skip.
                for (i, p) in legal.positions.iter().enumerate() {
                    mapped.cells_mut()[i].position = (p.x, p.y);
                }
                ctx.degrade(
                    "detailed-place",
                    "legalized-only",
                    format!("{} cells exceed the improvement ceiling of {ceiling}", widths.len()),
                );
            } else {
                let lopts = LegalizeOptions { core, row_height: tech.row_height };
                let better = improve(&legal, &widths, &problem.nets, &fixed, &lopts);
                for (i, p) in better.positions.iter().enumerate() {
                    mapped.cells_mut()[i].position = (p.x, p.y);
                }
            }
        }
        ctx.checkpoint("placement", || lily_check::check_placement(&mapped, lib, core))?;
        Ok(PlacedDesign { mapped, core, stats })
    }

    fn degraded(
        &self,
        ctx: &mut FlowContext<'_>,
        input: LegalPlacement,
        err: &MapError,
    ) -> Option<Self::Out> {
        // The legalized rows are already a complete legal placement;
        // ship them without the improvement passes.
        let LegalPlacement { mut mapped, core, stats, legal, .. } = input;
        if let Some(legal) = legal {
            for (i, p) in legal.positions.iter().enumerate() {
                mapped.cells_mut()[i].position = (p.x, p.y);
            }
        }
        ctx.degrade("detailed-place", "legalized-only", err.to_string());
        Some(PlacedDesign { mapped, core, stats })
    }
}

// ---------------------------------------------------------------------
// Stage 7: RouteEstimate
// ---------------------------------------------------------------------

/// The routing estimate's output figures (all zero for a design with
/// nothing to route).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RouteFigures {
    /// Total routed interconnection length, µm.
    pub wire_length: f64,
    /// Total instance (active cell) area, µm².
    pub instance_area: f64,
    /// Final chip area (cells + routing), µm².
    pub chip_area: f64,
    /// Chip area under the channel-density model, µm².
    pub chip_area_channeled: f64,
    /// Peak congestion-bin utilization.
    pub peak_congestion: f64,
    /// Number of nets estimated.
    pub nets: usize,
}

impl StageArtifact for RouteFigures {
    fn size(&self) -> usize {
        self.nets
    }

    fn unit(&self) -> &'static str {
        "nets"
    }
}

impl<'a> ArtifactCodec<&'a PlacedDesign> for RouteFigures {
    fn encode(&self, _lib: &Library) -> String {
        JsonObject::new()
            .string("wire_length", &hex_f64(self.wire_length))
            .string("instance_area", &hex_f64(self.instance_area))
            .string("chip_area", &hex_f64(self.chip_area))
            .string("chip_area_channeled", &hex_f64(self.chip_area_channeled))
            .string("peak_congestion", &hex_f64(self.peak_congestion))
            .uint("nets", self.nets as u64)
            .finish()
    }

    fn decode(v: &Json, _lib: &Library, _placed: &&'a PlacedDesign) -> Result<Self, String> {
        Ok(Self {
            wire_length: v.hex_field("wire_length")?,
            instance_area: v.hex_field("instance_area")?,
            chip_area: v.hex_field("chip_area")?,
            chip_area_channeled: v.hex_field("chip_area_channeled")?,
            peak_congestion: v.hex_field("peak_congestion")?,
            nets: v.usize_field("nets")?,
        })
    }
}

/// Routing estimate: placed design → wire length, congestion, and chip
/// area. Each net's Steiner length is inflated by the overflow of the
/// congestion bins it crosses; the channel-density chip area is
/// reported beside it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteEstimate;

impl<'a> Stage<&'a PlacedDesign> for RouteEstimate {
    type Out = RouteFigures;

    fn name(&self) -> &'static str {
        "route-estimate"
    }

    fn run(
        &self,
        ctx: &mut FlowContext<'_>,
        placed: &'a PlacedDesign,
    ) -> Result<Self::Out, MapError> {
        let lib = ctx.lib;
        let tech = lib.technology();
        let mapped = &placed.mapped;
        let core = placed.core;

        // Routed wire length: Steiner per net, inflated by congestion.
        // Every step below is exact at any thread count: nets map
        // independently, each deposit stripe adds its nets in net
        // order, and the routed lengths are summed in net order.
        let par = ParOptions::current();
        let points: Vec<Vec<Point>> =
            mapped.nets().iter().map(|n| lily_timing::load::net_points(mapped, n)).collect();
        let mut grid = CongestionGrid::for_core(core, tech.row_height, ROUTE_SUPPLY);
        // Each net's congestion-bin box and Steiner length.
        let sized: Vec<(Option<BinBox>, f64)> =
            lily_par::par_map_init(&par, &points, RsmtScratch::default, |scratch, pts| {
                (grid.bin_box(pts), rsmt_length_with(pts, scratch))
            });
        deposit_striped(&par, &mut grid, &points, &sized);
        let table = grid.overflow_table();
        let routed = lily_par::par_map(&par, &sized, |&(bbox, len)| {
            table.routed_length(bbox, len, DETOUR_GAIN)
        });
        let wire_length: f64 = routed.iter().sum();

        let instance_area = mapped.instance_area(lib);
        let chip_area = AREA_MODEL.chip_area(instance_area, wire_length);
        // Channel-density area model (rows + channel tracks).
        let n_rows = ((core.height() / tech.row_height).floor() as usize).max(1);
        let row_ys: Vec<f64> =
            (0..n_rows).map(|r| core.lly + (r as f64 + 0.5) * tech.row_height).collect();
        let chip_area_channeled = instance_area
            + lily_route::channel_routing_area(&row_ys, &points, core.width(), tech.wire_pitch);
        Ok(RouteFigures {
            wire_length,
            instance_area,
            chip_area,
            chip_area_channeled,
            peak_congestion: grid.peak_utilization(),
            nets: points.len(),
        })
    }
}

/// Deposits each net with two or more pins into `grid`, spreading its
/// Steiner length over its bin box. Stripes of [`STRIPE_ROWS`] bin rows
/// run in parallel; each adds the nets in net order, so every bin's sum
/// is the one sequential [`CongestionGrid::deposit`] calls would give.
fn deposit_striped(
    par: &ParOptions,
    grid: &mut CongestionGrid,
    points: &[Vec<Point>],
    sized: &[(Option<BinBox>, f64)],
) {
    let deposits: Vec<(BinBox, f64)> = points
        .iter()
        .zip(sized)
        .filter(|(pts, _)| pts.len() >= 2)
        .filter_map(|(_, &(bbox, len))| bbox.map(|b| (b, b.share(len))))
        .collect();
    let (nx, demand) = grid.rows_mut();
    lily_par::par_chunks_mut(par, demand, STRIPE_ROWS * nx, |offset, rows| {
        deposit_rows(nx, offset / nx, rows, &deposits);
    });
}

// ---------------------------------------------------------------------
// Stage 8: Sta
// ---------------------------------------------------------------------

/// The timing artifact: the full STA result.
#[derive(Debug, Clone)]
pub struct TimingArtifact {
    /// The static timing analysis result.
    pub sta: StaResult,
    /// Number of cells analyzed.
    pub cells: usize,
}

impl StageArtifact for TimingArtifact {
    fn size(&self) -> usize {
        self.cells
    }

    fn unit(&self) -> &'static str {
        "cells"
    }
}

impl<'a> ArtifactCodec<&'a PlacedDesign> for TimingArtifact {
    fn encode(&self, _lib: &Library) -> String {
        let arrivals = |a: &[Arrival]| hex_array(a.iter().flat_map(|a| [a.rise, a.fall]));
        let sta = &self.sta;
        JsonObject::new()
            .raw("cell_arrival", &arrivals(&sta.cell_arrival))
            .raw("output_arrival", &arrivals(&sta.output_arrival))
            .string("critical_delay", &hex_f64(sta.critical_delay))
            .uint("critical_output", sta.critical_output as u64)
            .raw("critical_path", &array(sta.critical_path.iter().map(|c| c.index().to_string())))
            .raw("cell_slack", &hex_array(sta.cell_slack.iter().copied()))
            .uint("cells", self.cells as u64)
            .finish()
    }

    fn decode(v: &Json, _lib: &Library, _placed: &&'a PlacedDesign) -> Result<Self, String> {
        let arrivals = |key: &str| -> Result<Vec<Arrival>, String> {
            let pairs = v.pairs(key, "arrival")?;
            Ok(pairs.into_iter().map(|(rise, fall)| Arrival { rise, fall }).collect())
        };
        let critical_path = v
            .array_field("critical_path")?
            .iter()
            .map(|c| {
                c.as_usize().map(CellId::from_index).ok_or_else(|| "bad critical path".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            sta: StaResult {
                cell_arrival: arrivals("cell_arrival")?,
                output_arrival: arrivals("output_arrival")?,
                critical_delay: v.hex_field("critical_delay")?,
                critical_output: v.usize_field("critical_output")?,
                critical_path,
                cell_slack: v.hex_array("cell_slack")?,
            },
            cells: v.usize_field("cells")?,
        })
    }
}

/// Static timing analysis with the wire-load degradation ladder:
/// placement-derived loads, then the MIS per-fanout model, then no
/// wire load at all. Each step down is recorded; only a failure of the
/// final rung aborts the flow.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sta;

impl<'a> Stage<&'a PlacedDesign> for Sta {
    type Out = TimingArtifact;

    fn name(&self) -> &'static str {
        "sta"
    }

    fn run(
        &self,
        ctx: &mut FlowContext<'_>,
        placed: &'a PlacedDesign,
    ) -> Result<Self::Out, MapError> {
        let lib = ctx.lib;
        let mapped = &placed.mapped;
        let mut poison = ctx.armed.take_nan();
        let mut sta = Err(MapError::NonFiniteValue { context: "sta not attempted" });
        for (wire_load, fallback) in [
            (WireLoad::FromPlacement, "per-fanout"),
            (WireLoad::PerFanout(MIS_WIRE_CAP_PER_FANOUT), "no-wire-load"),
            (WireLoad::None, ""),
        ] {
            let attempt = if poison {
                // Injected NaN poisoning of the first rung: the ladder
                // must step down to the per-fanout model and audit it.
                poison = false;
                Err(lily_timing::TimingError::NonFinite { context: "injected sta poison" })
            } else {
                try_analyze(mapped, lib, wire_load)
            };
            match attempt {
                Ok(r) => {
                    sta = Ok(r);
                    break;
                }
                Err(e) => {
                    if fallback.is_empty() {
                        sta = Err(MapError::from(e));
                    } else {
                        ctx.degrade("wire-load", fallback, e.to_string());
                    }
                }
            }
        }
        let sta = sta?;
        ctx.checkpoint("timing", || lily_check::check_timing(mapped, &sta))?;
        Ok(TimingArtifact { sta, cells: mapped.cell_count() })
    }
}

// ---------------------------------------------------------------------
// Shared placement-problem helpers
// ---------------------------------------------------------------------

/// Builds the placement problem of a mapped netlist: cells movable,
/// I/O pads fixed (inputs first, then outputs). Returns the problem and
/// the number of input pads.
pub fn mapped_problem(mapped: &MappedNetwork) -> (PlacementProblem, usize) {
    let n_pi = mapped.input_names.len();
    let mut nets = Vec::new();
    for net in mapped.nets() {
        let mut pins = Vec::with_capacity(1 + net.sinks.len() + net.output_sinks.len());
        pins.push(match net.source {
            SignalSource::Input(i) => PinRef::Fixed(i),
            SignalSource::Cell(c) => PinRef::Movable(c.index()),
        });
        for &(cell, _) in &net.sinks {
            pins.push(PinRef::Movable(cell.index()));
        }
        for &oi in &net.output_sinks {
            pins.push(PinRef::Fixed(n_pi + oi));
        }
        if pins.len() >= 2 {
            nets.push(pins);
        }
    }
    let problem = PlacementProblem {
        movable: mapped.cell_count(),
        fixed: vec![Point::default(); n_pi + mapped.outputs.len()],
        nets,
    };
    (problem, n_pi)
}

/// Globally places `problem` inside `region`: the flat GORDIAN placer
/// below the configured multilevel threshold, the clustered multilevel
/// placer at or above it — solving `prepared` when given (it must have
/// been prepared from `problem` for `region`), otherwise a system
/// prepared here. Flat CG costs O(levels·n·cg_iters) and does not
/// survive 10⁵ movable modules; the threshold default keeps every
/// corpus circuit on the flat path bit-for-bit.
fn place_globally(
    problem: &PlacementProblem,
    region: Rect,
    options: &FlowOptions,
    prepared: Option<MultilevelSystem>,
) -> Result<Vec<Point>, lily_place::PlaceError> {
    if problem.movable >= options.physical.multilevel_threshold {
        let system = match prepared {
            Some(system) => system,
            None => MultilevelSystem::prepare(problem, region)?,
        };
        system.solve(&problem.fixed).map(|mp| mp.positions)
    } else {
        try_global_place(problem, region).map(|gp| gp.positions)
    }
}

/// The pad positions of a mapped netlist (inputs, then outputs).
fn pad_points(mapped: &MappedNetwork) -> Vec<Point> {
    mapped
        .input_positions
        .iter()
        .chain(mapped.output_positions.iter())
        .map(|&(x, y)| Point::new(x, y))
        .collect()
}

/// Linearly maps a point from one core region onto another.
fn rescale(p: Point, from: Rect, to: Rect) -> Point {
    let fx = if from.width() > 0.0 { (p.x - from.llx) / from.width() } else { 0.5 };
    let fy = if from.height() > 0.0 { (p.y - from.lly) / from.height() } else { 0.5 };
    Point::new(to.llx + fx * to.width(), to.lly + fy * to.height())
}

fn apply_pads(mapped: &mut MappedNetwork, pads: &[Point]) {
    let n_pi = mapped.input_names.len();
    for (i, p) in pads[..n_pi].iter().enumerate() {
        mapped.input_positions[i] = (p.x, p.y);
    }
    for (i, p) in pads[n_pi..].iter().enumerate() {
        mapped.output_positions[i] = (p.x, p.y);
    }
}
