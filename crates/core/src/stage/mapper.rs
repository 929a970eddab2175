//! The unified mapper interface the `Map` stage drives.
//!
//! The paper's two pipelines differ only in gate selection: the
//! wire-blind MIS 2.1 baseline versus the layout-driven Lily mapper.
//! Both implement [`Mapper`]; the [`Map`](crate::stage::Map) stage is
//! branch-free and simply drives whichever implementation the options
//! selected.

use crate::baseline::MisMapper;
use crate::cover::MapResult;
use crate::cuts::CutMapper;
use crate::error::MapError;
use crate::lily::LilyMapper;
use crate::matching::MatchSlot;
use lily_netlist::SubjectGraph;
use lily_place::Point;

/// The pre-mapping layout image a placement-aware mapper consumes: a
/// `placePosition` per subject node and a pad position per primary
/// output.
#[derive(Debug, Clone, Copy)]
pub struct MapImage<'a> {
    /// One position per subject node (pads for primary inputs).
    pub positions: &'a [Point],
    /// One pad position per primary output.
    pub output_pads: &'a [Point],
}

/// A technology mapper the flow can drive: covers a subject graph with
/// library gates, optionally guided by a pre-mapping layout image.
pub trait Mapper {
    /// Stable mapper name for diagnostics and metrics.
    fn name(&self) -> &'static str;

    /// Whether this mapper consumes the pre-mapping layout image (the
    /// `SubjectPlace` stage only runs when the selected mapper wants
    /// it).
    fn needs_image(&self) -> bool;

    /// Whether the mapper's cell positions are a meaningful
    /// constructive placement (Lily's `mapPositions`) worth carrying
    /// into detailed placement instead of re-running global placement.
    fn constructive(&self) -> bool;

    /// Maps `g`, optionally guided by `image`. A structural mapper
    /// takes `g`'s match index from `matches`, building it there if no
    /// earlier mapper did.
    ///
    /// # Errors
    ///
    /// [`MapError::MissingPlacement`] when the mapper needs an image
    /// and none (or one of the wrong shape) is supplied, plus the
    /// matching and covering errors of the underlying engine.
    fn map_subject(
        &self,
        g: &SubjectGraph,
        image: Option<&MapImage<'_>>,
        matches: &MatchSlot,
    ) -> Result<MapResult, MapError>;
}

impl Mapper for MisMapper<'_> {
    fn name(&self) -> &'static str {
        "mis"
    }

    fn needs_image(&self) -> bool {
        false
    }

    fn constructive(&self) -> bool {
        false
    }

    fn map_subject(
        &self,
        g: &SubjectGraph,
        _image: Option<&MapImage<'_>>,
        matches: &MatchSlot,
    ) -> Result<MapResult, MapError> {
        self.map_with(g, matches)
    }
}

impl Mapper for LilyMapper<'_> {
    fn name(&self) -> &'static str {
        "lily"
    }

    fn needs_image(&self) -> bool {
        true
    }

    fn constructive(&self) -> bool {
        true
    }

    fn map_subject(
        &self,
        g: &SubjectGraph,
        image: Option<&MapImage<'_>>,
        matches: &MatchSlot,
    ) -> Result<MapResult, MapError> {
        let image = image.ok_or(MapError::MissingPlacement { expected: g.node_count(), got: 0 })?;
        self.map_with(g, image.positions, image.output_pads, matches)
    }
}

impl Mapper for CutMapper<'_> {
    fn name(&self) -> &'static str {
        "cut"
    }

    fn needs_image(&self) -> bool {
        true
    }

    fn constructive(&self) -> bool {
        true
    }

    fn map_subject(
        &self,
        g: &SubjectGraph,
        image: Option<&MapImage<'_>>,
        _matches: &MatchSlot,
    ) -> Result<MapResult, MapError> {
        let image = image.ok_or(MapError::MissingPlacement { expected: g.node_count(), got: 0 })?;
        self.map(g, image.positions, image.output_pads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lily_cells::Library;

    fn tiny_graph() -> SubjectGraph {
        let mut g = SubjectGraph::new("t");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let n = g.nand2(a, b);
        g.set_output("y", n);
        g
    }

    #[test]
    fn mis_ignores_image_and_lily_requires_it() {
        let lib = Library::big();
        let g = tiny_graph();
        let slot = MatchSlot::default();
        let mis = MisMapper::new(&lib);
        assert!(!Mapper::needs_image(&mis));
        assert!(mis.map_subject(&g, None, &slot).is_ok());

        let lily = LilyMapper::new(&lib);
        assert!(Mapper::needs_image(&lily));
        assert!(matches!(
            lily.map_subject(&g, None, &slot),
            Err(MapError::MissingPlacement { .. })
        ));
        let positions = vec![Point::new(0.0, 0.0), Point::new(0.0, 10.0), Point::new(5.0, 5.0)];
        let pads = vec![Point::new(20.0, 5.0)];
        let image = MapImage { positions: &positions, output_pads: &pads };
        let r = lily.map_subject(&g, Some(&image), &slot).unwrap();
        assert_eq!(r.mapped.cell_count(), 1);
    }
}
