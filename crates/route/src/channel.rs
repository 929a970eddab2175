//! Channel-density routing-area estimation — the standard-cell area
//! model of the channel-routing (YACR) era the paper's layouts used.
//!
//! Pre-over-the-cell routing, wires live in *channels* between cell
//! rows; a channel's height is its *density* (the maximum number of
//! nets crossing any vertical cut) times the track pitch. Chip area is
//! then rows plus channels. This complements the flat
//! wire-length × pitch model of [`lily_place::AreaModel`] with one that
//! responds to horizontal congestion.

use lily_place::{Point, Rect};

/// Densities of the channels around `row_ys` (sorted row center-line
/// y coordinates): entry `i` is the channel below row `i`, entry
/// `row_ys.len()` the channel above the top row.
///
/// Each net contributes its horizontal interval to every channel its
/// vertical extent crosses (its vertical wires must pass through).
/// One sweep serves all channels: every net emits an open and a close
/// event tagged with its channel span, the events are sorted once by
/// `(x, delta)`, and each event updates the running and peak density of
/// the channels it spans. Restricted to one channel the global order is
/// still a valid `(x, delta)` order, and equal keys carry equal deltas,
/// so each density is exactly that of a per-channel sweep.
///
/// # Panics
///
/// Panics if `row_ys` is empty or unsorted.
pub fn channel_densities(row_ys: &[f64], nets: &[Vec<Point>]) -> Vec<usize> {
    assert!(!row_ys.is_empty(), "need at least one row");
    assert!(row_ys.windows(2).all(|w| w[0] <= w[1]), "row centers must be sorted");
    // Channel index of a y coordinate: number of row centers below it.
    let channel_of = |y: f64| -> usize { row_ys.partition_point(|&ry| ry < y) };

    // Sweep-line events `(x, delta, lo, hi)` over channels `lo..=hi`.
    let mut events: Vec<(f64, i32, usize, usize)> = Vec::with_capacity(2 * nets.len());
    for pins in nets {
        let Some(bbox) = Rect::bounding(pins.iter().copied()) else {
            continue;
        };
        if pins.len() < 2 {
            continue;
        }
        let lo = channel_of(bbox.lly);
        // A net fully inside one row's band still needs one channel.
        let hi = channel_of(bbox.ury).max(lo);
        events.push((bbox.llx, 1, lo, hi));
        events.push((bbox.urx, -1, lo, hi));
    }
    // Close intervals before opening at the same x (half-open).
    events.sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
    });

    let channels = row_ys.len() + 1;
    let mut cur = vec![0i32; channels];
    let mut max = vec![0i32; channels];
    for (_, d, lo, hi) in events {
        for (c, m) in cur[lo..=hi].iter_mut().zip(&mut max[lo..=hi]) {
            *c += d;
            *m = (*m).max(*c);
        }
    }
    max.into_iter().map(|m| m as usize).collect()
}

/// Total routing area under the channel model: the sum of channel
/// densities times `track_pitch`, times the core width — the area the
/// channels add to the die.
pub fn channel_routing_area(
    row_ys: &[f64],
    nets: &[Vec<Point>],
    core_width: f64,
    track_pitch: f64,
) -> f64 {
    let total_tracks: usize = channel_densities(row_ys, nets).iter().sum();
    total_tracks as f64 * track_pitch * core_width
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(x0: f64, y0: f64, x1: f64, y1: f64) -> Vec<Point> {
        vec![Point::new(x0, y0), Point::new(x1, y1)]
    }

    #[test]
    fn single_net_single_channel() {
        let rows = [100.0, 300.0];
        let d = channel_densities(&rows, &[net(0.0, 150.0, 50.0, 180.0)]);
        // Net sits between the rows: channel 1 only.
        assert_eq!(d, vec![0, 1, 0]);
    }

    #[test]
    fn overlapping_nets_stack() {
        let rows = [100.0];
        let nets = vec![
            net(0.0, 50.0, 100.0, 60.0),
            net(50.0, 50.0, 150.0, 60.0),
            net(200.0, 50.0, 300.0, 60.0),
        ];
        let d = channel_densities(&rows, &nets);
        // Two overlap in [50,100]; the third is disjoint.
        assert_eq!(d[0], 2);
    }

    #[test]
    fn abutting_intervals_do_not_stack() {
        let rows = [100.0];
        let nets = vec![net(0.0, 50.0, 100.0, 60.0), net(100.0, 50.0, 200.0, 60.0)];
        let d = channel_densities(&rows, &nets);
        assert_eq!(d[0], 1, "half-open intervals must not double-count at x=100");
    }

    #[test]
    fn tall_nets_cross_all_channels() {
        let rows = [100.0, 300.0, 500.0];
        let d = channel_densities(&rows, &[net(10.0, 50.0, 20.0, 550.0)]);
        assert_eq!(d, vec![1, 1, 1, 1]);
    }

    #[test]
    fn routing_area_scales_with_density() {
        let rows = [100.0];
        let one = channel_routing_area(&rows, &[net(0.0, 50.0, 100.0, 60.0)], 1000.0, 7.0);
        assert!((one - 7.0 * 1000.0).abs() < 1e-9, "one track: {one}");
        let two = channel_routing_area(
            &rows,
            &[net(0.0, 50.0, 100.0, 60.0), net(10.0, 50.0, 90.0, 60.0)],
            1000.0,
            7.0,
        );
        assert!((two - 2.0 * 7.0 * 1000.0).abs() < 1e-9, "two stacked tracks: {two}");
    }

    #[test]
    fn empty_and_single_pin_nets_ignored() {
        let rows = [100.0];
        let d = channel_densities(&rows, &[vec![], vec![Point::new(5.0, 5.0)]]);
        assert_eq!(d, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_rows_panic() {
        let _ = channel_densities(&[300.0, 100.0], &[]);
    }
}
