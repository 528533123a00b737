//! The output checks every run's colouring must pass.

use d2color::congest::Metrics;
use d2color::graphs::{verify, D2View};

/// Why a pipeline's output is wrong, or `None` when every check holds:
/// the colouring is a complete distance-2 colouring of the view's graph,
/// uses at most `∆² + 1` colours (`n` when that is fewer), and no message
/// exceeded the bandwidth budget.
pub fn output(view: &D2View, max_degree: usize, colors: &[u32], m: &Metrics) -> Option<String> {
    let n = view.n();
    if colors.len() != n {
        return Some(format!("{} colours for {n} nodes", colors.len()));
    }
    if !verify::is_valid_d2_coloring_with(view, colors) {
        return Some("not a complete distance-2 colouring".into());
    }
    let bound = (max_degree * max_degree).min(n.saturating_sub(1)) + 1;
    let palette = verify::palette_size(colors);
    if palette > bound {
        return Some(format!("palette {palette} exceeds ∆²+1 = {bound}"));
    }
    if m.bandwidth_violations != 0 {
        return Some(format!("{} bandwidth violations", m.bandwidth_violations));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{det_small, Inputs};
    use d2color::congest::RuntimeMode;

    #[test]
    fn accepts_a_pipeline_colouring_and_rejects_corruptions() {
        let inputs = Inputs::from_seed(400, 5);
        let g = inputs.graph();
        let view = D2View::build(&g);
        let d = g.max_degree();
        let out = det_small(&g, &inputs.config(RuntimeMode::Sequential)).expect("pipeline runs");
        assert_eq!(output(&view, d, &out.colors, &out.metrics), None);

        // Two neighbours share a colour.
        let mut clash = out.colors.clone();
        let u = g.neighbors(0)[0] as usize;
        clash[u] = clash[0];
        assert!(output(&view, d, &clash, &out.metrics).is_some());

        // A node left uncoloured.
        let mut hole = out.colors.clone();
        hole[1] = u32::MAX;
        assert!(output(&view, d, &hole, &out.metrics).is_some());

        // A colour beyond ∆² + 1 (still distance-2 proper).
        let mut wide = out.colors.clone();
        wide[2] = (d * d + 5) as u32;
        assert!(output(&view, d, &wide, &out.metrics).is_some());

        // A truncated colouring.
        assert!(output(&view, d, &out.colors[1..], &out.metrics).is_some());

        // Bandwidth overrun.
        let mut m = out.metrics.clone();
        m.bandwidth_violations = 1;
        assert!(output(&view, d, &out.colors, &m).is_some());
    }
}
