//! Linial's color reduction on `G²` (Theorem B.1).
//!
//! Starting from the unique `O(log n)`-bit identifiers (a coloring with
//! `K₀ = n` colors), each iteration maps the current coloring to one with
//! fewer colors via polynomials over a prime field: a color `c < K` is read
//! as the coefficient vector of a polynomial `p_c` of degree ≤ `d` over
//! `F_q`; a node picks an evaluation point `x` where its polynomial differs
//! from all conflict neighbors' polynomials (possible because distinct
//! degree-`d` polynomials agree on ≤ `d` points and `q > ∆_c · d`), and
//! adopts the new color `(x, p_c(x)) ∈ [q²]`.
//!
//! After `O(log* n)` iterations the palette stabilizes at
//! `K* = O(∆_c²)` — `O(∆⁴)` for the full d2 problem.
//!
//! Each iteration requires every node to know its conflict neighbors'
//! current colors; the pipelined relay of [`GatherCore`] delivers them in
//! `⌈∆ · bits(K) / budget⌉ + 2` rounds, giving the `O(∆ + log* n)` total
//! of Theorem B.1 (the `∆` cost is paid only while colors are wide; later
//! iterations bundle many shrunken colors per message).

use super::{gather::DetMsg, GatherCore, Scope};
use congest::{Inbox, NodeCtx, NodeRng, Outbox, Protocol, Status};
use graphs::Graph;

/// Parameters of one Linial iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterPlan {
    /// Size of the incoming color space.
    pub k_in: u64,
    /// Field size (prime).
    pub q: u64,
    /// Polynomial degree bound.
    pub d: u32,
    /// Size of the outgoing color space (`q²`).
    pub k_out: u64,
}

/// Smallest `r` with `r^e ≥ k`.
fn iroot(k: u64, e: u32) -> u64 {
    if k <= 1 {
        return 1;
    }
    let mut r = (k as f64).powf(1.0 / f64::from(e)).round() as u64;
    r = r.max(1);
    while pow_ge(r, e, k) && r > 1 && pow_ge(r - 1, e, k) {
        r -= 1;
    }
    while !pow_ge(r, e, k) {
        r += 1;
    }
    r
}

/// `r^e ≥ k`, overflow-safe.
fn pow_ge(r: u64, e: u32, k: u64) -> bool {
    let mut acc: u128 = 1;
    for _ in 0..e {
        acc *= u128::from(r);
        if acc >= u128::from(k) {
            return true;
        }
    }
    acc >= u128::from(k)
}

/// The best single Linial step from `k` colors: minimizes the outgoing
/// space `q²` over the degree `d`.
fn best_step(k: u64, delta_c: u64) -> IterPlan {
    let dc = delta_c.max(1);
    let mut best: Option<IterPlan> = None;
    for d in 1..=8u32 {
        let r = iroot(k, d + 1);
        let qbase = (dc * u64::from(d)).max(r.saturating_sub(1));
        let mut q = crate::common::next_prime(qbase);
        while !pow_ge(q, d + 1, k) {
            q = crate::common::next_prime(q);
        }
        let k_out = q * q;
        if best.is_none_or(|b| k_out < b.k_out) {
            best = Some(IterPlan {
                k_in: k,
                q,
                d,
                k_out,
            });
        }
    }
    best.expect("d = 1 always yields a plan")
}

/// The full iteration schedule from `k0` colors down to the fixed point.
/// Globally derivable from `(n, ∆_c)`, so every node computes the same
/// schedule — the network needs no coordination rounds.
#[must_use]
pub fn schedule(k0: u64, delta_c: u64) -> Vec<IterPlan> {
    let mut k = k0;
    let mut plans = Vec::new();
    for _ in 0..64 {
        let p = best_step(k, delta_c);
        if p.k_out >= k {
            break;
        }
        plans.push(p);
        k = p.k_out;
    }
    plans
}

/// The color space size after running the schedule.
#[must_use]
pub fn final_k(k0: u64, delta_c: u64) -> u64 {
    schedule(k0, delta_c).last().map_or(k0, |p| p.k_out)
}

/// Appends the digits of `c` base `q` to `buf`, lowest first (`d + 1`
/// coefficients).
fn push_coeffs(buf: &mut Vec<u64>, c: u64, q: u64, d: u32) {
    let mut c = c;
    buf.extend((0..=d).map(|_| {
        let digit = c % q;
        c /= q;
        digit
    }));
}

/// Digits of `c` base `q`, lowest first (`d + 1` coefficients).
#[cfg(test)]
fn poly_coeffs(c: u64, q: u64, d: u32) -> Vec<u64> {
    let mut buf = Vec::with_capacity(d as usize + 1);
    push_coeffs(&mut buf, c, q, d);
    buf
}

/// Horner's rule over `F_q`. Every intermediate `acc · x + a` is at most
/// `(q − 1)² + (q − 1) < q²`, so u64 is exact for `q ≤ 2³²`; a scheduled
/// plan has `q² = k_out < k ≤ u64::MAX`, so its `q` is below that.
fn poly_eval(coeffs: &[u64], x: u64, q: u64) -> u64 {
    debug_assert!(q <= 1 << 32, "q = {q} overflows u64 Horner");
    coeffs.iter().rev().fold(0, |acc, &a| (acc * x + a) % q)
}

/// One node's color update given its conflict neighbors' colors.
///
/// All coefficient vectors share one flat buffer, this node's first, so a
/// call allocates once rather than once per conflict color.
fn reduce_color(color: u64, plan: &IterPlan, conflicts: &[u32]) -> u64 {
    let width = plan.d as usize + 1;
    let mut coeffs = Vec::with_capacity(width * (conflicts.len() + 1));
    push_coeffs(&mut coeffs, color, plan.q, plan.d);
    for c in conflicts
        .iter()
        .map(|&c| u64::from(c))
        .filter(|&c| c != color)
    {
        push_coeffs(&mut coeffs, c, plan.q, plan.d);
    }
    let (my, others) = coeffs.split_at(width);
    for x in 0..plan.q {
        let mine = poly_eval(my, x, plan.q);
        if others
            .chunks_exact(width)
            .all(|o| poly_eval(o, x, plan.q) != mine)
        {
            return x * plan.q + mine;
        }
    }
    unreachable!("q > ∆_c · d guarantees a good evaluation point")
}

/// The Linial protocol. Initial colors default to node identifiers
/// (`K₀ = n`); Theorem 3.4's recursion passes explicit colorings instead.
#[derive(Debug)]
pub struct Linial {
    scope: Scope,
    nbr_parts: super::NbrParts,
    init_colors: Option<Vec<u64>>,
    plans: Vec<IterPlan>,
    budget: u64,
}

impl Linial {
    /// Builds the protocol for `scope` starting from `k0` colors.
    ///
    /// `init_colors` of `None` uses node identifiers (requires `k0 ≥ n`).
    #[must_use]
    pub fn new(
        g: &Graph,
        scope: Scope,
        init_colors: Option<Vec<u64>>,
        k0: u64,
        budget: u64,
    ) -> Self {
        let nbr_parts = scope.nbr_parts(g);
        let plans = schedule(k0, scope.delta_c as u64);
        Linial {
            scope,
            nbr_parts,
            init_colors,
            plans,
            budget,
        }
    }

    /// The color-space size this instance converges to.
    #[must_use]
    pub fn output_k(&self, k0: u64) -> u64 {
        self.plans.last().map_or(k0, |p| p.k_out)
    }

    fn new_gather(&self, ctx: &NodeCtx, iter: usize) -> GatherCore {
        let bits = graphs::ceil_log2(self.plans[iter].k_in.max(2));
        GatherCore::new(
            ctx.degree(),
            self.scope.dist,
            ctx.max_degree,
            bits,
            self.budget,
        )
    }
}

/// Per-node Linial state.
#[derive(Debug, Clone)]
pub struct LinialState {
    /// Current color (`< k` for the current stage; meaningless if inactive).
    pub color: u64,
    iter: usize,
    gather: Option<GatherCore>,
}

impl Protocol for Linial {
    type State = LinialState;
    type Msg = DetMsg;

    fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> LinialState {
        let color = match &self.init_colors {
            Some(v) => v[ctx.index as usize],
            None => ctx.ident,
        };
        LinialState {
            color,
            iter: 0,
            gather: None,
        }
    }

    fn round(
        &self,
        st: &mut LinialState,
        ctx: &NodeCtx,
        _rng: &mut NodeRng,
        inbox: &Inbox<DetMsg>,
        out: &mut Outbox<DetMsg>,
    ) -> Status {
        if st.iter >= self.plans.len() {
            return Status::Done;
        }
        if st.gather.is_none() {
            st.gather = Some(self.new_gather(ctx, st.iter));
        }
        let v = ctx.index as usize;
        let active = self.scope.is_active(v);
        let my_part = self.scope.part[v];
        let received = inbox.as_slice();
        loop {
            let gather = st.gather.as_mut().expect("set above");
            let my_color = if active { Some(st.color as u32) } else { None };
            let complete = gather.step(
                my_color,
                my_part,
                self.nbr_parts.row(v),
                received,
                |p, m| out.send(p, m),
            );
            if !complete {
                return Status::Running;
            }
            // Fold this iteration: compute the new color, move on.
            if active {
                st.color = reduce_color(st.color, &self.plans[st.iter], &gather.collected);
            }
            st.iter += 1;
            if st.iter >= self.plans.len() {
                return Status::Done;
            }
            // Start the next iteration's gather in this same round (its
            // round 0 only sends, so the inbox is not consumed again).
            st.gather = Some(self.new_gather(ctx, st.iter));
        }
    }
}

/// Convenience accessor used by drivers.
impl LinialState {
    /// Final color as `u32` (all realistic schedules fit).
    ///
    /// # Panics
    ///
    /// Panics if the color exceeds `u32::MAX` (would require `∆_c ≳ 2¹⁶`).
    #[must_use]
    pub fn color_u32(&self) -> u32 {
        u32::try_from(self.color).expect("palette fits in u32")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::Dist;
    use congest::SimConfig;

    #[test]
    fn iroot_exactness() {
        assert_eq!(iroot(1, 2), 1);
        assert_eq!(iroot(4, 2), 2);
        assert_eq!(iroot(5, 2), 3);
        assert_eq!(iroot(27, 3), 3);
        assert_eq!(iroot(28, 3), 4);
        assert_eq!(iroot(1_000_000, 2), 1000);
    }

    #[test]
    fn poly_roundtrip() {
        let q = 7;
        let c = 5 * 49 + 3 * 7 + 2; // coefficients [2, 3, 5]
        let coeffs = poly_coeffs(c, q, 2);
        assert_eq!(coeffs, vec![2, 3, 5]);
        assert_eq!(poly_eval(&coeffs, 0, q), 2);
        assert_eq!(poly_eval(&coeffs, 1, q), 10 % 7);
    }

    /// The u64 Horner fold matches a u128 evaluation up to its `q = 2³²`
    /// limit, where every coefficient and point is as large as it gets.
    #[test]
    fn u64_evaluation_matches_wide_oracle() {
        fn wide(coeffs: &[u64], x: u64, q: u64) -> u64 {
            let (x, q) = (u128::from(x), u128::from(q));
            coeffs
                .iter()
                .rev()
                .fold(0, |acc, &a| (acc * x + u128::from(a)) % q) as u64
        }
        let largest_prime_below_2_32 = 4_294_967_291;
        for q in [2, 7, 65_537, largest_prime_below_2_32, 1 << 32] {
            for d in [1u32, 4, 8] {
                let top = vec![q - 1; d as usize + 1];
                let mixed = poly_coeffs(u64::MAX / 3, q, d);
                for coeffs in [&top, &mixed] {
                    for x in [0, 1, 2, q / 2, q - 2, q - 1] {
                        assert_eq!(
                            poly_eval(coeffs, x, q),
                            wide(coeffs, x, q),
                            "q = {q}, d = {d}, x = {x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn schedule_converges_to_delta_c_squared() {
        let plans = schedule(1 << 20, 16);
        assert!(!plans.is_empty());
        let k_final = plans.last().unwrap().k_out;
        // Fixed point is (next prime > 2∆_c + 1)² = O(∆_c²); allow 16∆_c².
        assert!(k_final <= 16 * 16 * 16, "k_final = {k_final}");
        // Monotone decreasing.
        for w in plans.windows(2) {
            assert!(w[1].k_in == w[0].k_out && w[1].k_out < w[0].k_out);
        }
        // log*-ish length.
        assert!(plans.len() <= 10, "len = {}", plans.len());
    }

    #[test]
    fn schedule_empty_when_already_small() {
        assert!(schedule(10, 100).is_empty());
        assert_eq!(final_k(10, 100), 10);
    }

    #[test]
    fn reduce_color_avoids_conflicts() {
        let plan = best_step(1000, 5);
        let mine = 700u64;
        let conflicts: Vec<u32> = vec![1, 2, 3, 700, 999];
        let new = reduce_color(mine, &plan, &conflicts);
        assert!(new < plan.k_out);
        // Decode (x, value) and check no conflicting polynomial matches.
        let (x, val) = (new / plan.q, new % plan.q);
        for c in conflicts
            .iter()
            .map(|&c| u64::from(c))
            .filter(|&c| c != mine)
        {
            let pc = poly_coeffs(c, plan.q, plan.d);
            assert_ne!(poly_eval(&pc, x, plan.q), val);
        }
    }

    /// End-to-end: run Linial at distance 2 on a random graph and check the
    /// result is a proper coloring of G² with the predicted palette.
    #[test]
    fn linial_colors_g_squared() {
        let g = graphs::gen::gnp_capped(120, 0.06, 5, 3);
        let scope = Scope::full_d2(&g);
        let cfg = SimConfig::seeded(7);
        let budget = cfg.bandwidth_bits(g.n());
        let proto = Linial::new(&g, scope, None, g.n() as u64, budget);
        let k_final = proto.output_k(g.n() as u64);
        let res = congest::run(&g, &proto, &cfg).unwrap();
        let colors: Vec<u32> = res.states.iter().map(|s| s.color_u32()).collect();
        assert!(
            graphs::verify::first_d2_violation(&g, &colors).is_none(),
            "Linial output must be d2-proper"
        );
        assert!(colors.iter().all(|&c| u64::from(c) < k_final));
        assert!(res.metrics.is_congest_compliant());
    }

    /// Distance-1, two parts: same-color across parts is fine.
    #[test]
    fn linial_part_scoped_d1() {
        let g = graphs::gen::cycle(10);
        let part: Vec<u32> = (0..10).map(|i| (i % 2) as u32).collect();
        let scope = Scope {
            part: part.clone(),
            dist: Dist::One,
            delta_c: 2,
        };
        let cfg = SimConfig::seeded(1);
        let budget = cfg.bandwidth_bits(g.n());
        let proto = Linial::new(&g, scope, None, 10, budget);
        let res = congest::run(&g, &proto, &cfg).unwrap();
        let colors: Vec<u32> = res.states.iter().map(|s| s.color_u32()).collect();
        // Within a part (which here is an independent set at distance 2 on
        // the cycle... actually parts alternate so same-part nodes are at
        // distance 2 in G, i.e. NOT adjacent: no constraint binds, any
        // coloring is fine. Just check palette size.
        let k_final = final_k(10, 2);
        assert!(colors.iter().all(|&c| u64::from(c) < k_final));
    }

    #[test]
    fn empty_schedule_terminates_fast() {
        let g = graphs::gen::path(4);
        let scope = Scope::full_d2(&g);
        let cfg = SimConfig::seeded(1);
        // k0 tiny: nothing to do.
        let proto = Linial::new(&g, scope, Some(vec![0, 1, 2, 3]), 4, 64);
        let res = congest::run(&g, &proto, &cfg).unwrap();
        assert_eq!(res.metrics.rounds, 1);
    }
}
